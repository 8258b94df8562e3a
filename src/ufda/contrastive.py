"""Contrastive affinity learning: dataset-level positives from the memory
bank, batch-level hard negatives, and the pair loss with a stop-gradient on
the pair side.

The pairs of a batch are two (B, P) index arrays whose row i belongs to the
anchor at batch position i: P bank indices of positives and P batch positions
of negatives.

Hard negatives skip the e-1 most similar in-batch samples, where
e = ceil(B / Ct) estimates how many same-class samples a batch holds besides
the anchor; the next n_pairs samples down the ranking are the negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consensus import MemoryBank, nearest_bank_indices
from .numerics import l2_normalize_rows


@dataclass
class PairSet:
    positives: np.ndarray  # (B, P) bank indices (dataset level)
    negatives: np.ndarray  # (B, P) in-batch positions (batch level)

    def __len__(self) -> int:
        return self.positives.shape[0]


def mine_pairs(
    bank: MemoryBank,
    batch_features: np.ndarray,
    batch_indices: np.ndarray,
    n_pairs: int,
    ct: int,
) -> PairSet:
    """Positives and negatives of every anchor in the batch, row i for the
    anchor at batch position i; batch_features are the batch's unit rows.

    Positives are the anchor's n_pairs nearest bank entries (self slot
    excluded), identical to the local-consensus neighbor rule. Negatives rank
    the other in-batch samples by live cosine similarity (descending, ties to
    the smaller position), skip the first e-1, then take n_pairs entries,
    wrapping around the ranking when it is shorter than e-1+n_pairs.
    """
    unit = np.asarray(batch_features, dtype=np.float64)
    b = unit.shape[0]
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    if b - 1 < n_pairs:
        raise ValueError("batch too small for negative mining")

    positives = nearest_bank_indices(bank, unit, n_pairs, batch_indices)

    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    ranking = np.argsort(-sims, axis=1, kind="stable")[:, : b - 1]

    skip = math.ceil(b / ct) - 1
    picks = (skip + np.arange(n_pairs)) % (b - 1)
    return PairSet(positives=positives, negatives=ranking[:, picks])


def loss_contrastive(
    batch_features: np.ndarray,
    pairs: PairSet,
    bank: MemoryBank,
) -> tuple[float, np.ndarray]:
    """Mean over anchors of sum(neg cosines) - sum(pos cosines).

    batch_features are the raw live rows: the gradient divides by each anchor's
    norm. Positive features are bank rows (stored unit-norm), negative features
    live batch rows; both sides are stop-gradient constants, so the returned
    per-anchor gradient (w.r.t. the anchor's live feature, not divided by the
    batch size) is the only gradient path.
    """
    batch_features = np.asarray(batch_features, dtype=np.float64)
    unit = l2_normalize_rows(batch_features)
    norms = np.linalg.norm(batch_features, axis=1)
    neg = unit[pairs.negatives]               # (B, P, d)
    pos = bank.features[pairs.positives]      # (B, P, d)
    neg_cos = np.einsum("bpd,bd->bp", neg, unit)
    pos_cos = np.einsum("bpd,bd->bp", pos, unit)
    per_anchor = neg_cos.sum(axis=1) - pos_cos.sum(axis=1)
    # d cos(a, o) / d a = (o_unit - cos * a_unit) / |a|, summed over pairs
    d_anchor = (neg.sum(axis=1) - pos.sum(axis=1) - per_anchor[:, None] * unit) / norms[:, None]
    return float(per_anchor.sum()) / len(pairs), d_anchor
