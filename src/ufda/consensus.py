"""Memory bank over the target set and local k-NN consensus targets.

The bank stores one (unit-norm feature, probability row) snapshot per target
sample, indexed by dataset position; the ct sweep clusters the rows bank_init
stores, which adaptation then refreshes. Local targets average the probability
rows of each unit query row's cosine nearest neighbors, always excluding the
query's own bank slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdaptModel, BatchForward, forward_batch
from .numerics import l2_normalize_rows


@dataclass
class MemoryBank:
    features: np.ndarray  # (N_t, d_feat), unit rows
    probs: np.ndarray     # (N_t, C_s)

    def __len__(self) -> int:
        return self.features.shape[0]


def bank_init(model: AdaptModel, target_inputs: np.ndarray) -> MemoryBank:
    """Full forward pass over the target inputs, stored in dataset order."""
    target_inputs = np.asarray(target_inputs, dtype=np.float64)
    if target_inputs.shape[0] == 0:
        raise ValueError("cannot build a memory bank for an empty target set")
    fwd = forward_batch(model, target_inputs)
    return MemoryBank(features=l2_normalize_rows(fwd.features), probs=fwd.probs.copy())


def bank_update(bank: MemoryBank, batch_indices: np.ndarray, fresh: BatchForward) -> None:
    """Overwrite the given slots with fresh features/probs."""
    idx = np.asarray(batch_indices)
    if idx.size and (idx.min() < 0 or idx.max() >= len(bank)):
        raise IndexError("bank index out of range")
    if idx.size:
        bank.features[idx] = l2_normalize_rows(fresh.features)
        bank.probs[idx] = fresh.probs


def nearest_bank_indices(
    bank: MemoryBank,
    query_features: np.ndarray,
    k: int,
    self_indices: np.ndarray,
) -> np.ndarray:
    """(B, k) bank indices of each unit query row's cosine nearest neighbors.

    self_indices[i] is query i's own bank slot, always excluded; it must be a
    (B,) integer array of valid slots, and the queries must be finite. Row i
    lists its neighbors by descending similarity, ties toward the smaller bank
    index: the k-prefix of a stable descending sort. They are picked in k
    rounds of row-wise argmax (which returns the first maximum), each pick
    then masked to -inf, at O(k*B*N) instead of a sort's O(B*N*log N). That
    beats the sort up to k of about 200 for B = 64 and N from 600 to 6000; the
    pipeline ranks with k = k_neighbors and k = n_pairs, both 4 by default.
    """
    if not 1 <= k < len(bank):
        raise ValueError(f"neighbor count {k} out of range [1, {len(bank) - 1}]")
    queries = np.asarray(query_features, dtype=np.float64)
    if not np.all(np.isfinite(queries)):
        raise ValueError("query features must be finite")
    self_indices = np.asarray(self_indices)
    b = queries.shape[0]
    if self_indices.shape != (b,) or not np.issubdtype(self_indices.dtype, np.integer):
        raise ValueError(f"self_indices must be a ({b},) integer array")
    if b and (self_indices.min() < 0 or self_indices.max() >= len(bank)):
        raise ValueError(f"self_indices out of range [0, {len(bank) - 1}]")
    sims = queries @ bank.features.T
    rows = np.arange(b)
    sims[rows, self_indices] = -np.inf
    neighbors = np.empty((b, k), dtype=np.intp)
    for j in range(k):
        neighbors[:, j] = np.argmax(sims, axis=1)
        sims[rows, neighbors[:, j]] = -np.inf
    return neighbors


def local_targets(
    bank: MemoryBank,
    query_features: np.ndarray,
    k: int,
    self_indices: np.ndarray,
) -> np.ndarray:
    """Consensus rows l^i: mean probability row of each unit query row's k neighbors."""
    neighbors = nearest_bank_indices(bank, query_features, k, self_indices)
    return bank.probs[neighbors].mean(axis=1)
