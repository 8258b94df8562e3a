"""One-vs-all global clustering pseudo-labeler with confidence-based
source-private suppression.

Per class c: the top-K most confident target samples form the positive set
(mean feature = positive prototype), the remainder is clustered into M
negative prototypes via k-means, and a sample is pseudo-labeled c when its
suppressed positive similarity beats every negative similarity. Samples that
fire for no class get a uniform row; multi-class firings keep the class with
the best suppressed score.

K is the same for every class, so every negative set has N - K rows, one
k-means call clusters their (C, N - K, d) stack with the bits of a call per
class, and the prototypes of all classes are three arrays: positives (C, d),
negatives (C, M, d) and suppression weights (C,). The pipeline sets M = C_t
and K = floor(N / C_t) with 2 <= C_t < N, so 1 <= M <= N - K always holds.
Both functions take L2-normalized feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .numerics import Rng, l2_normalize_rows


@dataclass
class Prototypes:
    positives: np.ndarray   # (C, d) mean of each class's top-K features
    negatives: np.ndarray   # (C, M, d) k-means centroids of each class's rest
    epsilon: np.ndarray     # (C,) suppression weights in [rho, 1]


@dataclass
class PseudoLabels:
    rows: np.ndarray         # (N, C_s), each row exactly one-hot or uniform
    labels: np.ndarray       # (N,), class index or -1 for a uniform row
    fired: np.ndarray        # (N, C_s) bool, classes that passed the firing rule


def topk_count(n_target: int, ct: int) -> int:
    """Positive-set size per class: floor(N_t / C_t), at least 1."""
    return max(1, n_target // ct)


def build_all_prototypes(
    features: np.ndarray,
    probs: np.ndarray,
    k: int,
    m: int,
    rho: float,
    rng: Rng,
) -> Prototypes:
    """Positive/negative prototypes and suppression weights for every class.

    features must be L2-normalized rows. Class c's positive set is the k
    largest column-c probabilities (ties: smaller index); the rest, in
    dataset order, is clustered into m negative prototypes by one stacked
    k-means call, bit for bit one call per class on its own rng sub-stream,
    split in class order; m must lie in [1, N - k].
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    features = np.asarray(features, dtype=np.float64)
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    if not 1 <= k <= n:
        raise ValueError(f"top-k count {k} out of range [1, {n}]")
    if not 1 <= m <= n - k:
        raise ValueError(f"negative prototype count {m} out of range [1, {n - k}]")

    order = np.argsort(-probs.T, axis=1, kind="stable")  # (C, N), one ranking per class
    top = order[:, :k]
    rest = np.sort(order[:, k:], axis=1)
    positives = features[top].mean(axis=1)
    confidence = probs[top, np.arange(n_classes)[:, None]].mean(axis=1)
    epsilon = rho + (1.0 - rho) * confidence

    clusterings = kmeans(features[rest], m, [rng.split() for _ in range(n_classes)])
    negatives = np.stack([clustering.centroids for clustering in clusterings])
    return Prototypes(positives=positives, negatives=negatives, epsilon=epsilon)


def assign_pseudo_labels(features: np.ndarray, prototypes: Prototypes) -> PseudoLabels:
    """Nearest-centroid firing rule with suppression and ambiguity filter.

    features must be L2-normalized rows. Class c fires for a sample when
    eps_c * S(g, p_c) >= max_i S(g, n_c^i) (ties count as positive). Among
    fired classes the one with the largest suppressed positive similarity
    wins (ties: smallest class index); samples with no fired class get the
    uniform row.
    """
    feat_unit = np.asarray(features, dtype=np.float64)
    n = feat_unit.shape[0]
    n_classes, m, d = prototypes.negatives.shape

    pos_unit = l2_normalize_rows(prototypes.positives)
    pos_scores = prototypes.epsilon * np.clip(feat_unit @ pos_unit.T, -1.0, 1.0)
    neg_unit = l2_normalize_rows(prototypes.negatives.reshape(n_classes * m, d))
    neg_best = np.clip(feat_unit @ neg_unit.T, -1.0, 1.0).reshape(n, n_classes, m).max(axis=2)

    fired = pos_scores >= neg_best
    masked = np.where(fired, pos_scores, -np.inf)
    winners = np.argmax(masked, axis=1)  # first max -> smallest class on ties

    rows = np.full((n, n_classes), 1.0 / n_classes)
    labels = np.full(n, -1, dtype=np.int64)
    hit = fired.any(axis=1)
    rows[hit] = 0.0
    rows[hit, winners[hit]] = 1.0
    labels[hit] = winners[hit]
    return PseudoLabels(rows=rows, labels=labels, fired=fired)
