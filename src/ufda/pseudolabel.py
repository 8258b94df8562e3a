"""One-vs-all global clustering pseudo-labeler with confidence-based
source-private suppression.

Per class c: the top-K most confident target samples form the positive set
(mean feature = positive prototype), the remainder is clustered into M
negative prototypes via k-means, and a sample is pseudo-labeled c when its
suppressed positive similarity beats every negative similarity. Samples that
fire for no class get a uniform row; multi-class firings keep the class with
the best suppressed score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .numerics import Rng, l2_normalize_rows


@dataclass
class ClassPrototypes:
    class_index: int
    positive: np.ndarray    # (d,) mean of the top-K features
    negatives: np.ndarray   # (M, d) k-means centroids of the rest
    epsilon: float          # suppression weight in [rho, 1]


@dataclass
class PseudoLabels:
    rows: np.ndarray         # (N, C_s), each row exactly one-hot or uniform
    labels: np.ndarray       # (N,), class index or -1 for a uniform row
    fired: np.ndarray        # (N, C_s) bool, classes that passed the firing rule


def topk_count(n_target: int, ct: int) -> int:
    """Positive-set size per class: floor(N_t / C_t), at least 1."""
    return max(1, n_target // ct)


def select_topk(probs: np.ndarray, c: int, k: int) -> np.ndarray:
    """Indices of the k largest column-c probabilities (ties: smaller index)."""
    probs = np.asarray(probs)
    n = probs.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"top-k count {k} out of range [1, {n}]")
    order = np.argsort(-probs[:, c], kind="stable")
    return order[:k]


def build_prototypes(
    features: np.ndarray,
    probs: np.ndarray,
    c: int,
    k: int,
    m: int,
    rho: float,
    rng: Rng,
) -> ClassPrototypes:
    """Positive/negative prototypes and suppression weight for one class.

    features must be L2-normalized rows. m (the negative prototype count)
    shrinks to the negative-set size with a warning when there are too few
    negatives for the requested k-means.
    """
    if m < 1:
        raise ValueError("need at least one negative prototype")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    features = np.asarray(features, dtype=np.float64)
    top = select_topk(probs, c, k)
    mask = np.ones(features.shape[0], dtype=bool)
    mask[top] = False
    neg_idx = np.flatnonzero(mask)

    positive = features[top].mean(axis=0)
    epsilon = rho + (1.0 - rho) * float(np.mean(probs[top, c]))

    if neg_idx.shape[0] == 0:
        negatives = np.empty((0, features.shape[1]))
    else:
        m_eff = min(m, neg_idx.shape[0])
        if m_eff < m:
            warnings.warn(
                f"class {c}: negative set has {neg_idx.shape[0]} samples, "
                f"reducing negative prototypes from {m} to {m_eff}",
                stacklevel=2,
            )
        negatives = kmeans(features[neg_idx], m_eff, rng).centroids
    return ClassPrototypes(class_index=c, positive=positive, negatives=negatives, epsilon=epsilon)


def build_all_prototypes(
    features: np.ndarray,
    probs: np.ndarray,
    k: int,
    m: int,
    rho: float,
    rng: Rng,
) -> list[ClassPrototypes]:
    """Prototypes for every class, each on its own rng sub-stream."""
    n_classes = probs.shape[1]
    return [build_prototypes(features, probs, c, k, m, rho, rng.split()) for c in range(n_classes)]


def assign_pseudo_labels(features: np.ndarray, prototypes: list[ClassPrototypes]) -> PseudoLabels:
    """Nearest-centroid firing rule with suppression and ambiguity filter.

    Class c fires for a sample when eps_c * S(g, p_c) >= max_i S(g, n_c^i)
    (ties count as positive). Among fired classes the one with the largest
    suppressed positive similarity wins (ties: smallest class index); samples
    with no fired class get the uniform row.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    n_classes = len(prototypes)
    feat_unit = l2_normalize_rows(features)

    pos_scores = np.empty((n, n_classes))
    neg_best = np.empty((n, n_classes))
    for c, proto in enumerate(prototypes):
        pos_norm = float(np.linalg.norm(proto.positive))
        if pos_norm == 0.0:
            raise ValueError("degenerate feature")
        pos_sim = np.clip(feat_unit @ (proto.positive / pos_norm), -1.0, 1.0)
        pos_scores[:, c] = proto.epsilon * pos_sim
        if proto.negatives.shape[0] == 0:
            neg_best[:, c] = -np.inf
        else:
            neg_unit = l2_normalize_rows(proto.negatives)
            neg_best[:, c] = np.clip(feat_unit @ neg_unit.T, -1.0, 1.0).max(axis=1)

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
