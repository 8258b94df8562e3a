"""K-means, silhouette scores, and adaptive estimation of the target class count.

Distances are plain Euclidean; pipeline callers pass L2-normalized features so
this is monotone with cosine distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .numerics import Rng, l2_normalize_rows

SILHOUETTE_SUBSAMPLE = 2048


@dataclass
class KMeansResult:
    centroids: np.ndarray   # (k, d)
    assignment: np.ndarray  # (n,) int
    inertia: float


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _pp_seed(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, then D^2-weighted picks."""
    n = points.shape[0]
    chosen = [rng.randint(n)]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.randint(n)  # all points coincide with chosen centroids
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _repair_empty(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> None:
    """Re-seed each empty cluster on the point farthest from its own centroid
    and force-assign that point there. Repairs run until no cluster is empty;
    force-assigned points are never stolen, so the loop terminates (k <= n)."""
    n, k = points.shape[0], centroids.shape[0]
    used = np.zeros(n, dtype=bool)
    while True:
        counts = np.bincount(assignment, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        own = _sq_dists(points, centroids)[np.arange(n), assignment]
        own[used] = -np.inf
        for empty in empties:
            far = int(np.argmax(own))
            centroids[empty] = points[far]
            assignment[far] = empty
            used[far] = True
            own[far] = -np.inf


def kmeans(points: np.ndarray, k: int, rng: Rng, max_iter: int = 100, tol: float = 1e-6,
           n_init: int = 10) -> KMeansResult:
    """Best of n_init k-means++ restarts, deterministic given the rng.

    Assignment ties go to the smaller cluster index; empty clusters are
    repaired by farthest-point re-seeding. Inertia must not increase across a
    run's iterations (RuntimeError otherwise); the restart with the lowest
    final inertia wins (first on ties).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) matrix")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    if n_init < 1:
        raise ValueError("n_init must be positive")

    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _lloyd_run(points, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _lloyd_run(points: np.ndarray, k: int, rng: Rng, max_iter: int, tol: float) -> KMeansResult:
    n = points.shape[0]
    centroids = _pp_seed(points, k, rng)
    assignment = np.zeros(n, dtype=np.int64)
    prev_inertia = np.inf
    for _ in range(max_iter):
        d2 = _sq_dists(points, centroids)
        assignment = np.argmin(d2, axis=1)
        if np.any(np.bincount(assignment, minlength=k) == 0):
            _repair_empty(points, centroids, assignment)
            d2 = _sq_dists(points, centroids)

        inertia = float(d2[np.arange(n), assignment].sum())
        if inertia > prev_inertia * (1.0 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means inertia increased: {prev_inertia!r} -> {inertia!r}")
        prev_inertia = inertia

        new_centroids = np.empty_like(centroids)
        for ci in range(k):
            new_centroids[ci] = points[assignment == ci].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break

    assignment = np.argmin(_sq_dists(points, centroids), axis=1)
    if np.any(np.bincount(assignment, minlength=k) == 0):
        _repair_empty(points, centroids, assignment)
    inertia = float(_sq_dists(points, centroids)[np.arange(n), assignment].sum())
    return KMeansResult(centroids=centroids, assignment=assignment, inertia=inertia)


def silhouette(points: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Per-point silhouette s = (b - a) / max(a, b) under Euclidean distance.

    a is the mean intra-cluster distance excluding self; b the smallest mean
    distance to another cluster. Singleton clusters and a = b = 0 give s = 0.
    """
    points = np.asarray(points, dtype=np.float64)
    assignment = np.asarray(assignment)
    labels = np.unique(assignment)
    if labels.shape[0] < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    n = points.shape[0]
    # cdist keeps full precision; the Gram-matrix shortcut loses ~1e-9.
    dist = cdist(points, points)

    sums = np.stack([dist[:, assignment == lab].sum(axis=1) for lab in labels], axis=1)
    counts = np.array([(assignment == lab).sum() for lab in labels])
    own_col = np.searchsorted(labels, assignment)

    scores = np.zeros(n)
    for i in range(n):
        c = own_col[i]
        if counts[c] == 1:
            continue
        a = sums[i, c] / (counts[c] - 1)  # self distance is 0, excluded by the divisor
        other = np.delete(sums[i] / counts, c)
        b = float(other.min())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return scores


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class CtEstimate:
    candidates: list[int]
    mean_silhouettes: list[float]
    chosen: int


def candidate_counts(n_source_classes: int, n_points: int) -> list[int]:
    """Candidate cluster counts {Cs/3, Cs/2, Cs, 2Cs, 3Cs}, rounded half-up,
    clamped to [2, n_points - 1], deduplicated in ascending order."""
    raw = [
        _round_half_up(n_source_classes / 3.0),
        _round_half_up(n_source_classes / 2.0),
        n_source_classes,
        2 * n_source_classes,
        3 * n_source_classes,
    ]
    lo, hi = 2, n_points - 1
    clamped = [min(max(v, lo), hi) for v in raw]
    out: list[int] = []
    for v in clamped:
        if v not in out:
            out.append(v)
    return out


def estimate_ct(features: np.ndarray, n_source_classes: int, rng: Rng) -> CtEstimate:
    """Pick the candidate cluster count with the best mean silhouette.

    Features are L2-normalized internally; each candidate's k-means runs on a
    split sub-stream of the rng. Silhouette uses a fixed uniform subsample of
    at most 2048 points when the set is larger. Ties choose the smallest
    candidate. Done once per adaptation run and held fixed afterwards.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 4:
        raise ValueError("cluster-count estimation needs at least 4 points")
    cands = candidate_counts(n_source_classes, n)
    if not cands or cands[0] < 2:
        raise ValueError("no feasible candidate cluster counts")
    normed = l2_normalize_rows(features)

    if n > SILHOUETTE_SUBSAMPLE:
        sub = rng.sample_without_replacement(n, SILHOUETTE_SUBSAMPLE)
    else:
        sub = np.arange(n)

    means: list[float] = []
    for k in cands:
        result = kmeans(normed, k, rng.split())
        sub_assign = result.assignment[sub]
        if np.unique(sub_assign).shape[0] < 2:
            means.append(-1.0)  # subsample collapsed to one cluster
            continue
        means.append(float(silhouette(normed[sub], sub_assign).mean()))

    best = int(np.argmax(means))  # first max -> smallest candidate on ties
    return CtEstimate(candidates=cands, mean_silhouettes=means, chosen=cands[best])
