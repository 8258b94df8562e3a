"""K-means, silhouette scores, and adaptive estimation of the target class count.

Distances are plain Euclidean; pipeline callers pass L2-normalized features so
this is monotone with cosine distance.

K-means runs all restarts of a call as one batched Lloyd loop. Points are
ranked against centroids by the Gram form of the squared distance,
|x|^2 - 2 x.c + |c|^2, from one matmul. A row whose best two Gram values lie
within a rounding bound is re-ranked with the exact difference formula
|x - c|^2, so every assignment, ties included, is the one that formula gives.
Inertia uses the difference formula on the assigned pairs only, and centroid
updates sum each cluster in row order, bit for bit as a per-cluster mean does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .numerics import Rng, l2_normalize_rows

SILHOUETTE_SUBSAMPLE = 2048

# Gram values whose gap is at most this times (|x|^2 + max |c|^2) are re-ranked
# exactly. Either formula's rounding error is a few d * 1e-16 of that scale, so
# the bound holds with a wide margin for any d below 10^5.
_TIE_RTOL = 1e-9


@dataclass
class KMeansResult:
    centroids: np.ndarray   # (k, d)
    assignment: np.ndarray  # (n,) int
    inertia: float


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared distances from the differences; (n, k, d) work."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _flat_clusters(assignment: np.ndarray, k: int) -> np.ndarray:
    """(r, n) per-restart cluster indices as one flat index into r * k clusters."""
    return (assignment + k * np.arange(assignment.shape[0])[:, None]).ravel()


def _own_sq_dists(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its assigned centroid, for every
    restart: (r, k, d) centroids and (r, n) assignment give (r, n). The bits
    equal those of _sq_dists at the assigned column."""
    r, k, d = centroids.shape
    n = points.shape[0]
    # One (r * n, d) buffer, reused in place: fresh large temporaries cost
    # more in page faults than the arithmetic on them.
    diff = np.take(centroids.reshape(r * k, d), _flat_clusters(assignment, k), axis=0).reshape(r, n, d)
    np.subtract(points, diff, out=diff)
    diff = diff.reshape(r * n, d)
    return np.einsum("nd,nd->n", diff, diff).reshape(r, n)


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid, ties to the smaller index, for every
    restart: (r, k, d) centroids give an (r, n) assignment.

    Rows are ranked by |c|^2 - 2 x.c, the Gram form without |x|^2, which is
    common to a row. A row with a second value within the rounding bound of
    its best, or with a NaN, is re-ranked with the exact difference formula.
    """
    r, k, d = centroids.shape
    n = points.shape[0]
    if k == 1:
        return np.zeros((r, n), dtype=np.int64)
    c_sq = np.einsum("rkd,rkd->rk", centroids, centroids)
    gram = ((-2.0 * centroids).reshape(r * k, d) @ points.T).reshape(r, k, n)
    gram += c_sq[:, :, None]
    best = gram.min(axis=1)
    assignment = np.argmax(gram == best[:, None, :], axis=1)
    best += _TIE_RTOL * (sq_norms + c_sq.max(axis=1)[:, None])
    near = np.count_nonzero(gram <= best[:, None, :], axis=1) != 1  # NaN rows count 0
    for ri in np.flatnonzero(near.any(axis=1)):
        rows = np.flatnonzero(near[ri])
        assignment[ri, rows] = np.argmin(_sq_dists(points[rows], centroids[ri]), axis=1)
    return assignment


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
        own = _own_sq_dists(points, centroids[None], assignment[None])[0]
        own[used] = -np.inf
        for empty in empties:
            far = int(np.argmax(own))
            centroids[empty] = points[far]
            assignment[far] = empty
            used[far] = True
            own[far] = -np.inf


def _assign(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign every restart's points, repair its empty clusters (centroids are
    updated in place) and return the (r, n) assignment and (r,) inertia."""
    r, k, _ = centroids.shape
    assignment = _nearest(points, sq_norms, centroids)
    counts = np.bincount(_flat_clusters(assignment, k), minlength=r * k).reshape(r, k)
    for ri in np.flatnonzero((counts == 0).any(axis=1)):
        _repair_empty(points, centroids[ri], assignment[ri])
    return assignment, _own_sq_dists(points, centroids, assignment).sum(axis=1)


def _cluster_means(points: np.ndarray, columns: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Every restart's centroid update: (r, n) assignment gives (r, k, d) means
    with the bits of points[assignment[ri] == c].mean(axis=0). columns holds
    points.T repeated once per restart.

    NumPy sums the rows of an (m, d > 1) block in order from 0.0, as bincount
    sums each bin; a single column it sums pairwise, so d = 1 sums per cluster.
    """
    r, n = assignment.shape
    d = points.shape[1]
    flat = _flat_clusters(assignment, k)
    counts = np.bincount(flat, minlength=r * k)
    if d == 1:
        sums = np.array([points[assignment[ri] == c].sum(axis=0) for ri in range(r) for c in range(k)])
    else:
        sums = np.stack([np.bincount(flat, weights=col[: r * n], minlength=r * k) for col in columns], axis=1)
    return (sums / counts[:, None]).reshape(r, k, d)


def kmeans(points: np.ndarray, k: int, rng: Rng, max_iter: int = 100, tol: float = 1e-6,
           n_init: int = 10) -> KMeansResult:
    """Best of n_init k-means++ restarts, deterministic given the rng.

    Assignment ties go to the smaller cluster index; empty clusters are
    repaired by farthest-point re-seeding. Inertia must not increase across a
    run's iterations (RuntimeError otherwise); the restart with the lowest
    final inertia wins (first on ties).

    All seeds are drawn first; Lloyd steps draw nothing, so the rng stream is
    that of running the restarts one after another. The restarts then run as
    one batch, each leaving it once its largest centroid shift is below tol.
    Assignments use the Gram ranking with an exact re-rank of near-ties (see
    the module docstring), so results are bit for bit those of running each
    restart alone with exact distances.
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
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")

    centroids = np.stack([_pp_seed(points, k, rng) for _ in range(n_init)])
    sq_norms = np.einsum("nd,nd->n", points, points)
    columns = np.tile(points.T, (1, n_init))
    prev_inertia = np.full(n_init, np.inf)
    active = np.arange(n_init)
    for _ in range(max_iter):
        current = centroids[active]
        assignment, inertia = _assign(points, sq_norms, current)
        grew = np.flatnonzero(inertia > prev_inertia[active] * (1.0 + 1e-12) + 1e-12)
        if grew.size:
            ri = grew[0]
            raise RuntimeError(
                f"k-means inertia increased: {float(prev_inertia[active[ri]])!r} -> {float(inertia[ri])!r}"
            )
        prev_inertia[active] = inertia

        updated = _cluster_means(points, columns, assignment, k)
        shift = np.max(np.linalg.norm(updated - current, axis=2), axis=1)
        centroids[active] = updated
        active = active[~(shift < tol)]
        if active.size == 0:
            break

    assignment, inertia = _assign(points, sq_norms, centroids)
    best = int(np.argmin(inertia))  # first restart on ties
    return KMeansResult(
        centroids=centroids[best].copy(), assignment=assignment[best].copy(), inertia=float(inertia[best])
    )


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

    rows = np.arange(n)
    own_counts = counts[own_col]
    # Self distance is 0, excluded by the divisor; singletons score 0 below.
    a = sums[rows, own_col] / np.maximum(own_counts - 1, 1)
    means = sums / counts
    means[rows, own_col] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    return np.divide(b - a, denom, out=np.zeros(n), where=(own_counts > 1) & (denom != 0.0))


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
