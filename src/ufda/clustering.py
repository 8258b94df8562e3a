"""K-means, silhouette scores, and adaptive estimation of the target class count.

Distances are plain Euclidean; pipeline callers pass L2-normalized features so
this is monotone with cosine distance.

K-means runs all restarts of a call as one batched Lloyd loop. Points are
ranked against centroids by the Gram form of the squared distance,
|x|^2 - 2 x.c + |c|^2, from one matmul. A row whose best two Gram values lie
within a rounding bound is re-ranked with the exact difference formula
|x - c|^2, so every assignment, ties included, is the one that formula gives.
The check that inertia does not increase sums the best Gram values and uses
the difference formula only where their rounding slack leaves it open; that
formula gives every restart's inertia once, after the loop. Centroid updates
are SciPy's compiled row-order update, bit for bit a per-cluster mean for
d > 1; d = 1 is summed per cluster, as NumPy sums one column pairwise.

k-means++ seeding runs all restarts in lock-step on n_init * k raw draws,
taken up front in the order that seeding one restart at a time reads them;
each round's D^2 to the new picks comes from one Gram product, clipped at 0.
First picks, and picks whose D^2 total or threshold the rounding bound cannot
vouch for, are made with the exact difference formula. A draw that randint
rejects is dropped, one more is read, and the picks are made again.

A restart is retired once an assignment needs no empty-cluster repair and
equals the one before it: its centroids are the means of that assignment, so
another update would return them bit for bit and the final re-assignment would
return the same assignment and inertia. Only the other restarts, stopped by the
centroid shift or by KMEANS_MAX_ITER, are re-assigned after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster._vq import update_cluster_means
from scipy.spatial.distance import cdist

from .numerics import Rng, l2_normalize_rows

SILHOUETTE_SUBSAMPLE = 2048
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6

# Gram values whose gap is at most this times (|x|^2 + max |c|^2) are re-ranked
# exactly. Either formula's rounding error is a few d * 1e-16 of that scale, so
# the bound holds with a wide margin for any d below 10^5.
#
# Seeding uses the same bound summed over the rows: tol = _TIE_RTOL * S with
# S = sum_x (|x|^2 + max |x|^2) (centroids are points, so max |c|^2 <= max |x|^2).
# Each form's D^2 entry is within 2 (d + 2) u (|x|^2 + max |x|^2) of the true
# value (u = 2^-53), and a running sum or total of n entries, all below
# 2 (|x|^2 + max |x|^2), adds at most 2 n u S. So the two forms' running sums,
# totals and thresholds differ by less than 8 (d + n + 3) u S, which is below
# tol for any d + n under 10^6, as long as nothing overflows (a restart with
# an infinite or NaN total picks exactly). A total above tol is then positive
# in both forms, and a threshold more than tol from every running-sum entry
# lands between the same two entries in both.
#
# A restart's Gram inertia, its best Gram values plus sum |x|^2, is within
# (4 (d + 2) + 5 n) u S of its exact inertia: below _TIE_RTOL * S for any d + n
# under 10^6, and its slack is three times that.
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
    """(r, n) per-restart cluster indices as (r, n) flat indices into r * k clusters."""
    return assignment + k * np.arange(assignment.shape[0])[:, None]


def _own_sq_dists(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its assigned centroid, for every
    restart: (r, k, d) centroids and (r, n) assignment give (r, n). The bits
    equal those of _sq_dists at the assigned column."""
    r, k, d = centroids.shape
    # One (r, n, d) buffer, reused in place: fresh large temporaries cost
    # more in page faults than the arithmetic on them.
    diff = np.take(centroids.reshape(r * k, d), _flat_clusters(assignment, k), axis=0)
    np.subtract(points, diff, out=diff)
    return np.einsum("rnd,rnd->rn", diff, diff)


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of the nearest centroid, ties to the smaller index, for every
    restart: (r, k, d) centroids give an (r, n) assignment, (r,) Gram inertia
    and (r,) slack, within which that is the exact inertia (see _TIE_RTOL).

    Rows are ranked by |c|^2 - 2 x.c, the Gram form without |x|^2, which is
    common to a row. A row with one value within the rounding bound of its
    best takes that centroid; any other, NaN rows included, is re-ranked with
    the exact difference formula.
    """
    r, k, d = centroids.shape
    n = points.shape[0]
    c_sq = np.einsum("rkd,rkd->rk", centroids, centroids)
    gram = ((-2.0 * centroids).reshape(r * k, d) @ points.T).reshape(r, k, n)
    gram += c_sq[:, :, None]
    best = gram.min(axis=1)
    c_max = c_sq.max(axis=1)
    within = (gram <= (best + _TIE_RTOL * (sq_norms + c_max[:, None]))[:, None, :]).view(np.uint8)
    labels = np.arange(k, dtype=np.min_scalar_type(k))  # a count up to k fits too
    assignment = np.einsum("rkn,k->rn", within, labels).astype(np.intp)  # right where one is within
    near = within.sum(axis=1, dtype=labels.dtype) != 1  # NaN rows count 0
    for ri in np.flatnonzero(near.any(axis=1)):
        rows = np.flatnonzero(near[ri])
        assignment[ri, rows] = np.argmin(_sq_dists(points[rows], centroids[ri]), axis=1)
    sq_total = sq_norms.sum()
    return assignment, best.sum(axis=1) + sq_total, 3.0 * _TIE_RTOL * (sq_total + n * c_max)


def _exact_pick(points: np.ndarray, picks: np.ndarray, draw: int) -> int | None:
    """One restart's next k-means++ pick from its earlier picks (row indices)
    and one raw draw, by the exact difference formula: D^2-weighted, or where
    there are no picks or the D^2 total is 0, randint's (None if it rejects)."""
    n = points.shape[0]
    total = 0.0
    if len(picks):
        d2 = np.min([np.sum((points - points[p]) ** 2, axis=1) for p in picks], axis=0)
        total = float(d2.sum())
    if total <= 0.0:
        return None if draw >= (1 << 64) - (1 << 64) % n else draw % n
    idx = int(np.searchsorted(np.cumsum(d2), (draw >> 11) * 2.0**-53 * total, side="right"))
    return min(idx, n - 1)


def _lockstep_picks(points: np.ndarray, sq_norms: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The k-means++ picks of every restart, (r, k) row indices from (r, k) raw
    draws, with one Gram product per round, and the flat index of the earliest
    draw randint rejects (None if none is). First picks, and the picks the
    rounding guard (see _TIE_RTOL) cannot vouch for, are made by _exact_pick."""
    n = points.shape[0]
    r, k = draws.shape
    chosen = np.zeros((r, k), dtype=np.int64)
    fractions = (draws >> 11).astype(np.float64) * 2.0**-53
    tol = _TIE_RTOL * (sq_norms.sum() + n * sq_norms.max())
    d2 = np.full((r, n), np.inf)
    unsure = np.ones(r, dtype=bool)  # every first pick is exact
    rejected = []
    for j in range(k):
        if j:
            picked = chosen[:, j - 1]
            dist = sq_norms - 2.0 * (points[picked] @ points.T) + sq_norms[picked][:, None]
            np.minimum(d2, np.maximum(dist, 0.0, out=dist), out=d2)
            total = d2.sum(axis=1)
            running = np.cumsum(d2, axis=1)
            threshold = fractions[:, j] * total
            picks = np.count_nonzero(running <= (threshold + tol)[:, None], axis=1)
            unsure = ~(np.isfinite(total) & (total > tol))
            unsure |= picks != np.count_nonzero(running <= (threshold - tol)[:, None], axis=1)
            chosen[:, j] = np.minimum(picks, n - 1)
        for ri in np.flatnonzero(unsure):
            pick = _exact_pick(points, chosen[ri, :j], int(draws[ri, j]))
            if pick is None:
                rejected.append(ri * k + j)  # later picks of this restart are void
            else:
                chosen[ri, j] = pick
    return chosen, min(rejected, default=None)


def _seed_restarts(points: np.ndarray, sq_norms: np.ndarray, k: int, n_init: int, rng: Rng) -> np.ndarray:
    """(n_init, k, d) seeds, and the rng state, of k-means++ seeding the restarts
    one after another: each pick reads one raw draw, or more where randint rejects."""
    draws = [rng.next_u64() for _ in range(n_init * k)]
    while True:
        chosen, rejected = _lockstep_picks(points, sq_norms, np.array(draws, dtype=np.uint64).reshape(n_init, k))
        if rejected is None:
            return points[chosen]
        del draws[rejected]  # the picks before it read the same draws again
        draws.append(rng.next_u64())


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


def _assign(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Assign every restart's points and repair its empty clusters (centroids
    are updated in place). Returns the (r, n) assignment and its flat index,
    _nearest's inertia and slack (exact, and 0, where repaired) and the repairs."""
    r, k, _ = centroids.shape
    assignment, inertia, slack = _nearest(points, sq_norms, centroids)
    flat = _flat_clusters(assignment, k)
    repaired = (np.bincount(flat.ravel(), minlength=r * k).reshape(r, k) == 0).any(axis=1)
    for ri in np.flatnonzero(repaired):
        _repair_empty(points, centroids[ri], assignment[ri])
        flat[ri] = assignment[ri] + k * ri
        inertia[ri], slack[ri] = _own_sq_dists(points, centroids[ri : ri + 1], assignment[ri : ri + 1]).sum(), 0.0
    return assignment, flat, inertia, slack, repaired


def _check_inertia(points: np.ndarray, current: np.ndarray, assignment: np.ndarray, upper: np.ndarray,
                   prior: np.ndarray, previous: np.ndarray, lower: np.ndarray) -> None:
    """Raise if a restart's exact inertia under (current, assignment) passes
    (1 + 1e-12) times that under (prior, previous), plus 1e-12. They are
    computed only where upper, above the first, and lower, below the second,
    leave that open."""
    bound = lower * (1.0 + 1e-12) + 1e-12
    unsure = np.flatnonzero(~((upper <= bound) & (bound < np.inf)))  # NaN or inf is never sure
    if unsure.size:
        now = _own_sq_dists(points, current[unsure], assignment[unsure]).sum(axis=1)
        last = _own_sq_dists(points, prior[unsure], previous[unsure]).sum(axis=1)
        grew = np.flatnonzero(now > last * (1.0 + 1e-12) + 1e-12)
        if grew.size:
            raise RuntimeError(f"k-means inertia increased: {float(last[grew[0]])!r} -> {float(now[grew[0]])!r}")


def _settled(assignment: np.ndarray, previous: np.ndarray, repaired: np.ndarray) -> np.ndarray:
    """(r,) mask of the converged restarts: their assignment needed no repair
    and equals the previous one, whose means their centroids already are."""
    return ~repaired & np.all(assignment == previous, axis=1)


def _cluster_means(rows: np.ndarray, flat: np.ndarray, k: int) -> np.ndarray:
    """Every restart's centroid update: (r, n) flat indices give (r, k, d) means
    with the bits of points[assignment[ri] == c].mean(axis=0); rows holds
    points once per restart. For d > 1 SciPy's compiled update sums each
    cluster's rows in order from 0.0, as NumPy sums an (m, d > 1) block; one
    column NumPy sums pairwise, so d = 1 sums each cluster by itself. The
    compiled routine trusts its labels (one below 0 writes outside its buffers),
    so they are checked first; an empty cluster raises instead of giving NaN.
    """
    r, n = flat.shape
    d = rows.shape[1]
    first = k * np.arange(r)  # restart ri's labels are first[ri] + [0, k)
    if not (np.all(flat.min(axis=1) >= first) and np.all(flat.max(axis=1) < first + k)):
        raise RuntimeError(f"k-means labels outside [0, {k})")
    if d > 1:
        means, has_members = update_cluster_means(rows[: r * n], flat.ravel(), r * k)
    else:
        counts = np.bincount(flat.ravel(), minlength=r * k)
        sums = np.array([rows[:n][flat[ri] == first[ri] + c].sum(axis=0) for ri in range(r) for c in range(k)])
        means, has_members = sums / np.maximum(counts, 1)[:, None], counts > 0
    if not np.all(has_members):
        raise RuntimeError("k-means update on an empty cluster")
    return means.reshape(r, k, d)


def kmeans(points: np.ndarray, k: int, rng: Rng, n_init: int = 10) -> KMeansResult:
    """Best of n_init k-means++ restarts, deterministic given the rng.

    Assignment ties go to the smaller cluster index; empty clusters are
    repaired by farthest-point re-seeding. Inertia must not increase across a
    run's iterations (RuntimeError otherwise); the restart with the lowest
    final inertia wins (first on ties).

    All seeds are picked first, in lock-step, with each pick the rounding
    guard flags made again exactly and each draw randint rejects dropped.
    Lloyd steps draw nothing, so the rng stream is that of running the
    restarts one after another. The restarts then run as one batch of at
    most KMEANS_MAX_ITER Lloyd steps, each leaving it once its largest
    centroid shift is below KMEANS_TOL or its assignment repeats. Assignments
    and the inertia check read the Gram values, exact only where their
    rounding leaves the outcome open (see the module docstring), so results
    and raised checks are bit for bit those of running each restart alone
    with exact distances.
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

    sq_norms = np.einsum("nd,nd->n", points, points)
    centroids = _seed_restarts(points, sq_norms, k, n_init, rng)
    rows = np.tile(points, (n_init, 1))
    lower = np.empty(n_init)  # at most each active restart's last exact inertia, where finite
    assignment_of = np.empty((n_init, n), dtype=np.int64)
    retired = np.zeros(n_init, dtype=bool)
    active = np.arange(n_init)
    previous = prior = None  # the active restarts' last assignment and centroids; seeds are means of none
    for _ in range(KMEANS_MAX_ITER):
        current = centroids[active]
        assignment, flat, inertia, slack, repaired = _assign(points, sq_norms, current)
        if previous is not None:
            _check_inertia(points, current, assignment, inertia + slack, prior, previous, lower[active])
            done = _settled(assignment, previous, repaired)
        lower[active] = inertia - slack
        if previous is not None and done.any():
            assignment_of[active[done]], retired[active[done]] = assignment[done], True
            active, current, assignment = active[~done], current[~done], assignment[~done]
            flat = _flat_clusters(assignment, k)
            if active.size == 0:
                break

        updated = _cluster_means(rows, flat, k)
        shift = np.max(np.linalg.norm(updated - current, axis=2), axis=1)
        centroids[active] = updated
        moving = ~(shift < KMEANS_TOL)
        active, previous, prior = active[moving], assignment[moving], current[moving]
        if active.size == 0:
            break

    rest = np.flatnonzero(~retired)
    if rest.size:
        final = centroids[rest]
        assignment_of[rest] = _assign(points, sq_norms, final)[0]
        centroids[rest] = final  # keep the repairs
    inertia_of = _own_sq_dists(points, centroids, assignment_of).sum(axis=1)
    best = int(np.argmin(inertia_of))  # first restart on ties
    return KMeansResult(
        centroids=centroids[best].copy(), assignment=assignment_of[best].copy(), inertia=float(inertia_of[best])
    )


def silhouette(dist: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Per-point silhouette s = (b - a) / max(a, b) of an assignment, from
    the (n, n) matrix of the points' pairwise Euclidean distances.

    a is the mean intra-cluster distance excluding self; b the smallest mean
    distance to another cluster. Singleton clusters and a = b = 0 give s = 0.
    """
    assignment = np.asarray(assignment)
    labels = np.unique(assignment)
    if labels.shape[0] < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    n = assignment.shape[0]

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

    Features are L2-normalized internally. The sweep works on one fixed
    uniform sample of at most SILHOUETTE_SUBSAMPLE rows: the candidates are
    clamped to its size, each candidate's k-means clusters it on a split
    sub-stream of the rng, and every candidate's silhouette reads its one
    distance matrix. Up to SILHOUETTE_SUBSAMPLE rows the sample is every row,
    so results equal those of the full sweep. Ties choose the smallest
    candidate. Done once per adaptation run and held fixed afterwards.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 4:
        raise ValueError("cluster-count estimation needs at least 4 points")
    sample = l2_normalize_rows(features)  # every row, so a degenerate one fails here
    if n > SILHOUETTE_SUBSAMPLE:
        sample = sample[rng.sample_without_replacement(n, SILHOUETTE_SUBSAMPLE)]
    cands = candidate_counts(n_source_classes, sample.shape[0])
    dist = cdist(sample, sample)  # full precision; the Gram-matrix shortcut loses ~1e-9

    # k-means repairs every empty cluster and k >= 2, so each silhouette sees
    # at least two clusters.
    means = [float(silhouette(dist, kmeans(sample, k, rng.split()).assignment).mean()) for k in cands]
    best = int(np.argmax(means))  # first max -> smallest candidate on ties
    return CtEstimate(candidates=cands, mean_silhouettes=means, chosen=cands[best])
