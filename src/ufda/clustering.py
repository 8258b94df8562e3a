"""K-means, silhouette scores, and adaptive estimation of the target class count.

Distances are plain Euclidean; pipeline callers pass unit rows, so this is
monotone with cosine distance.

K-means runs every restart of a call as one batched Lloyd loop, also those
of a (g, n, d) stack of point sets, each with its own rng and the bits of its
own call. Points are ranked against centroids by the Gram form of the squared
distance, |x|^2 - 2 x.c + |c|^2, from one matmul per set. A row whose best two
Gram values lie within a rounding bound is re-ranked with the exact
difference formula |x - c|^2, so every assignment, ties included, is the one
that formula gives. The check that inertia does not increase sums the best
Gram values and uses the difference formula only where their rounding slack
leaves it open; so does the choice of the best restart, after the loop.
Centroid updates are SciPy's compiled row-order update, bit for bit a
per-cluster mean for d > 1, one call per restart on its set's rows, untiled.
d = 1 is summed per cluster, as NumPy sums one column pairwise.

k-means++ seeding runs a set's restarts in lock-step on n_init * k raw draws,
taken up front in the order that seeding one restart at a time reads them.
Its D^2 comes from Gram products over the set's points centred once, whose
rounding scales with their spread. A draw that randint rejects is dropped, one
more is read, and the picks are made again.

Step 0 assigns each restart's seeds; a Lloyd step updates the centroids of
the restarts still running to the means of their last assignment and assigns
again. A restart ends in one of three ways. Its largest centroid shift is below
KMEANS_TOL, or the step is the last: that final assignment is not checked, as
in the per-restart reference (tests/helpers.py). Or an assignment that needs no
empty-cluster repair repeats the one before it, whose means its centroids are:
further steps would return both bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.cluster._vq import update_cluster_means
from scipy.spatial.distance import cdist

from .numerics import Rng, bounded_draws, scratch, units

SILHOUETTE_SUBSAMPLE = 2048
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6

# Gram values whose gap is at most this times (|x|^2 + max |c|^2) are re-ranked
# exactly. Either formula's rounding error is a few d * 1e-16 of that scale, so
# the bound holds with a wide margin for any d below 10^5.
#
# A restart's Gram inertia, its best Gram values plus sum |x|^2, is within
# (4 (d + 2) + 5 n) u S of its exact inertia (u = 2^-53, S = sum_x (|x|^2 +
# max |c|^2)): below _TIE_RTOL * S for any d + n under 10^6, and its slack is
# three times that.
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


def _runs(points: np.ndarray, sets: np.ndarray) -> list[tuple[np.ndarray, slice]]:
    """Each set's (n, d) points and the slice of its restarts in the sorted
    (r,) set indices of r restarts, for every set that has one."""
    bounds = np.searchsorted(sets, np.arange(points.shape[0] + 1)).tolist()
    return [(points[s], slice(a, b)) for s, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]


def _nearest(points: np.ndarray, sq_norms: np.ndarray, sets: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of the nearest centroid, ties to the smaller index, for every
    restart: (r, k, d) centroids of restarts on the (r,) sets give an (r, n)
    assignment, (r,) Gram inertia and (r,) slack, within which that is the
    exact inertia (see _TIE_RTOL).

    Rows are ranked by |c|^2 - 2 x.c, the Gram form without |x|^2, which is
    common to a row. A row with one value within the rounding bound of its
    best takes that centroid; any other, NaN rows included, is re-ranked with
    the exact difference formula.
    """
    r, k, d = centroids.shape
    n = points.shape[1]
    c_sq = np.einsum("rkd,rkd->rk", centroids, centroids)
    gram, scaled = scratch(r * k * n).reshape(r, k, n), -2.0 * centroids  # every row is written below
    for rows, run in _runs(points, sets):
        np.matmul(scaled[run].reshape(-1, d), rows.T, out=gram[run].reshape(-1, n))
    gram += c_sq[:, :, None]
    best = gram.min(axis=1)
    c_max = c_sq.max(axis=1)
    within = (gram <= (best + _TIE_RTOL * (sq_norms[sets] + c_max[:, None]))[:, None, :]).view(np.uint8)
    labels = np.arange(k, dtype=np.min_scalar_type(k))  # a count up to k fits too
    assignment = np.einsum("rkn,k->rn", within, labels).astype(np.intp)  # right where one is within
    near = within.sum(axis=1, dtype=labels.dtype) != 1  # NaN rows count 0
    for ri in np.flatnonzero(near.any(axis=1)):
        rows = np.flatnonzero(near[ri])
        assignment[ri, rows] = np.argmin(_sq_dists(points[sets[ri], rows], centroids[ri]), axis=1)
    sq_total = sq_norms.sum(axis=1)[sets]
    return assignment, best.sum(axis=1) + sq_total, 3.0 * _TIE_RTOL * (sq_total + n * c_max)


def _lockstep_picks(points: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The k-means++ picks of every restart, (r, k) row indices from (r, k) raw
    draws, and the flat index of the earliest draw randint rejects (None if
    none is). A pick is the count of running D^2 sums at or below the draw's
    fraction of the last; a first pick, or one whose D^2 total is not above 0
    (0 or NaN), is randint's from its draw."""
    n = points.shape[0]
    r, k = draws.shape
    chosen = np.zeros((r, k), dtype=np.int64)
    # Centred, D^2 is the same but its Gram rounding scales with the spread, not
    # with |x|^2; a power-of-two scale is exact and keeps every square finite.
    centred = points - points.mean(axis=0)
    centred = np.ldexp(centred, -np.frexp(np.abs(centred).max(initial=0.0))[1])
    sq_norms = np.einsum("nd,nd->n", centred, centred)
    fractions = units(draws)
    d2 = np.full((r, n), np.inf)
    total = np.zeros(r)  # every first pick is randint's
    rejected = []
    for j in range(k):
        if j:
            picked = chosen[:, j - 1]
            dist = sq_norms - 2.0 * (centred[picked] @ centred.T) + sq_norms[picked][:, None]
            np.minimum(d2, np.maximum(dist, 0.0, out=dist), out=d2)
            d2[np.arange(r), picked] = 0.0  # so a row is picked again only once no D^2 is above 0
            running = np.cumsum(d2, axis=1)
            total = running[:, -1]  # a threshold lies below it, in a row whose D^2 is above 0
            chosen[:, j] = np.minimum(np.count_nonzero(running <= (fractions[:, j] * total)[:, None], axis=1), n - 1)
        rows = np.flatnonzero(~(total > 0.0))
        if rows.size:
            chosen[rows, j], first = bounded_draws(draws[rows, j], n)
            if first is not None:  # later picks of its restart are void
                rejected.append(int(rows[first]) * k + j)
    return chosen, min(rejected, default=None)


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


def _assign(points: np.ndarray, sq_norms: np.ndarray, sets: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Assign every restart's points and repair its empty clusters (centroids
    are updated in place). Returns the (r, n) assignment, _nearest's inertia
    and slack (exact, and 0, where repaired) and the repairs."""
    r, k, _ = centroids.shape
    assignment, inertia, slack = _nearest(points, sq_norms, sets, centroids)
    repaired = (np.bincount(_flat_clusters(assignment, k).ravel(), minlength=r * k).reshape(r, k) == 0).any(axis=1)
    for ri in np.flatnonzero(repaired):
        rows = points[sets[ri]]
        _repair_empty(rows, centroids[ri], assignment[ri])
        inertia[ri], slack[ri] = _own_sq_dists(rows, centroids[ri : ri + 1], assignment[ri : ri + 1]).sum(), 0.0
    return assignment, inertia, slack, repaired


def _check_inertia(points: np.ndarray, sets: np.ndarray, current: np.ndarray, assignment: np.ndarray,
                   upper: np.ndarray, prior: np.ndarray, previous: np.ndarray, lower: np.ndarray) -> None:
    """Raise if a restart's exact inertia under (current, assignment) passes
    (1 + 1e-12) times that under (prior, previous), plus 1e-12; of several,
    the first restart of the lowest set. They are computed only where upper,
    above the first, and lower, below the second, leave that open."""
    bound = lower * (1.0 + 1e-12) + 1e-12
    unsure = np.flatnonzero(~((upper <= bound) & (bound < np.inf)))  # NaN or inf is never sure
    for rows, run in _runs(points, sets[unsure]):
        at = unsure[run]
        now = _own_sq_dists(rows, current[at], assignment[at]).sum(axis=1)
        last = _own_sq_dists(rows, prior[at], previous[at]).sum(axis=1)
        grew = np.flatnonzero(now > last * (1.0 + 1e-12) + 1e-12)
        if grew.size:
            raise RuntimeError(f"k-means inertia increased: {float(last[grew[0]])!r} -> {float(now[grew[0]])!r}")


def _settled(assignment: np.ndarray, previous: np.ndarray, repaired: np.ndarray) -> np.ndarray:
    """(r,) mask of the converged restarts: their assignment needed no repair
    and equals the previous one, whose means their centroids already are."""
    return ~repaired & np.all(assignment == previous, axis=1)


def _cluster_means(points: np.ndarray, sets: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Every restart's centroid update: the (r, n) assignment of restarts on
    the (r,) sets gives (r, k, d) means with the bits of
    points[set][assignment[ri] == c].mean(axis=0). For d > 1 SciPy's compiled
    update sums each cluster's rows in order from 0.0, as NumPy sums an (m, d > 1)
    block, one call per restart on its set's rows. One column NumPy sums
    pairwise, so d = 1 sums each cluster by itself. The compiled routine trusts
    its labels (one below 0 writes outside its buffers), so the assignment is
    checked first; an empty cluster raises instead of giving NaN.
    """
    r = assignment.shape[0]
    d = points.shape[2]
    if not (assignment.min() >= 0 and assignment.max() < k):
        raise RuntimeError(f"k-means labels outside [0, {k})")
    means, has_members = np.empty((r, k, d)), np.empty((r, k), dtype=bool)
    for ri, (s, labels) in enumerate(zip(sets.tolist(), assignment)):
        if d > 1:
            means[ri], has_members[ri] = update_cluster_means(points[s], labels, k)
        else:
            counts = np.bincount(labels, minlength=k)
            sums = np.array([points[s][labels == c].sum(axis=0) for c in range(k)])
            means[ri], has_members[ri] = sums / np.maximum(counts, 1)[:, None], counts > 0
    if not has_members.all():
        raise RuntimeError("k-means update on an empty cluster")
    return means


def kmeans(points: np.ndarray, k: int, rng: Rng | list[Rng], n_init: int = 10) -> KMeansResult | list[KMeansResult]:
    """Best of n_init k-means++ restarts of any finite points (unit rows in
    the pipeline), deterministic given the rng.

    points is one (n, d) set with one Rng, giving a KMeansResult, or a (g, n, d)
    stack with a list of g Rngs, giving a list of g, each set's result and
    rng end bit for bit those of clustering it alone.

    Assignment ties go to the smaller cluster index; empty clusters are
    repaired by farthest-point re-seeding. Inertia must not increase across a
    run's iterations (RuntimeError otherwise, with its set's message; of sets
    failing in one Lloyd step, the lowest set's); the restart with the lowest
    final inertia wins (first on ties).

    Each set's seeds are picked first, in lock-step, by k-means++ over centred
    Gram D^2, with each draw randint rejects dropped. Lloyd steps draw nothing,
    so an rng stream is that of seeding and running its set's restarts one
    after another. Step 0 assigns all restarts' seeds as one batch; each of at
    most KMEANS_MAX_ITER Lloyd steps updates and assigns those still running.
    A restart ends at a largest shift below KMEANS_TOL or at the last step,
    whose assignment is not checked, as in the reference, or at a repeat.
    Assignments and the inertia check read the Gram values, exact only where
    their rounding leaves the outcome open (see the module docstring), so from
    the same seeds, results and raised checks are bit for bit those of each
    restart alone on exact distances.
    """
    points = np.asarray(points, dtype=np.float64)
    stack, rngs = (points, list(rng)) if points.ndim == 3 else (points[None], [rng])
    if stack.ndim != 3:
        raise ValueError("points must be an (n, d) matrix or a (g, n, d) stack of them")
    g, n, d = stack.shape
    if g < 1 or len(rngs) != g:
        raise ValueError(f"need at least one point set and one rng per set: got {len(rngs)} rngs for {g} point sets")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    if n_init < 1:
        raise ValueError("n_init must be positive")
    if not np.all(np.isfinite(stack)):
        raise ValueError("points must be finite")
    # Every square, Gram value and inertia sum is at most n * d * (2 max |x|)^2,
    # up to rounding; where that overflows, reject the points before any of it.
    top = float(np.abs(stack).max(initial=0.0))
    if not 4.0 * n * d * top * top * (1.0 + 1e-6) <= sys.float_info.max:
        raise ValueError("points too large: their squared distances overflow float64")

    sq_norms = np.einsum("gnd,gnd->gn", stack, stack)
    sets = np.repeat(np.arange(g), n_init)  # the set of each restart
    picks = [r.accepted(n_init * k, lambda w: _lockstep_picks(x, w.reshape(n_init, k))) for x, r in zip(stack, rngs)]
    centroids = stack[sets[:, None], np.concatenate(picks)]
    assignment_of, inertia, slack, _ = _assign(stack, sq_norms, sets, centroids)  # step 0: the seeds'
    lower, upper = inertia - slack, inertia + slack  # around each restart's last exact inertia, where finite
    active = np.arange(g * n_init)
    for step in range(1, KMEANS_MAX_ITER + 1):
        current = centroids[active]
        updated = _cluster_means(stack, sets[active], assignment_of[active], k)
        ended = (np.max(np.linalg.norm(updated - current, axis=2), axis=1) < KMEANS_TOL) | (step == KMEANS_MAX_ITER)
        assignment, inertia, slack, repaired = _assign(stack, sq_norms, sets[active], updated)
        checked = np.flatnonzero(~ended)  # a final assignment is not checked
        at = active[checked]
        _check_inertia(stack, sets[at], updated[checked], assignment[checked], (inertia + slack)[checked],
                       current[checked], assignment_of[at], lower[at])
        ended[checked] = _settled(assignment[checked], assignment_of[at], repaired[checked])
        centroids[active], assignment_of[active] = updated, assignment  # with the repairs
        lower[active], upper[active] = inertia - slack, inertia + slack
        active = active[~ended]
        if active.size == 0:
            break

    results = []
    for rows, run in _runs(stack, sets):
        # The winner's exact inertia is at most every upper bound, so only
        # restarts whose lower bound is not above the smallest can win.
        open_ = run.start + np.flatnonzero(~(lower[run] > upper[run].min()))  # NaN leaves a restart open
        inertia_of = _own_sq_dists(rows, centroids[open_], assignment_of[open_]).sum(axis=1)
        best = open_[np.argmin(inertia_of)]  # first restart on ties
        results.append(KMeansResult(centroids[best].copy(), assignment_of[best].copy(), float(inertia_of.min())))
    return results if points.ndim == 3 else results[0]


def silhouette(dist: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Per-point silhouette s = (b - a) / max(a, b) of an assignment, from
    the (n, n) matrix of the points' pairwise Euclidean distances.

    a is the mean intra-cluster distance excluding self; b the smallest mean
    distance to another cluster. Singleton clusters and a = b = 0 give s = 0.
    """
    assignment = np.asarray(assignment)
    labels, own_col, counts = np.unique(assignment, return_inverse=True, return_counts=True)
    if labels.shape[0] < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    sums = np.stack([dist[:, assignment == lab].sum(axis=1) for lab in labels], axis=1)

    rows = np.arange(assignment.shape[0])
    own_counts = counts[own_col]
    # Self distance is 0, excluded by the divisor; singletons score 0 below.
    a = sums[rows, own_col] / np.maximum(own_counts - 1, 1)
    means = sums / counts
    means[rows, own_col] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    return np.divide(b - a, denom, out=np.zeros(rows.size), where=(own_counts > 1) & (denom != 0.0))


@dataclass
class CtEstimate:
    candidates: list[int]
    mean_silhouettes: list[float]
    chosen: int

    def lines(self) -> list[str]:
        """The sweep as text: a header, one candidate<TAB>mean_silhouette line
        per candidate, then chosen<TAB>count."""
        rows = [f"{c}\t{s!r}" for c, s in zip(self.candidates, self.mean_silhouettes)]
        return ["candidate\tmean_silhouette", *rows, f"chosen\t{self.chosen}"]


def candidate_counts(n_source_classes: int, n_points: int) -> list[int]:
    """Candidate cluster counts {Cs/3, Cs/2, Cs, 2Cs, 3Cs}, rounded half-up,
    clamped to [2, n_points - 1], deduplicated in ascending order."""
    cs = n_source_classes
    raw = [(cs + 1) // 3, (cs + 1) // 2, cs, 2 * cs, 3 * cs]  # cs / 3 and cs / 2, rounded half-up
    return sorted({min(max(v, 2), n_points - 1) for v in raw})


def estimate_ct(features: np.ndarray, n_source_classes: int, rng: Rng) -> CtEstimate:
    """Pick the candidate cluster count with the best mean silhouette.

    Features are unit rows, in adaptation the memory bank's. The sweep works on
    one fixed uniform sample of at most SILHOUETTE_SUBSAMPLE rows: the
    candidates are clamped to its size, each candidate's k-means clusters it on
    a split sub-stream of the rng, and every candidate's silhouette reads its
    one distance matrix. Up to SILHOUETTE_SUBSAMPLE rows the sample is every
    row, so results equal those of the full sweep. Ties choose the smallest
    candidate. Done once per adaptation run and held fixed afterwards.
    """
    sample = np.asarray(features, dtype=np.float64)
    n = sample.shape[0]
    if n < 4:
        raise ValueError("cluster-count estimation needs at least 4 points")
    if n > SILHOUETTE_SUBSAMPLE:
        sample = sample[rng.sample_without_replacement(n, SILHOUETTE_SUBSAMPLE)]
    cands = candidate_counts(n_source_classes, sample.shape[0])
    # Not the Gram form: there copies of a row lie a few 1e-8 apart, not 0, which
    # moves silhouettes by up to ~1e-8 and can break a tie between candidates the other way.
    dist = cdist(sample, sample)

    # k-means repairs every empty cluster and k >= 2, so each silhouette sees
    # at least two clusters.
    means = [float(silhouette(dist, kmeans(sample, k, rng.split()).assignment).mean()) for k in cands]
    best = int(np.argmax(means))  # first max -> smallest candidate on ties
    return CtEstimate(candidates=cands, mean_silhouettes=means, chosen=cands[best])
