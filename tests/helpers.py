"""Independent oracles shared by the unit tests and the acceptance suite.

Everything here is written as literal, brute-force restatements of the
definitions so it stays independent of the library implementations it checks.
The one exception is load_run_benchmark, which imports the benchmark script.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from ufda.clustering import KMeansResult, kmeans
from ufda.consensus import MemoryBank
from ufda.model import AdaptModel, forward_batch
from ufda.numerics import Rng


class ScriptedRng(Rng):
    """An Rng whose first raw draws are given, then those of its seed."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def draws(self, m):
        head, self.script = self.script[:m], self.script[m:]
        return np.concatenate([np.array(head, dtype=np.uint64), super().draws(m - len(head))])


# The scalar rule of the Rng array draws: one raw draw (rng.next_u64()) at a
# time, in a plain Python loop. The array draws must match it bit for bit,
# the rng state after the call included.


def random(rng) -> float:
    """Uniform float64 in [0, 1) with 53 random bits."""
    return (rng.next_u64() >> 11) * 2.0**-53


def randint(rng, n: int) -> int:
    """Uniform integer in [0, n): a draw at or above the largest multiple of n
    up to 2^64 is rejected and the next one read."""
    if n <= 0:
        raise ValueError("randint bound must be positive")
    while True:
        draw = rng.next_u64()
        if draw < 2**64 - 2**64 % n:
            return draw % n


def normal(rng) -> float:
    """Box-Muller draw, the second of each pair kept in the rng for the next call."""
    if rng._spare_normal is not None:
        z, rng._spare_normal = rng._spare_normal, None
        return z
    u1 = 0.0
    while u1 == 0.0:
        u1 = random(rng)
    u2 = random(rng)
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    rng._spare_normal = r * math.sin(theta)
    return r * math.cos(theta)


def normal_array_scalar(rng, shape, sigma=1.0) -> np.ndarray:
    out = np.empty(shape, dtype=np.float64)
    flat = out.reshape(-1)
    for i in range(flat.shape[0]):
        flat[i] = normal(rng)
    return sigma * out + 0.0


def uniform_array_scalar(rng, shape, lo, hi) -> np.ndarray:
    out = np.empty(shape, dtype=np.float64)
    flat = out.reshape(-1)
    for i in range(flat.shape[0]):
        flat[i] = lo + (hi - lo) * random(rng)
    return out


def permutation_scalar(rng, n: int) -> np.ndarray:
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = randint(rng, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def sample_without_replacement_scalar(rng, n: int, k: int) -> np.ndarray:
    pool = np.arange(n)
    for i in range(k):
        j = i + randint(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    picked = pool[:k].copy()
    picked.sort()
    return picked


def matrix_cluster_sums(dist: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """The (n, L) per-cluster distance sums that silhouette takes, from the full
    (n, n) distance matrix, labels in ascending order: the reduction the ct
    sweep ran on the whole matrix, kept as the bit-for-bit oracle of its
    blocked pass."""
    return np.stack([dist[:, assignment == lab].sum(axis=1) for lab in np.unique(assignment)], axis=1)


def silhouette_direct(points: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Per-point silhouette computed with plain loops from the definition."""
    n = points.shape[0]
    labels = sorted(set(int(a) for a in assignment))
    scores = np.zeros(n)
    for i in range(n):
        own = int(assignment[i])
        members = [j for j in range(n) if assignment[j] == own and j != i]
        if not members:
            scores[i] = 0.0
            continue
        a = sum(np.linalg.norm(points[i] - points[j]) for j in members) / len(members)
        b = math.inf
        for lab in labels:
            if lab == own:
                continue
            others = [j for j in range(n) if assignment[j] == lab]
            b = min(b, sum(np.linalg.norm(points[i] - points[j]) for j in others) / len(others))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return scores


def exhaustive_kmeans_optimum(points: np.ndarray, k: int) -> float:
    """Global minimum inertia over all partitions into k non-empty clusters."""
    n = points.shape[0]
    best = math.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        cost = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assignment[i] == c]]
            centroid = members.mean(axis=0)
            cost += float(((members - centroid) ** 2).sum())
        best = min(best, cost)
    return best


def _reference_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _reference_pp_seed(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    chosen = [randint(rng, n)]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = randint(rng, n)
        else:
            r = random(rng) * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _reference_repair_empty(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> None:
    n, k = points.shape[0], centroids.shape[0]
    used = np.zeros(n, dtype=bool)
    while True:
        counts = np.bincount(assignment, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        own = _reference_sq_dists(points, centroids)[np.arange(n), assignment]
        own[used] = -np.inf
        for empty in empties:
            far = int(np.argmax(own))
            centroids[empty] = points[far]
            assignment[far] = empty
            used[far] = True
            own[far] = -np.inf


def _reference_lloyd_run(points: np.ndarray, k: int, rng, max_iter: int, tol: float) -> KMeansResult:
    n = points.shape[0]
    centroids = _reference_pp_seed(points, k, rng)
    assignment = np.zeros(n, dtype=np.int64)
    prev_inertia = np.inf
    for _ in range(max_iter):
        d2 = _reference_sq_dists(points, centroids)
        assignment = np.argmin(d2, axis=1)
        if np.any(np.bincount(assignment, minlength=k) == 0):
            _reference_repair_empty(points, centroids, assignment)
            d2 = _reference_sq_dists(points, centroids)

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

    assignment = np.argmin(_reference_sq_dists(points, centroids), axis=1)
    if np.any(np.bincount(assignment, minlength=k) == 0):
        _reference_repair_empty(points, centroids, assignment)
    inertia = float(_reference_sq_dists(points, centroids)[np.arange(n), assignment].sum())
    return KMeansResult(centroids=centroids, assignment=assignment, inertia=inertia)


def reference_kmeans(points: np.ndarray, k: int, rng, max_iter: int = 100, tol: float = 1e-6,
                     n_init: int = 10) -> KMeansResult:
    """The per-restart k-means that clustering.kmeans is checked against: each
    restart seeds with k-means++ on exact D^2 and runs its own Lloyd loop over
    the full (n, k, d) difference tensor, with one mean per cluster; the first
    restart with the lowest final inertia wins. kmeans seeds on centred Gram
    D^2, so the two part only where rounding moves a pick across a running-sum
    entry, or where squares overflow."""
    points = np.asarray(points, dtype=np.float64)
    best = None
    for _ in range(n_init):
        result = _reference_lloyd_run(points, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def bincount_cluster_means(points: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """The centroid update k-means ran before SciPy's compiled one: (r, n)
    assignment gives (r, k, d) means, each column of the tiled points summed
    per cluster by np.bincount in row order, d = 1 summed per cluster."""
    r = assignment.shape[0]
    d = points.shape[1]
    flat = (assignment + k * np.arange(r)[:, None]).ravel()
    counts = np.bincount(flat, minlength=r * k)
    if d == 1:
        sums = np.array([points[assignment[ri] == c].sum(axis=0) for ri in range(r) for c in range(k)])
    else:
        columns = np.tile(points.T, (1, r))
        sums = np.stack([np.bincount(flat, weights=col, minlength=r * k) for col in columns], axis=1)
    return (sums / counts[:, None]).reshape(r, k, d)


def exhaustive_assignment(cost: np.ndarray) -> np.ndarray:
    """Lexicographically smallest minimum-cost permutation by full enumeration."""
    n = cost.shape[0]
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_cost - 1e-12:
            best_cost = total
            best_perm = perm
    # itertools.permutations yields in lexicographic order, so the first
    # strictly-better permutation seen is the lexicographically smallest.
    return np.array(best_perm)


def greedy_assignment(cost: np.ndarray) -> np.ndarray:
    """Lexicographically smallest minimum-cost permutation, row by row: each
    row takes the first free column whose entry plus the optimum over the
    remaining rows and columns reaches the whole optimum within 1e-9 (SciPy's
    solver for every optimum, no pruning). An oracle where enumeration is too
    slow, at cost scales whose sums round by less than 1e-9."""

    def optimum(c):
        rows, cols = linear_sum_assignment(c)
        return float(c[rows, cols].sum())

    n = cost.shape[0]
    best, fixed, free, perm = optimum(cost), 0.0, list(range(n)), []
    for i in range(n):
        for j in free:
            rest = cost[np.ix_(np.arange(i + 1, n), [c for c in free if c != j])]
            if fixed + cost[i, j] + optimum(rest) <= best + 1e-9:
                break
        else:
            raise ValueError(f"row {i}: no column reaches the optimum within 1e-9")
        perm.append(j)
        fixed += cost[i, j]
        free.remove(j)
    return np.array(perm)


def knn_direct(bank_features: np.ndarray, query: np.ndarray, k: int, exclude: int) -> list[int]:
    """k nearest bank rows by cosine similarity, ties to the smaller index."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    sims = [(-cos(query, bank_features[j]), j) for j in range(bank_features.shape[0]) if j != exclude]
    sims.sort()
    return [j for _, j in sims[:k]]


def reference_nearest_bank_indices(
    bank: MemoryBank, query_features: np.ndarray, k: int, self_indices: np.ndarray
) -> np.ndarray:
    """(B, k) nearest bank slots of unit query rows as the k-prefix of a full
    stable descending sort."""
    b = query_features.shape[0]
    sims = query_features @ bank.features.T
    sims[np.arange(b), self_indices] = -np.inf
    order = np.argsort(-sims, axis=1, kind="stable")
    return order[:, :k]


def pseudo_label_direct(
    features: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    epsilon: np.ndarray,
) -> np.ndarray:
    """Literal per-sample restatement of the firing + filter + uniform rule
    over the prototype arrays: positives (C, d), negatives (C, M, d) and
    epsilon (C,)."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    n, n_classes = features.shape[0], positives.shape[0]
    rows = np.zeros((n, n_classes))
    for i in range(n):
        g = features[i]
        fired = []
        for c in range(n_classes):
            score = epsilon[c] * cos(g, positives[c])
            neg = max((cos(g, nc) for nc in negatives[c]), default=-math.inf)
            if score >= neg:
                fired.append((c, score))
        if not fired:
            rows[i] = 1.0 / n_classes
        else:
            best = max(fired, key=lambda t: (t[1], -t[0]))
            rows[i, best[0]] = 1.0
    return rows


def prototypes_direct(features: np.ndarray, probs: np.ndarray, k: int, m: int, rho: float, rng):
    """Per-class restatement of the prototype builder: (positives, negatives,
    epsilon). Class c's top-k are the first k indices sorted by (-p, i); the
    positive is their mean, epsilon = rho + (1 - rho) * their mean
    confidence, and the negatives are k-means centroids of the other indices
    in ascending order, one call per class in class order, each on its own
    rng.split()."""
    n, n_classes = probs.shape
    positives, negatives, epsilon = [], [], []
    for c in range(n_classes):
        ranked = sorted(range(n), key=lambda i: (-probs[i, c], i))
        top, rest = ranked[:k], sorted(ranked[k:])
        positives.append(features[top].mean(axis=0))
        epsilon.append(rho + (1.0 - rho) * float(np.mean(probs[top, c])))
        negatives.append(kmeans(features[rest], m, rng.split()).centroids)
    return np.array(positives), np.array(negatives), np.array(epsilon)


def hard_negative_direct(sims_row: np.ndarray, anchor: int, b: int, ct: int, n_pairs: int) -> list[int]:
    """Rank-skip hard-negative rule restated with explicit sorting."""
    order = sorted((j for j in range(b) if j != anchor), key=lambda j: (-sims_row[j], j))
    skip = math.ceil(b / ct) - 1
    return [order[(skip + t) % (b - 1)] for t in range(n_pairs)]


def flatten_params(model: AdaptModel, names) -> np.ndarray:
    return np.concatenate([getattr(model, n).ravel() for n in names])


def set_params(model: AdaptModel, names, flat: np.ndarray) -> None:
    pos = 0
    for n in names:
        arr = getattr(model, n)
        arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


def fd_gradient(model: AdaptModel, names, loss_fn, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn(model) over the named tensors."""
    base = flatten_params(model, names).copy()
    grad = np.empty_like(base)
    for i in range(base.size):
        for sign in (+1.0, -1.0):
            shifted = base.copy()
            shifted[i] += sign * eps
            set_params(model, names, shifted)
            if sign > 0:
                hi = loss_fn(model)
            else:
                lo = loss_fn(model)
        grad[i] = (hi - lo) / (2.0 * eps)
    set_params(model, names, base)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b))) / denom


def contrastive_frozen_pairs(live_features, pairs, bank, frozen_features) -> float:
    """Contrastive loss restated per anchor with explicit cosines, the
    stop-gradient made explicit for finite differencing: anchor i (row i of
    the pair arrays) uses its live feature, its negatives the frozen batch
    copies and its positives the bank rows."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for i, (positives, negatives) in enumerate(zip(pairs.positives, pairs.negatives)):
        anchor = live_features[i]
        total += sum(cos(anchor, frozen_features[j]) for j in negatives)
        total -= sum(cos(anchor, bank.features[j]) for j in positives)
    return total / len(pairs.positives)


def random_model(rng: np.random.Generator, d_in=4, d_hidden=5, d_feat=3, n_classes=3, frozen=False) -> AdaptModel:
    return AdaptModel(
        w1=rng.normal(size=(d_in, d_hidden)) * 0.7,
        b1=rng.normal(size=d_hidden) * 0.3,
        w2=rng.normal(size=(d_hidden, d_feat)) * 0.7,
        b2=rng.normal(size=d_feat) * 0.3,
        wc=rng.normal(size=(d_feat, n_classes)) * 0.7,
        bc=rng.normal(size=n_classes) * 0.3,
        classifier_frozen=frozen,
    )


def load_run_benchmark():
    """scripts/run_benchmark.py as a module, for its run_one and tsv_row."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
