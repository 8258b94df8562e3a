import copy
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from helpers import (
    ScriptedRng,
    bincount_cluster_means,
    exhaustive_kmeans_optimum,
    randint,
    reference_kmeans,
    silhouette_direct,
)
from ufda import clustering, pseudolabel
from ufda.adaptation import AdaptConfig, adapt, pretrain_source
from ufda.clustering import candidate_counts, estimate_ct, kmeans, silhouette
from ufda.datagen import generate, preset
from ufda.model import ModelDims
from ufda.numerics import Rng, bounded_draws, l2_normalize_rows, scratch


def line_points(values):
    return np.array([[v] for v in values], dtype=float)


def kmeans_with(points, k, rng, n_init=10, max_iter=clustering.KMEANS_MAX_ITER):
    """kmeans with KMEANS_MAX_ITER set to max_iter for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "KMEANS_MAX_ITER", max_iter)
        return kmeans(points, k, rng, n_init=n_init)


def assert_same_as_reference(got, got_rng, points, k, want_rng, **kwargs):
    """Same assignment and centroids, inertia within 1e-12 relative, and the
    rng left at the same place as the per-restart reference k-means on the
    points; kwargs are n_init and max_iter."""
    want = reference_kmeans(points, k, want_rng, **kwargs)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia or abs(got.inertia - want.inertia) <= 1e-12 * abs(want.inertia)
    assert got_rng.next_u64() == want_rng.next_u64()


def assert_matches_reference(points, k, seed, make_rng=Rng, **kwargs):
    """kmeans on one (n, d) set matches the reference (assert_same_as_reference)."""
    got_rng = make_rng(seed)
    got = kmeans_with(points, k, got_rng, **kwargs)
    assert isinstance(got, clustering.KMeansResult)
    assert_same_as_reference(got, got_rng, points, k, make_rng(seed), **kwargs)


def assert_stack_matches_reference(stack, k, seeds, make_rng=Rng, **kwargs):
    """kmeans on a (g, n, d) stack, set i on make_rng(seeds[i]), gives g results,
    each matching the reference on its set alone (assert_same_as_reference)."""
    got_rngs = [make_rng(seed) for seed in seeds]
    got = kmeans_with(np.array(stack), k, got_rngs, **kwargs)
    assert len(got) == len(stack)
    for points, result, got_rng, seed in zip(stack, got, got_rngs, seeds):
        assert_same_as_reference(result, got_rng, points, k, make_rng(seed), **kwargs)


@pytest.fixture()
def calls(monkeypatch):
    """Count the calls of clustering's exact re-rank, empty-cluster repair and
    lock-step seeding pass (one more per draw that randint rejects), the
    restarts retired early and the restarts' exact inertia evaluations: one
    per restart whose final bounds leave it able to win, and two more per
    restart whose check falls back to them."""
    counts = {"_sq_dists": 0, "_repair_empty": 0, "_lockstep_picks": 0, "retired": 0, "exact_inertia": 0}
    for name in ("_sq_dists", "_repair_empty", "_lockstep_picks"):
        original = getattr(clustering, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(clustering, name, counted)
    settled = clustering._settled

    def counted_settled(assignment, previous, repaired):
        done = settled(assignment, previous, repaired)
        counts["retired"] += int(done.sum())
        return done

    monkeypatch.setattr(clustering, "_settled", counted_settled)
    own_sq_dists = clustering._own_sq_dists

    def counted_own_sq_dists(points, centroids, assignment):
        counts["exact_inertia"] += assignment.shape[0]
        return own_sq_dists(points, centroids, assignment)

    monkeypatch.setattr(clustering, "_own_sq_dists", counted_own_sq_dists)
    return counts


@pytest.fixture()
def exits(monkeypatch):
    """Count how kmeans' restarts end, keyed (set, route, step): "repeat", an
    assignment equal to the one before it; "shift", a largest centroid shift
    below KMEANS_TOL; "last", step KMEANS_MAX_ITER (step 0 when that is 0),
    also where a shift ends a restart there. Read from the restarts each step
    assigns, those it checks (the others end by shift or as the last) and
    those of them that settle; a call's step 0 is the first assignment after
    a step that ends every restart."""
    counts = Counter()
    now = {"step": 0, "running": 0}
    assign, check, settled = clustering._assign, clustering._check_inertia, clustering._settled

    def assigning(points, sq_norms, sets, centroids):
        now["step"] = now["step"] + 1 if now["running"] else 0
        now["running"], now["sets"] = sets.size, sets.tolist()
        if clustering.KMEANS_MAX_ITER == 0:  # the seeds' assignment is final
            counts.update((s, "last", 0) for s in now["sets"])
            now["running"] = 0
        return assign(points, sq_norms, sets, centroids)

    def checking(points, sets, *args):
        now["checked"] = sets.tolist()
        return check(points, sets, *args)

    def settling(assignment, previous, repaired):
        done = settled(assignment, previous, repaired)
        step = now["step"]
        route = "last" if step == clustering.KMEANS_MAX_ITER else "shift"
        unchecked = Counter(now["sets"]) - Counter(now["checked"])
        counts.update({(s, route, step): c for s, c in unchecked.items()})
        counts.update((s, "repeat", step) for s, ended in zip(now["checked"], done.tolist()) if ended)
        now["running"] = int((~done).sum())
        return done

    monkeypatch.setattr(clustering, "_assign", assigning)
    monkeypatch.setattr(clustering, "_check_inertia", checking)
    monkeypatch.setattr(clustering, "_settled", settling)
    return counts


def random_case(seed):
    """Points, k and keyword arguments of one random reference case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    d = int(rng.choice([1, 2, 3, 8, 32]))
    k = int(rng.integers(1, min(n, 8) + 1))
    points = rng.normal(size=(n, d)) * float(rng.choice([1e-3, 1.0, 1e3]))
    return points, k, {"n_init": int(rng.integers(1, 11)), "max_iter": int(rng.choice([0, 1, 2, 3, 100]))}


def lattice_points(data, n_values):
    """Rows of small integers, n drawn from n_values, d from 1 to 3: few
    distinct coordinates give duplicated rows and tied D^2."""
    n = data.draw(st.sampled_from(n_values))
    d = data.draw(st.integers(1, 3))
    return np.array(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=n, max_size=n)),
                    dtype=float)


class TestKMeans:
    def test_single_cluster_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        res = kmeans(pts, 1, Rng(0))
        assert np.allclose(res.centroids[0], pts.mean(axis=0))
        assert np.all(res.assignment == 0)

    def test_saturation_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [5.0], [9.0]])
        res = kmeans(pts, 4, Rng(0))
        assert res.inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(res.assignment.tolist()) == [0, 1, 2, 3]

    def test_two_cluster_line_instance(self):
        # exhaustive enumeration of all 2-partitions gives centroids {0.5, 10.5}, inertia 1.0
        res = kmeans(line_points([0.0, 1.0, 10.0, 11.0]), 2, Rng(3))
        assert sorted(np.round(res.centroids.ravel(), 9).tolist()) == [0.5, 10.5]
        assert res.inertia == pytest.approx(1.0, abs=1e-12)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(line_points([0.0, 1.0]), 3, Rng(0))

    def test_duplicate_points_fill_all_clusters(self):
        pts = np.array([[1.0, 1.0]] * 5)
        res = kmeans(pts, 3, Rng(0))
        assert set(res.assignment.tolist()) == {0, 1, 2}
        assert res.inertia == pytest.approx(0.0, abs=1e-20)

    def test_never_beats_exhaustive_optimum(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            pts = rng.normal(size=(7, 2))
            for k in (2, 3):
                best = exhaustive_kmeans_optimum(pts, k)
                res = kmeans(pts, k, Rng(trial * 10 + k))
                assert res.inertia >= best - 1e-9

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(5).normal(size=(30, 3))
        a = kmeans(pts, 4, Rng(77))
        b = kmeans(pts, 4, Rng(77))
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)


class TestKMeansMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_random_inputs(self, seed):
        points, k, kwargs = random_case(seed)
        assert_matches_reference(points, k, seed, **kwargs)

    def test_restarts_retire_once_their_assignment_repeats(self, calls):
        # Retiring is exact, so only the count shows that it happens.
        for seed in range(40):
            points, k, kwargs = random_case(seed)
            assert_matches_reference(points, k, seed, **kwargs)
        assert calls["retired"] > 0

    def test_a_repaired_restart_is_not_retired(self):
        assignment = np.array([[0, 1, 1], [0, 1, 1], [0, 1, 1]])
        previous = np.array([[0, 1, 1], [0, 1, 1], [0, 0, 1]])
        done = clustering._settled(assignment, previous, np.array([False, True, False]))
        assert done.tolist() == [True, False, False]

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_small_integer_lattices(self, data):
        points = lattice_points(data, range(1, 17))
        k = data.draw(st.integers(1, points.shape[0]))
        assert_matches_reference(points, k, data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("left", [np.nan, np.inf, 0.0, 1e300])
    def test_leftover_scratch_contents_change_nothing(self, left):
        # The Gram values live in the thread's scratch buffer; whatever an
        # earlier user left there, every entry is written before it is read.
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 40, 4))
        scratch(3 * 10 * 5 * 40).fill(left)
        assert_stack_matches_reference(stack, 5, [7, 8, 9])

    def test_duplicated_points_force_repair_and_rerank(self, calls):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), 4, axis=0)
        for seed in range(10):
            assert_matches_reference(points, 4, seed)
        assert calls["_repair_empty"] > 0
        assert calls["_sq_dists"] > 0

    def test_lattice_points_equidistant_from_two_centroids(self, calls):
        grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
        for k in (2, 3, 4, 5):
            for seed in range(5):
                assert_matches_reference(grid, k, seed)
        line = line_points(range(9))
        for seed in range(10):
            assert_matches_reference(line, 2, seed)
        assert calls["_sq_dists"] > 0

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 7):
            assert_matches_reference(rng.normal(size=(n, 3)), n, n)

    def test_unit_rows_as_in_the_pipeline(self, calls):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(6, 32))
        points = l2_normalize_rows(centers[rng.integers(0, 6, size=300)] + 0.3 * rng.normal(size=(300, 32)))
        for k in (2, 6, 18):
            assert_matches_reference(points, k, k)
        # Exact inertias only for the restarts that the final Gram bounds
        # leave able to win, 13 of the 3 * 10 here: the slack decides every
        # check, so none falls back to exact inertias, and no repair needs one.
        assert calls["_repair_empty"] == 0
        assert calls["exact_inertia"] == 13

    def test_points_far_from_the_origin(self, calls):
        # |x|^2 ~ 3e12 swamps distances ~1e-4 in the Gram form, so the ranking
        # only holds because the rounding bound scales with |x|^2.
        points = 1e6 + 1e-2 * np.random.default_rng(6).normal(size=(200, 3))
        for seed in range(3):
            assert_matches_reference(points, 5, seed)
        assert calls["_sq_dists"] > 0

    def test_points_whose_squares_overflow(self):
        # Finite points whose |x|^2 overflows: seeding scales the centred
        # points by a power of two, so it warns of nothing and its D^2 stays
        # finite, and every restart picks distinct rows.
        points = 1e200 * np.random.default_rng(10).normal(size=(9, 2))
        with np.errstate(all="raise"):
            for seed in range(3):
                rng = Rng(seed)
                draws = np.array([rng.next_u64() for _ in range(10 * 3)], dtype=np.uint64).reshape(10, 3)
                chosen, rejected = clustering._lockstep_picks(points, draws)
                assert rejected is None
                assert chosen.min() >= 0 and chosen.max() < 9
                assert all(len(set(row)) == 3 for row in chosen.tolist())

    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e153])
    def test_points_whose_squares_could_overflow_are_rejected(self, scale):
        # At 1e153, 9 * 2 * (2 * 1.85e153)^2 = 2.5e308 passes the float64 maximum: rejected
        # before any square is taken, so nothing overflows on the way.
        points = scale * np.random.default_rng(10).normal(size=(9, 2))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="squared distances overflow"):
            kmeans(points, 3, Rng(0))

    def test_points_just_below_the_overflow_bound_run_exactly(self):
        points = np.random.default_rng(10).normal(size=(9, 2))
        points *= math.sqrt(sys.float_info.max / (4.0 * 9 * 2)) / np.abs(points).max() / 1.001
        with np.errstate(over="raise", invalid="raise"):
            for seed in range(3):
                assert_matches_reference(points, 3, seed)

    @pytest.mark.parametrize("at", [0, 3])
    def test_first_draw_of_a_restart_rejected_by_randint(self, calls, at):
        # 2**64 % 7 == 2, so randint(7) rejects the draw 2**64 - 1 and reads
        # one more; with k = 3 the draws at 0 and 3 are restarts' first picks.
        rng = Rng(0)
        script = [rng.next_u64() for _ in range(at)] + [2**64 - 1]
        points = np.random.default_rng(8).normal(size=(7, 2))
        assert_matches_reference(points, 3, 5, make_rng=lambda seed: ScriptedRng(seed, script), n_init=2)
        assert calls["_lockstep_picks"] == 2  # the draw dropped and the pass re-run

    def test_rejected_draw_on_a_zero_total_pick(self, calls):
        # All points at the origin: every pick after the first has a zero D^2
        # total and reads randint(7), which rejects the scripted draw.
        assert_matches_reference(
            np.zeros((7, 2)), 3, 5, make_rng=lambda seed: ScriptedRng(seed, [0, 2**64 - 1]), n_init=1
        )
        assert calls["_lockstep_picks"] == 2  # the draw dropped and the pass re-run

    def test_two_rejected_draws_in_one_call(self, calls):
        # Restart 0's first draw is rejected, and so is the draw that restart
        # 1's first zero-total pick reads once the stream has moved on by one.
        script = [2**64 - 1, 0, 1, 2, 3, 2**64 - 1]
        assert_matches_reference(
            np.zeros((7, 2)), 3, 5, make_rng=lambda seed: ScriptedRng(seed, script), n_init=2
        )
        assert calls["_lockstep_picks"] == 3  # one re-run per dropped draw

    def test_a_dropped_draw_moves_a_rejected_one_to_a_weighted_pick(self, calls):
        # Both first draws are rejected in the first pass. Once the earlier is
        # dropped, the later one is read by restart 0's D^2-weighted third
        # pick, which takes any draw, so only one draw is dropped.
        script = [2**64 - 1, 0, 1, 2**64 - 1]
        points = np.random.default_rng(8).normal(size=(7, 2))
        assert_matches_reference(points, 3, 5, make_rng=lambda seed: ScriptedRng(seed, script), n_init=2)
        assert calls["_lockstep_picks"] == 2

    def test_threshold_on_a_running_sum_entry(self):
        # Script the second draw so that the exact threshold equals an exact
        # running-sum entry: the Gram form may round either way, so the pick
        # is one of the two rows next to the entry.
        points = l2_normalize_rows(np.random.default_rng(9).normal(size=(8, 3)))
        d2 = np.sum((points - points[0]) ** 2, axis=1)
        total = float(d2.sum())
        entry, fraction = next(  # an entry in total's binade is a product m * 2^-53 * total
            (i, m)
            for i, entry in reversed(list(enumerate(np.cumsum(d2))))
            for m in range(round(entry / total * 2.0**53) - 4, round(entry / total * 2.0**53) + 5)
            if m < 2**53 and m * 2.0**-53 * total == entry
        )
        draws = np.array([[0, fraction << 11]], dtype=np.uint64)  # pick row 0, then on the entry
        chosen, rejected = clustering._lockstep_picks(points, draws)
        assert rejected is None and chosen[0, 0] == 0
        assert chosen[0, 1] in (entry, entry + 1)

    def test_certified_check_agrees_with_the_exact_one(self, monkeypatch, calls):
        # Beside every check, the decision of its Gram bounds and the exact
        # inertia of both iterations: a restart the bounds pass must pass
        # exactly and lie within them, and the check computes exact inertias
        # for every other restart, two each.
        checks = []
        check_inertia, own_sq_dists = clustering._check_inertia, clustering._own_sq_dists

        def recorded(points, sets, current, assignment, upper, prior, previous, lower):
            before = calls["exact_inertia"]
            check_inertia(points, sets, current, assignment, upper, prior, previous, lower)
            bound = lower * (1.0 + 1e-12) + 1e-12
            certified = (upper <= bound) & (bound < np.inf)
            assert calls["exact_inertia"] - before == 2 * np.count_nonzero(~certified)
            now = own_sq_dists(points[sets], current, assignment).sum(axis=1)
            last = own_sq_dists(points[sets], prior, previous).sum(axis=1)
            checks.append((certified, ~(now > last * (1.0 + 1e-12) + 1e-12), now, upper, last, lower))

        monkeypatch.setattr(clustering, "_check_inertia", recorded)
        cases = [random_case(seed) for seed in range(40)]
        cases.append((1e6 + 1e-2 * np.random.default_rng(6).normal(size=(200, 3)), 5, {}))  # far from the origin
        for seed, (points, k, kwargs) in enumerate(cases):
            kmeans_with(points, k, Rng(seed), **kwargs)
        certified, exact, now, upper, last, lower = (np.concatenate(col) for col in zip(*checks))
        assert np.all(exact[certified])
        assert np.all(now[certified] <= upper[certified])
        assert np.all(last[certified] >= lower[certified])
        assert certified.any() and not certified.all()  # the exact fallback fired

    @staticmethod
    def blobs_whose_inertia_increases(seed, rng):
        """Three blobs 100 apart, and the message that a run on them with
        n_init = 1 on the rng raises at its first check when every update
        moves each centroid by 1, which keeps the assignment and raises the
        inertia by about n."""
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        points = np.repeat(centers, 10, axis=0) + 0.1 * np.random.default_rng(seed).normal(size=(30, 2))
        seeds = points[rng.accepted(3, lambda d: clustering._lockstep_picks(points, d.reshape(1, 3)))]
        assignment = np.argmin(clustering._sq_dists(points, seeds[0]), axis=1)[None]
        moved = clustering._cluster_means(points[None], np.zeros(1, dtype=int), assignment, 3) + 1.0
        assert np.array_equal(np.argmin(clustering._sq_dists(points, moved[0]), axis=1), assignment[0])
        last, now = (float(clustering._own_sq_dists(points, c, assignment).sum()) for c in (seeds, moved))
        return points, f"k-means inertia increased: {last!r} -> {now!r}"

    @staticmethod
    def shift_updates(monkeypatch, of_set=None):
        """Move every centroid update by 1, or only those of restarts on of_set."""
        cluster_means = clustering._cluster_means

        def shifted(points, sets, assignment, k):
            shift = 1.0 if of_set is None else (sets == of_set)[:, None, None] * 1.0
            return cluster_means(points, sets, assignment, k) + shift

        monkeypatch.setattr(clustering, "_cluster_means", shifted)

    def test_an_inertia_increase_raises_with_the_exact_values(self, monkeypatch):
        points, message = self.blobs_whose_inertia_increases(3, Rng(0))
        self.shift_updates(monkeypatch)
        with pytest.raises(RuntimeError) as raised:
            kmeans(points, 3, Rng(0), n_init=1)
        assert str(raised.value) == message

    @pytest.mark.parametrize("failing", [None, 1, 2])
    def test_a_stack_raises_the_lowest_failing_sets_message(self, monkeypatch, failing):
        # Every set fails in the first check when all updates move (None), or
        # only the given one: the lowest failing set's own message is raised.
        sets = [self.blobs_whose_inertia_increases(seed, Rng(seed)) for seed in (3, 4, 5)]
        self.shift_updates(monkeypatch, failing)
        with pytest.raises(RuntimeError) as raised:
            kmeans(np.stack([points for points, _ in sets]), 3, [Rng(seed) for seed in (3, 4, 5)], n_init=1)
        assert str(raised.value) == sets[failing or 0][1]

    @pytest.mark.parametrize("lower", [np.inf, np.nan])
    def test_bounds_that_are_not_finite_settle_nothing(self, lower):
        # The Gram bounds claim a pass, but an infinite or NaN bound on the
        # last inertia says nothing: the exact inertias, 0.5 then 1.0, decide.
        points = line_points([0.0, 1.0, 3.0])
        assignment = np.array([[0, 0, 1]])
        prior, current = np.array([[[0.5], [3.0]]]), np.array([[[0.0], [3.0]]])
        with pytest.raises(RuntimeError, match=r"k-means inertia increased: 0\.5 -> 1\.0$"):
            clustering._check_inertia(points[None], np.zeros(1, dtype=int), current, assignment, np.zeros(1), prior,
                                      assignment, np.array([lower]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.random.default_rng(0).normal(size=(6, 2))
        points[3, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(points, 2, Rng(0))


def lattice_stack(data, g):
    """g lattices of one shape (lattice_points)."""
    first = lattice_points(data, range(1, 17))
    rows = st.lists(st.integers(-2, 2), min_size=first.shape[1], max_size=first.shape[1])
    sets = st.lists(rows, min_size=first.shape[0], max_size=first.shape[0])
    return np.array([first] + [data.draw(sets) for _ in range(g - 1)], dtype=float)


class TestKMeansStacks:
    """A (g, n, d) stack gives each set the result of clustering it alone, and
    leaves each rng where that leaves it."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_random_inputs(self, seed, g):
        points, k, kwargs = random_case(seed)
        rng = np.random.default_rng(seed + 1)
        stack = [points] + [rng.normal(size=points.shape) * float(rng.choice([1e-3, 1.0, 1e3])) for _ in range(g - 1)]
        assert_stack_matches_reference(stack, k, [seed + i for i in range(g)], **kwargs)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_small_integer_lattices(self, data):
        stack = lattice_stack(data, data.draw(st.integers(2, 4)))
        k = data.draw(st.integers(1, stack.shape[1]))
        assert_stack_matches_reference(stack, k, data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(stack),
                                                                    max_size=len(stack), unique=True)))

    def test_duplicated_points_force_repair_and_rerank(self, calls):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), 4, axis=0)
        stack = [points, points[::-1], 2.0 * points, np.roll(points, 5, axis=0)]
        for seed in range(0, 12, 4):
            assert_stack_matches_reference(stack, 4, range(seed, seed + 4))
        assert calls["_repair_empty"] > 0
        assert calls["_sq_dists"] > 0

    def test_lattice_points_equidistant_from_two_centroids(self, calls):
        grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
        for k in (2, 3, 4, 5):
            assert_stack_matches_reference([grid, grid[::-1], grid.T.reshape(25, 2)], k, [k, k + 10, k + 20])
        line = line_points(range(9))  # d = 1
        for seed in range(0, 9, 3):
            assert_stack_matches_reference([line, line[::-1], line[[4, 0, 8, 1, 7, 2, 6, 3, 5]]], 2,
                                           range(seed, seed + 3))
        assert calls["_sq_dists"] > 0

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 7):
            assert_stack_matches_reference(rng.normal(size=(3, n, 3)), n, [n, n + 1, n + 2])

    def test_randint_rejected_draws(self, calls):
        # The scripts of test_first_draw_of_a_restart_rejected_by_randint and
        # test_two_rejected_draws_in_one_call, one per set: each set drops
        # its own draws.
        rng = Rng(0)
        scripts = [[2**64 - 1], [rng.next_u64() for _ in range(3)] + [2**64 - 1], [2**64 - 1, 0, 1, 2, 3, 2**64 - 1]]
        stack = [np.random.default_rng(8).normal(size=(7, 2)), np.random.default_rng(9).normal(size=(7, 2)),
                 np.zeros((7, 2))]
        by_seed = dict(zip((5, 6, 7), scripts))
        assert_stack_matches_reference(stack, 3, [5, 6, 7], make_rng=lambda seed: ScriptedRng(seed, by_seed[seed]),
                                       n_init=2)
        assert calls["_lockstep_picks"] == 3 + 1 + 1 + 2  # one pass per set, one more per dropped draw

    def test_the_prototype_stacks_of_a_glcpp_run(self, monkeypatch):
        # What adapt clusters each epoch: unit rows, one set per source class,
        # each on its own rng sub-stream.
        calls = []

        def recorded(points, k, rngs):
            starts = copy.deepcopy(rngs)
            results = kmeans(points, k, rngs)
            calls.append((points, k, starts, results, copy.deepcopy(rngs)))
            return results

        monkeypatch.setattr(pseudolabel, "kmeans", recorded)
        source, target = generate(preset("opda-toy", seed=2, source_per_class=10, target_per_class=10))
        model = pretrain_source(source, ModelDims(16, 16, 8, 6), AdaptConfig(seed=2, epochs=10, lr=0.02, batch_size=32))
        adapt(model, target, AdaptConfig(seed=4, epochs=2, batch_size=16, variant="glcpp"))
        assert len(calls) == 2
        for points, k, starts, results, ends in calls:
            assert points.shape[0] == 6 and np.allclose(np.linalg.norm(points, axis=2), 1.0)
            for rows, result, start, end in zip(points, results, starts, ends):
                assert_same_as_reference(result, end, rows, k, start)

    def test_one_non_finite_set_is_rejected(self):
        stack = np.random.default_rng(0).normal(size=(3, 6, 2))
        stack[1, 3, 1] = np.nan
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(stack, 2, [Rng(i) for i in range(3)])

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_one_rng_per_set(self, count):
        stack = np.random.default_rng(0).normal(size=(3, 6, 2))
        with pytest.raises(ValueError, match=f"{count} rngs for 3 point sets"):
            kmeans(stack, 2, [Rng(i) for i in range(count)])


class TestKMeansExits:
    """Every way a restart ends, in stacks that match the reference set by set."""

    def test_each_route_in_one_stack(self, exits):
        # Set 0, at 1e-8, shifts less than KMEANS_TOL at its first update, and
        # set 1, at 1.5e-6, at its second; set 2 repeats an assignment, and
        # set 3 still moves at the last step.
        base = np.random.default_rng(4).normal(size=(20, 3))
        stack = [base * 1e-8, base * 1.5e-6, base, base[::-1] ** 3]
        assert_stack_matches_reference(stack, 3, range(4), n_init=1, max_iter=3)
        assert exits == {(0, "shift", 1): 1, (1, "shift", 2): 1, (2, "repeat", 2): 1, (3, "last", 3): 1}
        # Set 1's final assignment, which is not checked, is not that of its
        # first step: a run that stops there ends with another.
        first, final = (kmeans_with(stack[1], 3, Rng(1), n_init=1, max_iter=m).assignment for m in (1, 2))
        assert not np.array_equal(first, final)

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_every_restart_ends_at_the_last_step(self, exits, max_iter):
        # Also one whose first update shifts less than KMEANS_TOL or whose
        # assignment repeats: the last step ends it unchecked.
        stack = [np.random.default_rng(4).normal(size=(20, 3)) * scale for scale in (1e-8, 1.0)]
        assert_stack_matches_reference(stack, 3, [5, 6], n_init=3, max_iter=max_iter)
        assert exits == {(0, "last", max_iter): 3, (1, "last", max_iter): 3}


class TestSeeding:
    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_a_restart_with_k_distinct_rows_picks_k_distinct_rows(self, data):
        # Picked rows weigh exactly 0 and a threshold lies below the D^2
        # total, so a weighted pick never repeats a row.
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        points = lattice_points(data, range(1, 17)) * scale + data.draw(st.sampled_from([0.0, 1e6]))
        n = points.shape[0]
        k = data.draw(st.integers(1, len(np.unique(points, axis=0))))
        r = data.draw(st.integers(1, 4))
        draws = np.array(data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=r * k, max_size=r * k)),
                         dtype=np.uint64).reshape(r, k)
        chosen, _ = clustering._lockstep_picks(points, draws)
        for ri in range(r):
            if bounded_draws(draws[ri, :1], n)[1] is None:  # later picks are weighted, and take any draw
                assert len(set(chosen[ri].tolist())) == k, (ri, chosen[ri])

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_a_scripted_fraction_picks_the_row_whose_interval_holds_it(self, data):
        # A power-of-two count of integer rows keeps the centred Gram D^2
        # exact, so the running sums are those of the integer D^2 from row 0,
        # scaled by a power of two. The pick is the row i with
        # cum[i - 1] <= threshold < cum[i], also where the threshold is an entry.
        points = lattice_points(data, [1, 2, 4, 8, 16])
        n = points.shape[0]
        cum = np.cumsum(np.sum((points - points[0]) ** 2, axis=1)).astype(int).tolist()
        total = cum[-1]
        on_entries = [c * 2**53 // total + step for c in cum[:-1] for step in (-1, 0, 1)] if total else []
        m = data.draw(st.one_of(st.integers(0, 2**53 - 1), st.sampled_from(on_entries or [0])).filter(
            lambda m: 0 <= m < 2**53))
        chosen, rejected = clustering._lockstep_picks(points, np.array([[0, m << 11]], dtype=np.uint64))
        assert rejected is None and chosen[0, 0] == 0  # randint(n) takes draw 0 as row 0
        if total:
            threshold = m * 2.0**-53 * float(total)
            assert chosen[0, 1] == next(i for i, c in enumerate(cum) if threshold < c)
        else:
            assert chosen[0, 1] == (m << 11) % n  # a zero total takes randint's pick

    def test_the_top_draw_picks_the_last_row_that_weighs(self):
        # The D^2 total is the last running sum, not a sum in another order
        # that may round above it, so the largest fraction lands in the last
        # row with D^2 above 0 and never runs past the end onto a picked row.
        for seed in range(50):
            points = np.random.default_rng(seed).normal(size=(33, 3))
            chosen, _ = clustering._lockstep_picks(points, np.array([[32, 2**64 - 1]], dtype=np.uint64))
            assert chosen[0].tolist() == [32, 31], seed

    @pytest.mark.parametrize("n", [1, 7, 2**63 + 1])
    def test_randint_and_seeding_share_the_rejection_rule(self, n):
        # randint(n) rejects the draws at or above the largest multiple of n
        # that fits in 64 bits, and reads one more; a seeding pick made by
        # randint reads the same value from one draw, or reports the rejection.
        limit = (2**64 // n) * n
        for draw in sorted({0, limit - 1, limit, 2**64 - 1} - {2**64}):
            want = draw % n if draw < limit else None
            values, rejected = bounded_draws(np.array([draw], dtype=np.uint64), n)
            assert (None if rejected == 0 else int(values[0])) == want
            assert randint(ScriptedRng(0, [draw, 5]), n) == (5 % n if want is None else want)
            if n < 2**63:  # the array draws apply the rule in uint64
                assert ScriptedRng(0, [draw, 5])._randints(n, 1) == [5 % n if want is None else want]
            if n < 8:
                chosen, rejected = clustering._lockstep_picks(np.arange(n, dtype=float)[:, None],
                                                              np.array([[draw]], dtype=np.uint64))
                assert (None if rejected == 0 else chosen[0, 0]) == want


def covering_assignment(rng, r, n, k):
    """(r, n) labels in [0, k) in which every restart uses every cluster."""
    labels = rng.integers(0, k, size=(r, n))
    for row in labels:
        row[:k] = np.arange(k)
        rng.shuffle(row)
    return labels


def restart_sets(rng, g, r):
    """The sorted (r,) sets of r restarts on g sets, as kmeans orders them."""
    return np.sort(rng.integers(0, g, size=r))


def assert_means_match_bincount(stack, sets, assignment, k):
    """_cluster_means of restarts on the sets of a stack gives each restart
    the bincount update's bits on its own set, signed zeros included."""
    got = clustering._cluster_means(stack, sets, assignment, k)
    want = np.concatenate([bincount_cluster_means(stack[s], assignment[ri : ri + 1], k) for ri, s in enumerate(sets)])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestClusterMeansMatchesBincount:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = int(rng.choice([1, 2, 3, 8, 32]))
        k = int(rng.integers(1, n + 1))
        g = int(rng.integers(1, 5))
        r = int(rng.integers(1, 11))  # the restarts still active
        stack = rng.normal(size=(g, n, d)) * float(rng.choice([1e-3, 1.0, 1e3]))
        assert_means_match_bincount(stack, restart_sets(rng, g, r), covering_assignment(rng, r, n, k), k)

    def test_k_equals_n_and_ten_restarts(self):
        rng = np.random.default_rng(1)
        for d in (1, 4):
            stack = rng.normal(size=(3, 9, d))
            assert_means_match_bincount(stack, np.repeat(np.arange(3), 10), covering_assignment(rng, 30, 9, 9), 9)

    @pytest.mark.parametrize("d", [1, 5])
    def test_magnitudes_from_1e_minus_150_to_1e150(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            stack = rng.normal(size=(2, 40, d)) * 10.0 ** rng.uniform(-150, 150, size=(2, 40, d))
            k = int(rng.integers(1, 8))
            assert_means_match_bincount(stack, restart_sets(rng, 2, 3), covering_assignment(rng, 3, 40, k), k)

    @pytest.mark.parametrize("d", [1, 3])
    def test_duplicated_rows(self, d):
        rng = np.random.default_rng(7)
        stack = np.repeat(rng.normal(size=(2, 4, d)), 6, axis=1)
        for k in (1, 3, 4, 8):
            assert_means_match_bincount(stack, restart_sets(rng, 2, 5), covering_assignment(rng, 5, 24, k), k)

    @pytest.mark.parametrize("d", [1, 3])
    def test_columns_of_negative_zero(self, d):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(2, 20, d))
        stack[:, :, 0] = -0.0
        for k in (1, 4):
            assert_means_match_bincount(stack, np.array([0, 1]), covering_assignment(rng, 2, 20, k), k)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_labels_outside_the_clusters_raise(self, d, bad):
        # The compiled update would write outside its buffers; the check
        # raises first, whichever restart holds the label.
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(2, 12, d))
        for restart in (1, 0):
            assignment = covering_assignment(rng, 2, 12, 4)
            assignment[restart, 5] = bad
            with pytest.raises(RuntimeError, match=r"labels outside \[0, 4\)"):
                clustering._cluster_means(stack, np.array([0, 1]), assignment, 4)

    @pytest.mark.parametrize("d", [1, 3])
    def test_an_empty_cluster_raises(self, d):
        stack = np.random.default_rng(0).normal(size=(2, 6, d))
        assignment = np.array([[0, 1, 2, 0, 1, 2], [0, 1, 0, 1, 0, 1]])
        with pytest.raises(RuntimeError, match="empty cluster"):
            clustering._cluster_means(stack, np.array([0, 1]), assignment, 3)


class TestSilhouette:
    def test_two_pair_line_instance(self):
        pts = line_points([0.0, 1.0, 10.0, 11.0])
        scores = silhouette(cdist(pts, pts), np.array([0, 0, 1, 1]))
        # point 0: a=1, b=10.5 -> (10.5-1)/10.5
        assert scores[0] == pytest.approx(0.9047619047619048, abs=1e-6)

    def test_singleton_cluster_scores_zero(self):
        pts = line_points([0.0, 1.0, 50.0])
        scores = silhouette(cdist(pts, pts), np.array([0, 0, 1]))
        assert scores[2] == 0.0

    def test_identical_points_score_zero(self):
        pts = np.ones((6, 2))
        scores = silhouette(cdist(pts, pts), np.array([0, 0, 0, 1, 1, 1]))
        assert np.all(scores == 0.0)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((3, 3)), np.zeros(3, dtype=int))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_direct_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(2, min(5, n) + 1))
        assignment = rng.integers(0, k, size=n)
        if len(np.unique(assignment)) < 2:
            assignment[0] = 0
            assignment[1] = 1
        got = silhouette(cdist(pts, pts), assignment)
        want = silhouette_direct(pts, assignment)
        assert np.max(np.abs(got - want)) < 1e-9


class TestCandidateCounts:
    def test_candidate_list_for_six_classes(self):
        assert candidate_counts(6, 1000) == [2, 3, 6, 12, 18]

    def test_round_half_up_for_65(self):
        assert candidate_counts(65, 1000) == [22, 33, 65, 130, 195]

    def test_clamped_to_feasible_range(self):
        # n=10 clamps 2*Cs and 3*Cs down to n-1, floor of 2 applies below
        assert candidate_counts(6, 10) == [2, 3, 6, 9]

    def test_dedup_keeps_ascending_order(self):
        out = candidate_counts(2, 100)
        assert out == sorted(set(out))


class TestEstimateCt:
    def three_blobs(self, seed=0, n_per=40, spread=0.05):
        rng = np.random.default_rng(seed)
        centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pts = np.concatenate([c + spread * rng.normal(size=(n_per, 3)) for c in centers])
        return pts

    def test_recovers_three_clusters(self):
        est = estimate_ct(self.three_blobs(), 6, Rng(0))
        assert est.candidates == [2, 3, 6, 12, 18]
        assert est.chosen == 3

    def test_agrees_with_direct_silhouette_oracle(self):
        pts = self.three_blobs(seed=3)
        normed = l2_normalize_rows(pts)
        est = estimate_ct(normed, 6, Rng(1))
        # recompute each candidate's mean silhouette with the direct oracle
        rng = Rng(1)
        for k, mean_s in zip(est.candidates, est.mean_silhouettes):
            res = kmeans(normed, k, rng.split())
            direct = silhouette_direct(normed, res.assignment).mean()
            assert mean_s == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("subsample", [50, 2048])
    def test_scores_equal_per_candidate_silhouette(self, monkeypatch, subsample):
        monkeypatch.setattr(clustering, "SILHOUETTE_SUBSAMPLE", subsample)
        rng = np.random.default_rng(0)
        # Five rows, each 9 times: candidates 6 and 12 both score 0.8. Gram-form
        # distances between copies of a row are up to 2.6e-8, not 0, and there
        # would choose 12.
        repeated = np.repeat(rng.normal(size=(5, 32)), 9, axis=0)[rng.permutation(45)]
        for pts in (self.three_blobs(seed=4), repeated):
            normed = l2_normalize_rows(pts)
            est = estimate_ct(normed, 6, Rng(2))
            rng = Rng(2)
            sub = rng.sample_without_replacement(len(pts), subsample) if len(pts) > subsample else np.arange(len(pts))
            want = []
            for k in est.candidates:
                assignment = kmeans(normed[sub], k, rng.split()).assignment
                want.append(float(silhouette(cdist(normed[sub], normed[sub]), assignment).mean()))
            assert est.mean_silhouettes == want
            assert est.chosen == est.candidates[int(np.argmax(want))]

    def test_kmeans_clusters_only_the_sample(self, monkeypatch):
        monkeypatch.setattr(clustering, "SILHOUETTE_SUBSAMPLE", 10)
        pts = self.three_blobs(seed=6)
        sub = Rng(3).sample_without_replacement(len(pts), 10)
        seen = []
        original = clustering.kmeans

        def recorded(points, k, rng):
            seen.append((np.array(points), k))
            return original(points, k, rng)

        monkeypatch.setattr(clustering, "kmeans", recorded)
        est = estimate_ct(l2_normalize_rows(pts), 6, Rng(3))
        assert est.candidates == [2, 3, 6, 9]  # clamped to the 10-row sample
        assert [k for _, k in seen] == est.candidates
        for points, _ in seen:
            assert np.array_equal(points, l2_normalize_rows(pts)[sub])

    def test_one_distance_matrix_per_sweep(self, monkeypatch):
        counts = {"cdist": 0, "silhouette": 0}
        for name in counts:
            original = getattr(clustering, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(clustering, name, counted)
        est = estimate_ct(self.three_blobs(seed=5), 6, Rng(9))
        assert counts == {"cdist": 1, "silhouette": len(est.candidates)}

    def test_deterministic(self):
        pts = self.three_blobs(seed=5)
        a = estimate_ct(pts, 6, Rng(9))
        b = estimate_ct(pts, 6, Rng(9))
        assert a.chosen == b.chosen
        assert a.mean_silhouettes == b.mean_silhouettes

    def test_tiny_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_ct(np.ones((3, 2)), 4, Rng(0))

    def test_tie_breaks_to_smallest_candidate(self, monkeypatch):
        monkeypatch.setattr(clustering, "silhouette", lambda dist, assignment: np.zeros(len(assignment)))
        est = estimate_ct(self.three_blobs(), 6, Rng(0))
        assert est.mean_silhouettes == [0.0] * len(est.candidates)
        assert est.chosen == est.candidates[0]
