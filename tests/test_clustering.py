import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from helpers import bincount_cluster_means, exhaustive_kmeans_optimum, reference_kmeans, silhouette_direct
from ufda import clustering
from ufda.clustering import candidate_counts, estimate_ct, kmeans, silhouette
from ufda.numerics import Rng, l2_normalize_rows


def line_points(values):
    return np.array([[v] for v in values], dtype=float)


def kmeans_with(points, k, rng, n_init=10, max_iter=clustering.KMEANS_MAX_ITER):
    """kmeans with KMEANS_MAX_ITER set to max_iter for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "KMEANS_MAX_ITER", max_iter)
        return kmeans(points, k, rng, n_init=n_init)


def assert_matches_reference(points, k, seed, make_rng=Rng, **kwargs):
    """Same assignment and centroids, inertia within 1e-12 relative, and the
    rng left at the same place as the per-restart reference k-means; kwargs
    are n_init and max_iter."""
    want_rng, got_rng = make_rng(seed), make_rng(seed)
    want = reference_kmeans(points, k, want_rng, **kwargs)
    got = kmeans_with(points, k, got_rng, **kwargs)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia or abs(got.inertia - want.inertia) <= 1e-12 * abs(want.inertia)
    assert got_rng.random() == want_rng.random()


class ScriptedRng(Rng):
    """An Rng whose first raw draws are given, then those of its seed."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def next_u64(self):
        return self.script.pop(0) if self.script else super().next_u64()


@pytest.fixture()
def calls(monkeypatch):
    """Count the calls of clustering's exact re-rank, empty-cluster repair and
    lock-step seeding pass (one more per draw that randint rejects), the later
    seeding picks made exactly (a restart's first pick always is), the
    restarts retired early and the restarts' exact inertia evaluations: one
    per restart, and two more per restart whose check falls back to them."""
    counts = {"_sq_dists": 0, "_repair_empty": 0, "_lockstep_picks": 0, "_exact_pick": 0, "retired": 0,
              "exact_inertia": 0}
    for name in ("_sq_dists", "_repair_empty", "_lockstep_picks"):
        original = getattr(clustering, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(clustering, name, counted)
    exact_pick = clustering._exact_pick

    def counted_exact_pick(points, picks, draw):
        counts["_exact_pick"] += len(picks) > 0
        return exact_pick(points, picks, draw)

    monkeypatch.setattr(clustering, "_exact_pick", counted_exact_pick)
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


def random_case(seed):
    """Points, k and keyword arguments of one random reference case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    d = int(rng.choice([1, 2, 3, 8, 32]))
    k = int(rng.integers(1, min(n, 8) + 1))
    points = rng.normal(size=(n, d)) * float(rng.choice([1e-3, 1.0, 1e3]))
    return points, k, {"n_init": int(rng.integers(1, 11)), "max_iter": int(rng.choice([0, 1, 2, 3, 100]))}


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
        # Few distinct coordinates give duplicates and exact distance ties.
        n = data.draw(st.integers(1, 16))
        d = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=n, max_size=n))
        k = data.draw(st.integers(1, n))
        assert_matches_reference(np.array(rows, dtype=float), k, data.draw(st.integers(0, 2**32 - 1)))

    def test_duplicated_points_force_repair_and_rerank(self, calls):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]), 4, axis=0)
        for seed in range(10):
            assert_matches_reference(points, 4, seed)
        assert calls["_repair_empty"] > 0
        assert calls["_sq_dists"] > 0
        assert calls["_exact_pick"] > 0  # the fourth pick of every restart has a zero D^2 total

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
        assert calls["_exact_pick"] == 0  # every later pick vouched for in lock-step
        # One exact inertia per restart: the slack decides every check, so
        # none falls back to exact inertias, and no repair needs one.
        assert calls["_repair_empty"] == 0
        assert calls["exact_inertia"] == 3 * 10

    def test_points_far_from_the_origin(self, calls):
        # |x|^2 ~ 3e12 swamps distances ~1e-4 in the Gram form, so the ranking
        # only holds because the rounding bound scales with |x|^2.
        points = 1e6 + 1e-2 * np.random.default_rng(6).normal(size=(200, 3))
        for seed in range(3):
            assert_matches_reference(points, 5, seed)
        assert calls["_sq_dists"] > 0
        assert calls["_exact_pick"] > 0  # D^2 totals lie within the seeding bound of 0

    def test_points_whose_squares_overflow(self, calls):
        # Finite points, but |x|^2 and the D^2 totals overflow to inf: the
        # rounding bound says nothing there, so those picks are made exactly.
        points = 1e200 * np.random.default_rng(10).normal(size=(9, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(3):
                assert_matches_reference(points, 3, seed)
        assert calls["_exact_pick"] > 0

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

    def test_threshold_on_a_running_sum_entry(self, calls):
        # Script the second draw so that the exact threshold equals an exact
        # running-sum entry: the Gram form cannot vouch for that pick.
        points = l2_normalize_rows(np.random.default_rng(9).normal(size=(8, 3)))
        d2 = np.sum((points - points[0]) ** 2, axis=1)
        total = float(d2.sum())
        fraction = next(  # an entry in total's binade is a product m * 2^-53 * total
            m
            for entry in np.cumsum(d2)[:0:-1]
            for m in range(round(entry / total * 2.0**53) - 4, round(entry / total * 2.0**53) + 5)
            if m < 2**53 and m * 2.0**-53 * total == entry
        )
        script = [0, fraction << 11]  # pick row 0, then a threshold on a running-sum entry
        assert_matches_reference(points, 2, 5, make_rng=lambda seed: ScriptedRng(seed, script), n_init=1)
        assert calls["_exact_pick"] == 1

    def test_certified_check_agrees_with_the_exact_one(self, monkeypatch, calls):
        # Beside every check, the decision of its Gram bounds and the exact
        # inertia of both iterations: a restart the bounds pass must pass
        # exactly and lie within them, and the check computes exact inertias
        # for every other restart, two each.
        checks = []
        check_inertia, own_sq_dists = clustering._check_inertia, clustering._own_sq_dists

        def recorded(points, current, assignment, upper, prior, previous, lower):
            before = calls["exact_inertia"]
            check_inertia(points, current, assignment, upper, prior, previous, lower)
            bound = lower * (1.0 + 1e-12) + 1e-12
            certified = (upper <= bound) & (bound < np.inf)
            assert calls["exact_inertia"] - before == 2 * np.count_nonzero(~certified)
            now = own_sq_dists(points, current, assignment).sum(axis=1)
            last = own_sq_dists(points, prior, previous).sum(axis=1)
            checks.append((certified, ~(now > last * (1.0 + 1e-12) + 1e-12), now, upper, last, lower))

        monkeypatch.setattr(clustering, "_check_inertia", recorded)
        cases = [random_case(seed) for seed in range(40)]
        cases.append((1e6 + 1e-2 * np.random.default_rng(6).normal(size=(200, 3)), 5, {}))  # far from the origin
        cases.append((1e200 * np.random.default_rng(10).normal(size=(9, 2)), 3, {}))  # |x|^2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for seed, (points, k, kwargs) in enumerate(cases):
                kmeans_with(points, k, Rng(seed), **kwargs)
        certified, exact, now, upper, last, lower = (np.concatenate(col) for col in zip(*checks))
        assert np.all(exact[certified])
        assert np.all(now[certified] <= upper[certified])
        assert np.all(last[certified] >= lower[certified])
        assert certified.any() and not certified.all()  # the exact fallback fired

    def test_an_inertia_increase_raises_with_the_exact_values(self, monkeypatch):
        # Three blobs 100 apart; every update moves each centroid by 1, which
        # keeps the assignment and raises the inertia by about n.
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        points = np.repeat(centers, 10, axis=0) + 0.1 * np.random.default_rng(3).normal(size=(30, 2))
        seeds = clustering._seed_restarts(points, np.einsum("nd,nd->n", points, points), 3, 1, Rng(0))
        assignment = np.argmin(clustering._sq_dists(points, seeds[0]), axis=1)[None]
        moved = clustering._cluster_means(points, assignment, 3) + 1.0
        assert np.array_equal(np.argmin(clustering._sq_dists(points, moved[0]), axis=1), assignment[0])
        last, now = (float(clustering._own_sq_dists(points, c, assignment).sum()) for c in (seeds, moved))
        cluster_means = clustering._cluster_means
        monkeypatch.setattr(clustering, "_cluster_means", lambda rows, flat, k: cluster_means(rows, flat, k) + 1.0)
        with pytest.raises(RuntimeError) as raised:
            kmeans(points, 3, Rng(0), n_init=1)
        assert str(raised.value) == f"k-means inertia increased: {last!r} -> {now!r}"

    @pytest.mark.parametrize("lower", [np.inf, np.nan])
    def test_bounds_that_are_not_finite_settle_nothing(self, lower):
        # The Gram bounds claim a pass, but an infinite or NaN bound on the
        # last inertia says nothing: the exact inertias, 0.5 then 1.0, decide.
        points = line_points([0.0, 1.0, 3.0])
        assignment = np.array([[0, 0, 1]])
        prior, current = np.array([[[0.5], [3.0]]]), np.array([[[0.0], [3.0]]])
        with pytest.raises(RuntimeError, match=r"k-means inertia increased: 0\.5 -> 1\.0$"):
            clustering._check_inertia(points, current, assignment, np.zeros(1), prior, assignment, np.array([lower]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.random.default_rng(0).normal(size=(6, 2))
        points[3, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(points, 2, Rng(0))


def covering_assignment(rng, r, n, k):
    """(r, n) labels in [0, k) in which every restart uses every cluster."""
    labels = rng.integers(0, k, size=(r, n))
    for row in labels:
        row[:k] = np.arange(k)
        rng.shuffle(row)
    return labels


def assert_means_match_bincount(points, assignment, k, n_init):
    """_cluster_means over rows tiled for n_init restarts gives the bincount
    update's bits, signed zeros included."""
    got = clustering._cluster_means(np.tile(points, (n_init, 1)), clustering._flat_clusters(assignment, k), k)
    want = bincount_cluster_means(points, assignment, k)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestClusterMeansMatchesBincount:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = int(rng.choice([1, 2, 3, 8, 32]))
        k = int(rng.integers(1, n + 1))
        n_init = int(rng.integers(1, 11))
        r = int(rng.integers(1, n_init + 1))  # the restarts still active
        points = rng.normal(size=(n, d)) * float(rng.choice([1e-3, 1.0, 1e3]))
        assert_means_match_bincount(points, covering_assignment(rng, r, n, k), k, n_init)

    def test_k_equals_n_and_ten_restarts(self):
        rng = np.random.default_rng(1)
        for d in (1, 4):
            points = rng.normal(size=(9, d))
            assert_means_match_bincount(points, covering_assignment(rng, 10, 9, 9), 9, 10)

    @pytest.mark.parametrize("d", [1, 5])
    def test_magnitudes_from_1e_minus_150_to_1e150(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            points = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-150, 150, size=(40, d))
            k = int(rng.integers(1, 8))
            assert_means_match_bincount(points, covering_assignment(rng, 3, 40, k), k, 4)

    @pytest.mark.parametrize("d", [1, 3])
    def test_duplicated_rows(self, d):
        rng = np.random.default_rng(7)
        points = np.repeat(rng.normal(size=(4, d)), 6, axis=0)
        for k in (1, 3, 4, 8):
            assert_means_match_bincount(points, covering_assignment(rng, 5, 24, k), k, 5)

    @pytest.mark.parametrize("d", [1, 3])
    def test_columns_of_negative_zero(self, d):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20, d))
        points[:, 0] = -0.0
        for k in (1, 4):
            assert_means_match_bincount(points, covering_assignment(rng, 2, 20, k), k, 3)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_labels_outside_the_clusters_raise(self, d, bad):
        # Each restart's labels are checked, not only the flat range: -1 in
        # restart 1 and 4 in restart 0 are flat indices of the other restart.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, d))
        for restart in (1, 0):
            assignment = covering_assignment(rng, 2, 12, 4)
            assignment[restart, 5] = bad
            flat = clustering._flat_clusters(assignment, 4)
            with pytest.raises(RuntimeError, match=r"labels outside \[0, 4\)"):
                clustering._cluster_means(np.tile(points, (2, 1)), flat, 4)

    @pytest.mark.parametrize("d", [1, 3])
    def test_an_empty_cluster_raises(self, d):
        points = np.random.default_rng(0).normal(size=(6, d))
        assignment = np.array([[0, 1, 0, 1, 0, 1]])
        with pytest.raises(RuntimeError, match="empty cluster"):
            clustering._cluster_means(points, assignment, 3)


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
        est = estimate_ct(pts, 6, Rng(1))
        normed = l2_normalize_rows(pts)
        # recompute each candidate's mean silhouette with the direct oracle
        rng = Rng(1)
        for k, mean_s in zip(est.candidates, est.mean_silhouettes):
            res = kmeans(normed, k, rng.split())
            direct = silhouette_direct(normed, res.assignment).mean()
            assert mean_s == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("subsample", [50, 2048])
    def test_scores_equal_per_candidate_silhouette(self, monkeypatch, subsample):
        monkeypatch.setattr(clustering, "SILHOUETTE_SUBSAMPLE", subsample)
        pts = self.three_blobs(seed=4)
        est = estimate_ct(pts, 6, Rng(2))
        normed = l2_normalize_rows(pts)
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
        est = estimate_ct(pts, 6, Rng(3))
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
