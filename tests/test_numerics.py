import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ScriptedRng,
    normal,
    normal_array_scalar,
    permutation_scalar,
    randint,
    sample_without_replacement_scalar,
    uniform_array_scalar,
)
from ufda.numerics import (
    _SCRATCH_MAX,
    Rng,
    bounded_draws,
    l2_normalize_rows,
    normalized_entropy_rows,
    scratch,
    softmax_rows,
)


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def unit_row(v):
    return l2_normalize_rows(np.array([v], dtype=np.float64))[0]


def unit_cosine(a, b):
    """Cosine as the pipeline computes it: the dot product of unit rows."""
    return float(unit_row(a) @ unit_row(b))


def softmax_one(logits):
    return softmax_rows(np.array([logits], dtype=np.float64))[0]


def entropy_one(p, n_classes):
    return float(normalized_entropy_rows(np.array([p], dtype=np.float64), n_classes)[0])


class TestL2Normalize:
    def test_scaling_identity(self):
        assert np.allclose(unit_row([3.0, 4.0]), [0.6, 0.8])

    def test_already_unit(self):
        assert np.allclose(unit_row([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            unit_row([0.0, 0.0])

    def test_rows_variant_rejects_zero_row(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_norm_rejected(self, bad):
        # 1e200 is finite, but its square overflows the norm to inf.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="norm is not finite"):
            l2_normalize_rows(np.array([[1.0, 0.0], [bad, 1.0]]))


class TestSoftmax:
    def test_constant_logits_give_uniform(self):
        for c in (-3.0, 0.0, 17.5):
            out = softmax_one([c] * 5)
            assert np.allclose(out, 0.2, atol=1e-15)

    def test_frozen_value(self):
        # e/(e+1) evaluated at 40 digits
        out = softmax_one([1.0, 0.0])
        assert abs(out[0] - 0.7310585786300049) < 1e-6
        assert abs(out[1] - 0.2689414213699951) < 1e-6

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(finite_floats(-50.0, 50.0), min_size=2, max_size=8),
        finite_floats(-50.0, 50.0),
    )
    def test_shift_invariance(self, logits, shift):
        a = softmax_one(logits)
        b = softmax_one([x + shift for x in logits])
        assert np.max(np.abs(a - b)) < 1e-12

    def test_sums_to_one(self):
        out = softmax_one([100.0, -100.0, 3.0])
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0)

    def test_rows_matches_single(self):
        rows = np.array([[1.0, 2.0, -1.0], [0.5, 0.5, 0.5]])
        batch = softmax_rows(rows)
        for i in range(2):
            e = np.exp(rows[i] - rows[i].max())
            assert np.allclose(batch[i], e / e.sum(), atol=1e-15)


class TestCosine:
    def test_self_similarity(self):
        assert unit_cosine([2.0, -1.0, 0.5], [2.0, -1.0, 0.5]) == 1.0

    def test_orthogonal(self):
        assert unit_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_frozen_value(self):
        assert abs(unit_cosine([1.0, 1.0], [1.0, 0.0]) - 0.7071067811865476) < 1e-6

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            unit_cosine([0.0, 0.0], [1.0, 0.0])

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_normalization_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        raw = unit_cosine(a, b)
        unit = unit_cosine(unit_row(a), unit_row(b))
        assert abs(raw - unit) < 1e-12

    def test_clamped_against_rounding(self):
        v = np.array([1e-8, 1.0, 1e-8])
        assert -1.0 <= unit_cosine(v, -v) <= 1.0


class TestNormalizedEntropy:
    def test_one_hot_is_zero(self):
        assert entropy_one([0.0, 1.0, 0.0], 3) == 0.0

    def test_uniform_is_one(self):
        assert abs(entropy_one([0.25] * 4, 4) - 1.0) < 1e-12

    def test_half_uniform(self):
        assert abs(entropy_one([0.5, 0.5, 0.0, 0.0], 4) - 0.5) < 1e-12

    def test_small_class_count_rejected(self):
        with pytest.raises(ValueError):
            entropy_one([1.0], 1)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), finite_floats(0.0, 1.0))
    def test_mixing_toward_uniform_never_decreases(self, seed, lam):
        rng = np.random.default_rng(seed)
        raw = rng.random(4) + 1e-9
        p = raw / raw.sum()
        u = np.full(4, 0.25)
        mixed = lam * p + (1.0 - lam) * u
        assert entropy_one(mixed, 4) >= entropy_one(p, 4) - 1e-12

    def test_rows_variant_matches(self):
        p = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
        rows = normalized_entropy_rows(p, 2)
        for i in range(3):
            pos = p[i][p[i] > 0.0]
            expected = -float(np.sum(pos * np.log(pos))) / math.log(2)
            assert abs(rows[i] - expected) < 1e-12


def _splitmix64_reference(seed):
    """Independent splitmix64/xoshiro256** oracle in numpy uint64 arithmetic."""
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)

    def mix(state):
        state = (state + np.uint64(0x9E3779B97F4A7C15)) & mask
        z = state
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & mask
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & mask
        return state, z ^ (z >> np.uint64(31))

    state = np.uint64(seed)
    words = []
    for _ in range(4):
        state, out = mix(state)
        words.append(out)
    return words


def _xoshiro_reference(words, n):
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)

    def rotl(x, k):
        return ((x << np.uint64(k)) | (x >> np.uint64(64 - k))) & mask

    s = list(words)
    out = []
    with np.errstate(over="ignore"):
        for _ in range(n):
            out.append(int((rotl((s[1] * np.uint64(5)) & mask, 7) * np.uint64(9)) & mask))
            t = (s[1] << np.uint64(17)) & mask
            s[2] ^= s[0]
            s[3] ^= s[1]
            s[1] ^= s[2]
            s[0] ^= s[3]
            s[2] ^= t
            s[3] = rotl(s[3], 45)
    return out


def in_new_thread(fn):
    """fn's result, called in a thread of its own: it starts with no scratch buffer."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


class TestScratch:
    def test_one_buffer_reused_until_a_larger_one_is_asked_for(self):
        def views():
            first = scratch(64)
            return first, scratch(16), scratch(1 << 16), scratch(64)

        first, smaller, grown, again = in_new_thread(views)
        assert first.shape == (64,) and first.dtype == np.float64
        assert smaller.shape == (16,) and np.shares_memory(smaller, first)
        assert grown.shape == (1 << 16,) and not np.shares_memory(grown, first)
        assert np.shares_memory(again, grown)

    def test_a_size_past_the_cap_gets_a_buffer_of_its_own(self):
        def views():
            kept = scratch(64)
            return kept, scratch(_SCRATCH_MAX + 1), scratch(_SCRATCH_MAX + 1), scratch(64)

        kept, large, other, again = in_new_thread(views)
        assert large.shape == (_SCRATCH_MAX + 1,)
        assert not np.shares_memory(large, other) and not np.shares_memory(large, kept)
        assert np.shares_memory(again, kept)

    def test_each_thread_has_its_own(self):
        mine = scratch(32)
        assert not np.shares_memory(in_new_thread(lambda: scratch(32)), mine)


class TestRng:
    def test_matches_independent_reference(self):
        for seed in (0, 1, 42, 2**64 - 1):
            rng = Rng(seed)
            mine = [rng.next_u64() for _ in range(1000)]
            with np.errstate(over="ignore"):
                ref = _xoshiro_reference(_splitmix64_reference(seed), 1000)
            assert mine == ref

    def test_million_draw_replay_is_bit_identical(self):
        a = Rng(123456789)
        b = Rng(123456789)
        blocks = -(-(10**6) // 2048)
        assert all(np.array_equal(a.draws(2048), b.draws(2048)) for _ in range(blocks))

    def test_different_seeds_differ(self):
        assert [Rng(1).next_u64() for _ in range(4)] != [Rng(2).next_u64() for _ in range(4)]

    def test_random_in_unit_interval(self):
        draws = Rng(7).uniform_array(1000, 0.0, 1.0)
        assert np.all((0.0 <= draws) & (draws < 1.0))
        extremes = ScriptedRng(7, [0, 2**64 - 1]).uniform_array(2, 0.0, 1.0)
        assert extremes.tolist() == [0.0, 1.0 - 2.0**-53]

    def test_randint_bounds_and_coverage(self):
        rng = Rng(7)
        draws = [randint(rng, 5) for _ in range(2000)]
        assert set(draws) == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            randint(rng, 0)

    def test_permutation_is_valid(self):
        perm = Rng(3).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_sample_without_replacement(self):
        rng = Rng(9)
        picked = rng.sample_without_replacement(20, 8)
        assert len(set(picked.tolist())) == 8
        assert sorted(picked.tolist()) == picked.tolist()

    def test_split_streams_are_deterministic_and_distinct(self):
        parent_a = Rng(11)
        parent_b = Rng(11)
        child_a = parent_a.split()
        child_b = parent_b.split()
        assert [child_a.next_u64() for _ in range(10)] == [child_b.next_u64() for _ in range(10)]
        assert [parent_a.next_u64() for _ in range(10)] != [Rng(11).split().next_u64() for _ in range(10)]

    def test_normal_moments(self):
        rng = Rng(2024)
        draws = rng.normal_array(20000)
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 0.0])
    def test_normal_array_scales_draws_in_row_major_order(self, sigma):
        got = Rng(5).normal_array((3, 4), sigma=sigma)
        ref = Rng(5)
        want = np.array([0.0 + sigma * normal(ref) for _ in range(12)]).reshape(3, 4)
        assert got.tobytes() == want.tobytes()
        if sigma == 0.0:
            assert not np.signbit(got).any()  # +0.0, not -0.0, for a negative draw

    def test_uniform_array_row_major_order(self):
        a = Rng(4).uniform_array((2, 3), 0.0, 1.0)
        b = Rng(4)
        expected = uniform_array_scalar(b, 6, 0.0, 1.0).tolist()
        assert a.ravel().tolist() == expected


TOP = 2**64 - 1


def uint64s(values):
    return np.array(values, dtype=np.uint64)


class TestBoundedDraws:
    @pytest.mark.parametrize("bound", [3, 7, 1000, 2**32 + 1, 2**63 + 1, TOP])
    def test_the_top_draw_is_rejected_for_every_bound_but_a_power_of_two(self, bound):
        assert bounded_draws(uint64s([TOP]), bound)[1] == 0
        assert bounded_draws(uint64s([5, TOP]), uint64s([2, bound]))[1] == 1

    @pytest.mark.parametrize("bound", [1, 2, 2**32, 2**63])
    def test_a_power_of_two_takes_every_draw(self, bound):
        values, rejected = bounded_draws(uint64s([0, TOP]), bound)
        assert rejected is None and values.tolist() == [0, TOP % bound]

    def test_one_bound_is_every_draws_bound(self):
        draws = Rng(4).draws(500)
        for bound in (1, 6, 2**40 + 3):
            values, rejected = bounded_draws(draws, bound)
            assert rejected is None
            assert values.tolist() == bounded_draws(draws, np.full(500, bound, dtype=np.uint64))[0].tolist()
            assert values.tolist() == [d % bound for d in draws.tolist()]

    def test_the_first_of_several_rejected_draws_is_reported(self):
        assert bounded_draws(uint64s([0, 5, TOP, 1, TOP, TOP]), 7)[1] == 2
        assert bounded_draws(uint64s([TOP, TOP]), uint64s([2, 3]))[1] == 1  # 2 takes any draw
        assert bounded_draws(uint64s([]), 7)[1] is None


class TestAccepted:
    @pytest.mark.parametrize("rejects", [[0], [4], [7], [0, 1], [7, 8], [2, 5, 9]])
    def test_a_rejected_draw_is_dropped_and_one_more_read(self, rejects):
        # The sentinel TOP at the first, a middle and the last of 8 draws, or
        # at the draw read in place of a rejected one.
        script = [d for d in Rng(5).draws(20).tolist() if d != TOP]
        for at in rejects:
            script[at] = TOP
        rng, seen = ScriptedRng(5, script), []

        def check(d):
            seen.append(d.tolist())
            hits = np.flatnonzero(d == TOP)
            return d, int(hits[0]) if hits.size else None

        got = rng.accepted(8, check)
        assert got.dtype == np.uint64
        assert got.tolist() == [d for d in script[: 8 + len(rejects)] if d != TOP]
        assert len(seen) == len(rejects) + 1 and seen[0] == script[:8]
        assert rng.script == script[8 + len(rejects) :]

    def test_no_draws(self):
        rng = Rng(5)
        before = state(rng)
        assert rng.accepted(0, lambda d: (d.shape, None)) == (0,)
        assert state(rng) == before


def state(rng):
    """Everything a later draw depends on: the xoshiro words, the cached
    Box-Muller spare and, for a ScriptedRng, the draws left in its script."""
    return list(rng._s), rng._spare_normal, getattr(rng, "script", None)


# Array draws come in blocks of 2048 raw draws (1024 Box-Muller pairs): the
# sizes cover empty, odd, even, and one block, one draw or one pair across it.
SIZES = st.one_of(st.sampled_from([0, 1, 2, 3, 2047, 2048, 2049, 2050, 4097]), st.integers(0, 300))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestArrayDrawsMatchTheScalarRule:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**64 - 1), SIZES, finite_floats(-1e3, 1e3), finite_floats(0.0, 1e3))
    def test_uniform_array(self, seed, size, lo, width):
        got, want = Rng(seed), Rng(seed)
        for _ in range(2):
            assert_same_bits(got.uniform_array(size, lo, lo + width), uniform_array_scalar(want, size, lo, lo + width))
            assert state(got) == state(want)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**64 - 1), SIZES, SIZES, st.sampled_from([1.0, 0.5, 0.0]))
    def test_normal_array_with_and_without_a_cached_spare(self, seed, first, second, sigma):
        # An odd first size leaves a spare cached at the second call's entry.
        got, want = Rng(seed), Rng(seed)
        for size in (first, second):
            assert_same_bits(got.normal_array(size, sigma), normal_array_scalar(want, size, sigma))
            assert state(got) == state(want)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**64 - 1), SIZES)
    def test_permutation(self, seed, n):
        got, want = Rng(seed), Rng(seed)
        for _ in range(2):
            assert_same_bits(got.permutation(n), permutation_scalar(want, n))
            assert state(got) == state(want)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**64 - 1), st.data())
    def test_sample_without_replacement(self, seed, data):
        n = data.draw(SIZES)
        k = data.draw(st.sampled_from(sorted({0, n // 2, n, min(n, 2049)})))
        got, want = Rng(seed), Rng(seed)
        for _ in range(2):
            assert_same_bits(got.sample_without_replacement(n, k), sample_without_replacement_scalar(want, n, k))
            assert state(got) == state(want)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**64 - 1), st.sampled_from([0, 500, 1023, 1024]), st.booleans(),
           st.lists(st.integers(0, 2**11 - 1), min_size=1, max_size=2))
    def test_normal_array_draws_a_zero_u1_again(self, seed, pair, spare, zeros):
        # A draw below 2^11 gives u1 = 0, which the scalar rule draws again;
        # pair 1023 is the last of the first block, 1024 the first of the next.
        # Consecutive zeros are redrawn one after another.
        script = Rng(seed).draws(4200).tolist()
        script[2 * pair : 2 * pair + len(zeros)] = zeros
        got, want = ScriptedRng(seed, script), ScriptedRng(seed, script)
        if spare:  # one normal first, so the spare is cached and the call's pairs start at draw 0
            got._spare_normal = want._spare_normal = 0.25
        assert_same_bits(got.normal_array(2051, 1.0), normal_array_scalar(want, 2051, 1.0))
        assert state(got) == state(want)

    @pytest.mark.parametrize("n, picks", [(3, [0]), (2053, [0]), (2053, [1000]), (2053, [2047]),
                                          (2053, [2050]), (2053, [0, 1000, 2047, 2050]), (40, [5, 6]), (40, [5, 5])])
    def test_permutation_after_rejected_draws(self, n, picks):
        # Pick t reads randint(n - t), which rejects the draw 2^64 - 1 unless
        # n - t is a power of two. Pick 2047 is the last of the first block;
        # pick n - 3 is the last that can reject, as randint(2) takes any draw.
        self.assert_rejections_follow_the_scalar_rule(
            picks, [n - t for t in picks], lambda rng: rng.permutation(n), lambda rng: permutation_scalar(rng, n))

    @pytest.mark.parametrize("n, k, picks", [(3000, 2100, [0]), (3000, 2100, [1000]), (3000, 2100, [2047]),
                                             (3000, 2100, [2099]), (3000, 2100, [0, 1000, 2047, 2099]),
                                             (7, 1, [0]), (7, 7, [1, 2]), (7, 7, [4, 4])])
    def test_sample_without_replacement_after_rejected_draws(self, n, k, picks):
        self.assert_rejections_follow_the_scalar_rule(
            picks, [n - t for t in picks], lambda rng: rng.sample_without_replacement(n, k),
            lambda rng: sample_without_replacement_scalar(rng, n, k))

    @staticmethod
    def assert_rejections_follow_the_scalar_rule(picks, bounds, array_draw, scalar_draw):
        # Each listed pick reads 2^64 - 1 once per listing before its value; a
        # rejection moves every later pick one draw on, so the script places
        # the draw at t plus the rejections before it.
        assert all(bounded_draws(np.array([2**64 - 1], dtype=np.uint64), b)[1] == 0 for b in bounds)
        script = Rng(3).draws(4200).tolist()
        for shift, t in enumerate(picks):
            script[t + shift] = 2**64 - 1
        got, want = ScriptedRng(3, script), ScriptedRng(3, script)
        assert_same_bits(array_draw(got), scalar_draw(want))
        assert state(got) == state(want)
        assert len(got.script) < 4200 - max(picks) - len(picks)  # every scripted rejection was read

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.permutation(0), lambda rng: rng.permutation(1), lambda rng: rng.sample_without_replacement(5, 0),
    ])
    def test_no_randint_reads_no_draw(self, draw):
        # permutation(0) asks for n - 1 = -1 randints: none, as for permutation(1).
        rng = Rng(8)
        before = state(rng)
        assert draw(rng).size <= 1
        assert state(rng) == before

    def test_one_draw_is_the_first_of_a_block(self):
        rng, ref = Rng(21), Rng(21)
        assert [rng.next_u64() for _ in range(5)] == ref.draws(5).tolist()
        assert state(rng) == state(ref)
