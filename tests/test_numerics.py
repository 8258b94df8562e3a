import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufda.numerics import (
    Rng,
    l2_normalize_rows,
    normalized_entropy_rows,
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
        n = 10**6
        assert all(a.next_u64() == b.next_u64() for _ in range(n))

    def test_different_seeds_differ(self):
        assert [Rng(1).next_u64() for _ in range(4)] != [Rng(2).next_u64() for _ in range(4)]

    def test_random_in_unit_interval(self):
        rng = Rng(7)
        draws = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in draws)

    def test_randint_bounds_and_coverage(self):
        rng = Rng(7)
        draws = [rng.randint(5) for _ in range(2000)]
        assert set(draws) == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            rng.randint(0)

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
        draws = np.array([rng.normal() for _ in range(20000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 0.0])
    def test_normal_array_scales_draws_in_row_major_order(self, sigma):
        got = Rng(5).normal_array((3, 4), sigma=sigma)
        ref = Rng(5)
        want = np.array([0.0 + sigma * ref.normal() for _ in range(12)]).reshape(3, 4)
        assert got.tobytes() == want.tobytes()
        if sigma == 0.0:
            assert not np.signbit(got).any()  # +0.0, not -0.0, for a negative draw

    def test_uniform_array_row_major_order(self):
        a = Rng(4).uniform_array((2, 3), 0.0, 1.0)
        b = Rng(4)
        expected = [b.uniform(0.0, 1.0) for _ in range(6)]
        assert a.ravel().tolist() == expected
