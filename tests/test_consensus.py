import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import knn_direct, random_model, reference_nearest_bank_indices
from ufda.consensus import (
    MemoryBank,
    bank_init,
    bank_update,
    local_targets,
    nearest_bank_indices,
)
from ufda.model import cross_entropy_rows, forward_batch
from ufda.numerics import l2_normalize_rows


def toy_bank(seed=0, n=10, d=3, n_classes=4):
    rng = np.random.default_rng(seed)
    feats = l2_normalize_rows(rng.normal(size=(n, d)))
    probs = rng.dirichlet(np.ones(n_classes), size=n)
    return MemoryBank(features=feats, probs=probs)


class TestBankInit:
    def test_one_entry_per_sample(self):
        model = random_model(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(17, 4))
        bank = bank_init(model, x)
        assert len(bank) == 17

    def test_reinit_with_same_model_is_identical(self):
        model = random_model(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(8, 4))
        a = bank_init(model, x)
        b = bank_init(model, x)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.probs, b.probs)

    def test_rows_match_forward(self):
        model = random_model(np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(5, 4))
        bank = bank_init(model, x)
        fwd = forward_batch(model, x)
        assert np.array_equal(bank.probs, fwd.probs)
        assert np.allclose(bank.features, l2_normalize_rows(fwd.features))

    def test_empty_target_rejected(self):
        model = random_model(np.random.default_rng(0))
        with pytest.raises(ValueError):
            bank_init(model, np.zeros((0, 4)))


class TestBankUpdate:
    def test_empty_update_leaves_bank_unchanged(self):
        bank = toy_bank()
        feats, probs = bank.features.copy(), bank.probs.copy()
        model = random_model(np.random.default_rng(5))
        fresh = forward_batch(model, np.zeros((0, 4)))
        bank_update(bank, np.array([], dtype=int), fresh)
        assert np.array_equal(bank.features, feats)
        assert np.array_equal(bank.probs, probs)

    def test_full_update_equals_reinit(self):
        model = random_model(np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=(9, 4))
        bank = bank_init(model, x)
        model2 = random_model(np.random.default_rng(8))
        bank_update(bank, np.arange(9), forward_batch(model2, x))
        again = bank_init(model2, x)
        assert np.array_equal(bank.features, again.features)
        assert np.array_equal(bank.probs, again.probs)

    def test_untouched_rows_bit_unchanged(self):
        model = random_model(np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(6, 4))
        bank = bank_init(model, x)
        before = bank.features.copy()
        model2 = random_model(np.random.default_rng(11))
        bank_update(bank, np.array([3]), forward_batch(model2, x[[3]]))
        mask = np.ones(6, dtype=bool)
        mask[3] = False
        assert np.array_equal(bank.features[mask], before[mask])
        assert not np.array_equal(bank.features[3], before[3])

    def test_out_of_range_index_rejected(self):
        bank = toy_bank()
        model = random_model(np.random.default_rng(12))
        fresh = forward_batch(model, np.zeros((1, 4)))
        with pytest.raises(IndexError):
            bank_update(bank, np.array([99]), fresh)


class TestLocalTargets:
    def test_mean_of_neighbor_rows(self):
        bank = MemoryBank(
            features=np.array([[1.0, 0.0], [0.99, 0.141], [0.0, 1.0]]) / np.linalg.norm(
                np.array([[1.0, 0.0], [0.99, 0.141], [0.0, 1.0]]), axis=1, keepdims=True
            ),
            probs=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        )
        # query near bank[0]; its own slot is 2 so neighbors are {0, 1}
        targets = local_targets(bank, l2_normalize_rows(np.array([[1.0, 0.05]])), 2, np.array([2]))
        assert np.allclose(targets[0], [1.0, 0.0])

    def test_k2_mean_is_half_half(self):
        bank = MemoryBank(
            features=l2_normalize_rows(np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.3], [-1.0, 0.0]])),
            probs=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        )
        targets = local_targets(bank, l2_normalize_rows(np.array([[1.0, 0.02]])), 2, np.array([0]))
        # neighbors are rows 1 and 2 -> mean of (1,0) and (0,1)
        assert np.allclose(targets[0], [0.5, 0.5])

    def test_constant_bank_gives_constant_row(self):
        bank = toy_bank()
        bank.probs[:] = np.array([0.2, 0.3, 0.4, 0.1])
        q = l2_normalize_rows(np.random.default_rng(3).normal(size=(4, 3)))
        targets = local_targets(bank, q, 3, np.arange(4))
        assert np.allclose(targets, [0.2, 0.3, 0.4, 0.1])

    def test_five_point_line_matches_exhaustive(self):
        feats = l2_normalize_rows(np.array([[1.0, t] for t in (0.0, 0.1, 0.2, 0.5, 0.9)]))
        probs = np.eye(5)
        bank = MemoryBank(features=feats, probs=probs)
        neighbors = nearest_bank_indices(bank, feats, 2, np.arange(5))
        for i in range(5):
            assert neighbors[i].tolist() == knn_direct(feats, feats[i], 2, i)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        bank = MemoryBank(
            features=l2_normalize_rows(rng.normal(size=(n, 3))),
            probs=rng.dirichlet(np.ones(3), size=n),
        )
        k = int(rng.integers(1, min(5, n - 1) + 1))
        queries = l2_normalize_rows(rng.normal(size=(3, 3)))
        self_idx = rng.integers(0, n, size=3)
        got = nearest_bank_indices(bank, queries, k, self_idx)
        for i in range(3):
            assert got[i].tolist() == knn_direct(bank.features, queries[i], k, int(self_idx[i]))

    def test_self_never_a_neighbor(self):
        bank = toy_bank(n=6)
        neighbors = nearest_bank_indices(bank, bank.features, 5, np.arange(6))
        for i in range(6):
            assert i not in neighbors[i].tolist()

    def test_bad_k_rejected(self):
        bank = toy_bank(n=4)
        with pytest.raises(ValueError):
            nearest_bank_indices(bank, bank.features, 4, np.arange(4))

    def test_short_self_indices_rejected(self):
        # a length-1 array would broadcast one slot to every query
        bank = toy_bank(n=6)
        with pytest.raises(ValueError, match="self_indices"):
            nearest_bank_indices(bank, bank.features[:3], 2, np.array([0]))

    def test_negative_self_index_rejected(self):
        # -1 would wrap to the last slot and leave the query's own slot in
        bank = toy_bank(n=6)
        with pytest.raises(ValueError, match="self_indices"):
            nearest_bank_indices(bank, bank.features[:3], 2, np.array([0, 1, -1]))

    def test_out_of_range_or_float_self_indices_rejected(self):
        bank = toy_bank(n=6)
        for bad in (np.array([0, 1, 6]), np.array([0.0, 1.0, 2.0]), np.arange(3)[:, None]):
            with pytest.raises(ValueError, match="self_indices"):
                nearest_bank_indices(bank, bank.features[:3], 2, bad)

    def test_non_finite_query_rejected(self):
        # a NaN row would rank its own slot first instead of failing
        bank = toy_bank(n=6)
        for bad in (np.nan, np.inf, -np.inf):
            queries = bank.features[:2].copy()
            queries[0, 1] = bad
            with pytest.raises(ValueError, match="query features must be finite"):
                nearest_bank_indices(bank, queries, 2, np.array([0, 1]))


@st.composite
def tied_knn_cases(draw):
    """Bank, queries, k and self slots built from small-integer lattice rows,
    so exact similarity ties are common: duplicated bank rows, queries equal
    to bank rows, and self slots on rows that other slots duplicate."""
    d = draw(st.integers(1, 3))
    lattice_row = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(lattice_row, min_size=2, max_size=10))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    n = len(rows)
    b = draw(st.integers(1, 4))
    queries, self_idx = [], []
    for _ in range(b):
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            queries.append(rows[j])
            self_idx.append(draw(st.sampled_from([i for i in range(n) if rows[i] == rows[j]])))
        else:
            queries.append(draw(lattice_row))
            self_idx.append(draw(st.integers(0, n - 1)))
    k = draw(st.integers(1, n - 1))
    bank = MemoryBank(features=l2_normalize_rows(np.array(rows, dtype=float)), probs=np.zeros((n, 1)))
    return bank, l2_normalize_rows(np.array(queries, dtype=float)), k, np.array(self_idx)


# four equal bank rows, the query's own slot among them
FOUR_TIED_ROWS = (
    MemoryBank(features=l2_normalize_rows(np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]])),
               probs=np.zeros((5, 1))),
    np.array([[1.0, 0.0]]), 4, np.array([1]),
)


class TestNearestMatchesReference:
    @settings(deadline=None, max_examples=200)
    @given(tied_knn_cases())
    @example(FOUR_TIED_ROWS)
    def test_equals_prefix_of_stable_sort(self, case):
        bank, queries, k, self_idx = case
        got = nearest_bank_indices(bank, queries, k, self_idx)
        want = reference_nearest_bank_indices(bank, queries, k, self_idx)
        assert got.dtype == want.dtype
        assert got.shape == want.shape == (queries.shape[0], k)
        assert np.array_equal(got, want)


class TestLossLocal:
    def test_one_hot_match_is_zero(self):
        l = np.array([[0.0, 1.0]])
        p = np.array([[0.0, 1.0]])
        assert cross_entropy_rows(p, l)[0] == pytest.approx(0.0, abs=1e-10)

    def test_uniform_match(self):
        l = np.full((2, 2), 0.5)
        assert cross_entropy_rows(l, l)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_frozen_value(self):
        got, _ = cross_entropy_rows(np.array([[0.8, 0.2]]), np.array([[0.5, 0.5]]))
        assert got == pytest.approx(0.916290731874155, abs=1e-6)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_gibbs_inequality(self, seed):
        rng = np.random.default_rng(seed)
        l = rng.dirichlet(np.ones(4), size=3)
        p = rng.dirichlet(np.ones(4), size=3)
        entropy = float(np.mean(-np.sum(l * np.log(np.maximum(l, 1e-300)), axis=1)))
        assert cross_entropy_rows(p, l)[0] >= entropy - 1e-9
