import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import prototypes_direct, pseudo_label_direct
from ufda.clustering import SILHOUETTE_SUBSAMPLE, candidate_counts
from ufda.model import cross_entropy_rows
from ufda.numerics import Rng, l2_normalize_rows
from ufda.pseudolabel import (
    Prototypes,
    assign_pseudo_labels,
    build_all_prototypes,
    topk_count,
)


class TestTopK:
    def test_positive_set_count_rule(self):
        # N_t=12, Ct=4 -> K = 3
        assert topk_count(12, 4) == 3

    def test_floor_and_minimum(self):
        assert topk_count(10, 3) == 3
        assert topk_count(2, 5) == 1

    def test_tie_break_takes_first_indices(self):
        # basis rows: the positive (top-K mean) names the chosen indices
        probs = np.full((5, 2), 0.5)
        protos = build_all_prototypes(np.eye(5), probs, 3, 2, 0.75, Rng(0))
        assert np.array_equal(protos.positives, np.tile([1, 1, 1, 0, 0], (2, 1)) / 3.0)

    def test_direct_ordering(self):
        probs = np.array([[0.9], [0.1], [0.8]])
        protos = build_all_prototypes(np.eye(3), probs, 2, 1, 0.75, Rng(0))
        assert protos.positives.tolist() == [[0.5, 0.0, 0.5]]
        assert protos.negatives.tolist() == [[[0.0, 1.0, 0.0]]]

    def test_bad_k_rejected(self):
        probs = np.full((3, 2), 0.5)
        for k in (0, 4):
            with pytest.raises(ValueError, match="top-k count"):
                build_all_prototypes(np.eye(3), probs, k, 1, 0.75, Rng(0))

    def test_negatives_always_fit_in_the_rest(self):
        # The ct sweep keeps C_t in [2, min(N, SILHOUETTE_SUBSAMPLE) - 1], and the
        # pipeline asks for M = C_t negatives among N - K rows, K = topk_count(N, C_t).
        n = np.arange(4, 3001)
        ct = np.arange(2, SILHOUETTE_SUBSAMPLE)
        rows, cols = np.nonzero(ct[None, :] < np.minimum(n, SILHOUETTE_SUBSAMPLE)[:, None])
        n_of, ct_of = n[rows], ct[cols]
        k_of = np.frompyfunc(topk_count, 2, 1)(n_of, ct_of).astype(np.int64)
        assert np.all(n_of - k_of >= ct_of)
        for n_points in (4, 5, 100, SILHOUETTE_SUBSAMPLE):
            assert max(candidate_counts(1000, n_points)) == n_points - 1  # 3 * C_s clamped

    def test_bad_m_rejected(self):
        probs = np.full((5, 2), 0.5)
        for m in (0, 3):  # the rest holds 5 - 3 = 2 rows
            with pytest.raises(ValueError, match=rf"negative prototype count {m} out of range \[1, 2\]"):
                build_all_prototypes(np.eye(5), probs, 3, m, 0.75, Rng(0))


class TestBuildPrototypes:
    def unit_rows(self, seed, n=12, d=4):
        return l2_normalize_rows(np.random.default_rng(seed).normal(size=(n, d)))

    def test_rho_one_forces_epsilon_one(self):
        feats = self.unit_rows(0)
        probs = np.random.default_rng(1).dirichlet(np.ones(3), size=12)
        protos = build_all_prototypes(feats, probs, 4, 2, 1.0, Rng(0))
        assert np.all(protos.epsilon == 1.0)

    def test_full_confidence_gives_epsilon_one(self):
        feats = self.unit_rows(2, n=6)
        probs = np.zeros((6, 2))
        probs[:, 0] = 1.0
        protos = build_all_prototypes(feats, probs, 3, 2, 0.75, Rng(0))
        assert protos.epsilon[0] == pytest.approx(1.0, abs=1e-15)

    def test_epsilon_arithmetic(self):
        # top-K confidences all 0.4 with rho=0.75 -> 0.85
        feats = self.unit_rows(3, n=5)
        probs = np.full((5, 2), 0.4)
        protos = build_all_prototypes(feats, probs, 4, 1, 0.75, Rng(0))
        assert protos.epsilon == pytest.approx([0.85, 0.85], abs=1e-12)

    def test_positive_is_topk_mean(self):
        feats = self.unit_rows(4, n=6)
        probs = np.zeros((6, 2))
        probs[[1, 4], 0] = 1.0
        protos = build_all_prototypes(feats, probs, 2, 2, 0.75, Rng(0))
        assert np.allclose(protos.positives[0], feats[[1, 4]].mean(axis=0))

    def test_per_class_construction_is_deterministic(self):
        feats = self.unit_rows(6, n=20)
        probs = np.random.default_rng(7).dirichlet(np.ones(4), size=20)
        a = build_all_prototypes(feats, probs, 5, 4, 0.75, Rng(3))
        b = build_all_prototypes(feats, probs, 5, 4, 0.75, Rng(3))
        assert np.array_equal(a.negatives, b.negatives)
        assert np.array_equal(a.epsilon, b.epsilon)


class TestPrototypesMatchDirect:
    """build_all_prototypes against the per-class restatement in helpers."""

    def check(self, feats, probs, k, m, rho, seed):
        got = build_all_prototypes(feats, probs, k, m, rho, Rng(seed))
        want = prototypes_direct(feats, probs, k, m, rho, Rng(seed))
        assert np.array_equal(got.positives, want[0])
        assert np.array_equal(got.negatives, want[1])
        assert np.array_equal(got.epsilon, want[2])

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 40),
        st.sampled_from([1, 2, 3, 8]),
        st.integers(2, 5),
        st.integers(1, 5),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.booleans(),
    )
    def test_random_instances(self, seed, n, d, n_classes, m, rho, tied):
        rng = np.random.default_rng(seed)
        feats = l2_normalize_rows(rng.normal(size=(n, d)) + 1e-3)
        logits = rng.normal(size=(n, n_classes)) * 3.0
        if tied:
            logits = np.round(logits)  # many equal probabilities
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        m = min(m, n - 1)  # leave a row for the top-k
        k = int(rng.integers(1, n - m + 1))  # m negatives fit in the n - k rest
        self.check(feats, probs, k, m, rho, seed)

    def test_rng_split_per_class_even_without_negatives(self):
        # One split per class, whatever the k-means calls read from their own streams.
        feats = l2_normalize_rows(np.random.default_rng(32).normal(size=(6, 3)))
        probs = np.full((6, 4), 0.25)
        rng = Rng(9)
        build_all_prototypes(feats, probs, 4, 2, 0.75, rng)
        ref = Rng(9)
        for _ in range(4):
            ref.split()
        assert rng.next_u64() == ref.next_u64()


def protos_from(positive_list, negative_list, eps_list):
    return Prototypes(
        positives=np.asarray(positive_list, dtype=float),
        negatives=np.asarray(negative_list, dtype=float),
        epsilon=np.asarray(eps_list, dtype=float),
    )


def direct(feats, protos):
    return pseudo_label_direct(feats, protos.positives, protos.negatives, protos.epsilon)


class TestAssign:
    def test_total_symmetry_selects_class_zero(self):
        feats = np.tile([1.0, 0.0], (4, 1))
        same = protos_from(
            [[1.0, 0.0]] * 3,
            [[[1.0, 0.0]]] * 3,
            [1.0, 1.0, 1.0],
        )
        out = assign_pseudo_labels(feats, same)
        assert np.all(out.labels == 0)
        assert np.all(out.fired.sum(axis=1) == 3)

    def test_strict_rejection_gives_uniform(self):
        # sample orthogonal to every positive, close to a negative in every class
        feats = np.array([[0.0, 1.0]])
        protos = protos_from(
            [[1.0, 0.0], [1.0, 0.0]],
            [[[0.3, 0.9]], [[0.3, 0.9]]],
            [1.0, 1.0],
        )
        out = assign_pseudo_labels(feats, protos)
        assert out.labels[0] == -1
        assert np.allclose(out.rows[0], 0.5)

    def test_each_class_scored_against_its_own_negatives(self):
        # class 0's negative sits on the sample, class 1's is orthogonal
        feats = np.array([[1.0, 0.0]])
        protos = protos_from(
            [[1.0, 0.2], [1.0, 0.3]],
            [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, -1.0]]],
            [1.0, 0.8],
        )
        out = assign_pseudo_labels(feats, protos)
        assert out.fired.tolist() == [[False, True]]
        assert out.labels.tolist() == [1]
        assert np.array_equal(out.rows, direct(feats, protos))

    def test_zero_positive_is_degenerate(self):
        protos = protos_from([[0.0, 0.0], [1.0, 0.0]], [[[0.0, 1.0]], [[0.0, 1.0]]], [1.0, 1.0])
        with pytest.raises(ValueError, match="degenerate feature"):
            assign_pseudo_labels(np.array([[1.0, 0.0]]), protos)

    def six_point_instance(self):
        # two known clusters at 0 and 90 degrees, one private cluster at 180
        angles = [0.0, 0.05, math.pi / 2, math.pi / 2 + 0.05, math.pi, math.pi + 0.05]
        feats = np.array([[math.cos(a), math.sin(a)] for a in angles])
        probs = np.array([
            [0.9, 0.1], [0.85, 0.15],
            [0.1, 0.9], [0.15, 0.85],
            [0.5, 0.5], [0.5, 0.5],
        ])
        return feats, probs

    def test_six_point_instance_matches_brute_force(self):
        feats, probs = self.six_point_instance()
        protos = build_all_prototypes(feats, probs, k=2, m=3, rho=0.75, rng=Rng(0))
        out = assign_pseudo_labels(feats, protos)
        assert np.array_equal(out.rows, direct(feats, protos))
        # known clusters one-hot to classes 0/1, private cluster uniform
        assert out.labels[:2].tolist() == [0, 0]
        assert out.labels[2:4].tolist() == [1, 1]
        assert out.labels[4:].tolist() == [-1, -1]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_are_one_hot_or_uniform(self, seed):
        rng = np.random.default_rng(seed)
        n, n_classes = int(rng.integers(4, 25)), int(rng.integers(2, 5))
        feats = l2_normalize_rows(rng.normal(size=(n, 3)))
        probs = rng.dirichlet(np.ones(n_classes), size=n)
        protos = build_all_prototypes(feats, probs, max(1, n // 3), 2, 0.75, Rng(seed))
        out = assign_pseudo_labels(feats, protos)
        for i, row in enumerate(out.rows):
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            if out.labels[i] == -1:
                assert np.all(row == 1.0 / n_classes)
            else:
                assert row[out.labels[i]] == 1.0
                assert np.count_nonzero(row) == 1

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_direct_rule(self, seed):
        rng = np.random.default_rng(seed)
        n, n_classes = int(rng.integers(4, 20)), int(rng.integers(2, 4))
        feats = l2_normalize_rows(rng.normal(size=(n, 3)))
        probs = rng.dirichlet(np.ones(n_classes), size=n)
        protos = build_all_prototypes(feats, probs, max(1, n // 4), 3, 0.75, Rng(seed))
        got = assign_pseudo_labels(feats, protos)
        assert np.array_equal(got.rows, direct(feats, protos))

    def test_rho_one_matches_unsuppressed_rule(self):
        rng = np.random.default_rng(13)
        feats = l2_normalize_rows(rng.normal(size=(30, 4)))
        probs = rng.dirichlet(np.ones(3), size=30)
        suppressed = build_all_prototypes(feats, probs, 7, 3, 1.0, Rng(5))
        # the raw nearest-centroid rule
        plain = Prototypes(suppressed.positives, suppressed.negatives, np.ones(3))
        a = assign_pseudo_labels(feats, suppressed)
        b = assign_pseudo_labels(feats, plain)
        assert np.array_equal(a.rows, b.rows)

    def test_raising_epsilon_never_unfires(self):
        rng = np.random.default_rng(17)
        feats = l2_normalize_rows(rng.normal(size=(20, 3)))
        probs = rng.dirichlet(np.ones(3), size=20)
        protos = build_all_prototypes(feats, probs, 5, 2, 0.75, Rng(2))
        base = assign_pseudo_labels(feats, protos)
        for c in range(3):
            epsilon = protos.epsilon.copy()
            epsilon[c] = min(1.0, epsilon[c] + 0.2)
            out = assign_pseudo_labels(feats, Prototypes(protos.positives, protos.negatives, epsilon))
            # every sample that fired class c before still fires it
            assert np.all(out.fired[base.fired[:, c], c])

    def test_repeat_call_is_identical(self):
        rng = np.random.default_rng(23)
        feats = l2_normalize_rows(rng.normal(size=(15, 3)))
        probs = rng.dirichlet(np.ones(3), size=15)
        protos = build_all_prototypes(feats, probs, 4, 2, 0.75, Rng(4))
        a = assign_pseudo_labels(feats, protos)
        b = assign_pseudo_labels(feats, protos)
        assert np.array_equal(a.rows, b.rows)


class TestLossGlobal:
    def test_perfect_match_is_zero(self):
        rows = np.array([[1.0, 0.0]])
        probs = np.array([[1.0, 0.0]])
        assert cross_entropy_rows(probs, rows)[0] == pytest.approx(0.0, abs=1e-10)

    def test_uniform_against_uniform(self):
        rows = np.full((3, 4), 0.25)
        probs = np.full((3, 4), 0.25)
        assert cross_entropy_rows(probs, rows)[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_frozen_value(self):
        got, _ = cross_entropy_rows(np.array([[0.8, 0.2]]), np.array([[1.0, 0.0]]))
        assert got == pytest.approx(0.22314355131420976, abs=1e-6)
