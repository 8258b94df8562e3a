import itertools
import math
import sys
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the oracle; the library does not import it

from helpers import exhaustive_assignment, greedy_assignment
from ufda import evaluation
from ufda.evaluation import (
    UNKNOWN,
    evaluate,
    hungarian,
    match_accuracy,
    ncd_accuracy,
    novel_class_count,
)
from ufda.model import AdaptModel, forward_batch
from ufda.numerics import Rng, normalized_entropy_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import pipeline  # noqa: E402


def probe_model(probs_rows):
    """Linear model rigged so forward(e_i) yields softmax(logits_row_i)."""
    probs_rows = np.asarray(probs_rows, dtype=float)
    n, c = probs_rows.shape
    logits = np.log(np.maximum(probs_rows, 1e-300))
    # identity encoder on n-dim inputs, classifier = logits rows
    return AdaptModel(
        w1=np.eye(n), b1=np.zeros(n),
        w2=np.eye(n), b2=np.zeros(n),
        wc=logits, bc=np.zeros(c),
        classifier_frozen=True,
    )


def probe_report(probs_rows, labels, omega):
    """Evaluate the probe model of probs_rows on its basis-vector inputs, without NCD."""
    n = len(probs_rows)
    return evaluate(probe_model(probs_rows), np.eye(n, n), np.asarray(labels), omega, n_private=None, rng=Rng(0))


def report_from_predictions(preds, truth, n_classes=2):
    """Report whose per-sample predictions are preds: a class index becomes
    a one-hot probe row, UNKNOWN a uniform row (entropy exactly 1)."""
    rows = np.full((len(preds), n_classes), 1.0 / n_classes)
    for i, p in enumerate(preds):
        if p != UNKNOWN:
            rows[i] = np.eye(n_classes)[p]
    return probe_report(rows, truth, 0.55)


class TestPredict:
    """evaluate's prediction rule: UNKNOWN at entropy >= omega, else argmax."""

    def test_uniform_probs_rejected_as_unknown(self):
        rows = [[0.25, 0.25, 0.25, 0.25]]
        assert probe_report(rows, [0], 0.55).known_rejected == 1
        assert probe_report(rows, [0], 1.0).known_rejected == 1  # entropy exactly 1

    def test_one_hot_probs_accepted(self):
        rows = [[0.0, 1.0, 0.0]]
        assert probe_report(rows, [1], 0.55).known_correct == 1
        assert probe_report(rows, [1], 1e-12).known_correct == 1  # entropy ~0

    def test_frozen_entropy_value(self):
        # C=2, probs (0.9, 0.1): I = 0.468996 < 0.55 -> class 0
        rows = [[0.9, 0.1]]
        assert probe_report(rows, [0], 0.55).known_correct == 1
        assert probe_report(rows, [0], 0.4689955935892812).known_rejected == 1
        assert probe_report(rows, [0], 0.4689955935892812 + 1e-12).known_correct == 1

    def test_omega_one_accepts_everything_below_max_entropy(self):
        report = probe_report([[0.6, 0.4], [0.5, 0.5]], [0, 1], 1.0)
        assert report.known_correct == 1
        assert report.known_rejected == 1  # entropy exactly 1 >= omega
        assert report.known_wrong_class == 0

    def test_tiny_omega_rejects_any_uncertainty(self):
        assert probe_report([[0.999, 0.001]], [0], 1e-9).known_rejected == 1
        # exactly zero entropy stays accepted
        assert probe_report([[1.0, 0.0]], [0], 1e-9).known_correct == 1

    def test_bad_omega_rejected(self):
        for omega in (0.0, 1.5):
            with pytest.raises(ValueError, match="omega"):
                probe_report([[0.5, 0.5]], [0], omega)


class TestHScore:
    def test_both_perfect(self):
        report = report_from_predictions([0, 1, UNKNOWN], [0, 1, 7])
        assert report.h_score == pytest.approx(1.0)

    def test_harmonic_mean_arithmetic(self):
        # a=0.6 (3/5 known right), b=0.8 (4/5 unknown right) -> 0.685714
        report = report_from_predictions([0, 0, 0, 1, 1] + [UNKNOWN] * 4 + [0], [0] * 5 + [7] * 5)
        assert (report.known_acc, report.unknown_acc) == (0.6, 0.8)
        assert report.h_score == pytest.approx(0.6857142857142857, abs=1e-6)

    def test_zero_side_gives_zero(self):
        assert report_from_predictions([1, UNKNOWN], [0, 5]).h_score == 0.0

    def test_one_sided_truth_gives_nan(self):
        known_only = report_from_predictions([0], [0])
        assert known_only.known_acc == 1.0
        assert math.isnan(known_only.unknown_acc) and math.isnan(known_only.h_score)
        unknown_only = report_from_predictions([UNKNOWN], [5])
        assert unknown_only.unknown_acc == 1.0
        assert math.isnan(unknown_only.known_acc) and math.isnan(unknown_only.h_score)

    def test_bounds(self):
        report = report_from_predictions([0, 1, UNKNOWN, UNKNOWN], [0, 0, 5, 5])
        a, b, h = report.known_acc, report.unknown_acc, report.h_score
        assert h <= 2 * min(a, b)
        assert h <= 1.0


class TestHungarian:
    def test_identity_on_zero_diagonal(self):
        assert hungarian(np.array([[0.0, 1.0], [1.0, 0.0]])).tolist() == [0, 1]

    def test_two_by_two_swap(self):
        assert hungarian(np.array([[4.0, 1.0], [2.0, 3.0]])).tolist() == [1, 0]

    def test_lexicographic_tie_break(self):
        # all-equal costs: every permutation optimal, identity is lex-smallest
        assert hungarian(np.ones((4, 4))).tolist() == [0, 1, 2, 3]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.ones((2, 3)))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        cost = rng.integers(0, 10, size=(n, n)).astype(float)
        assert hungarian(cost).tolist() == exhaustive_assignment(cost).tolist()

    def test_large_costs_give_a_permutation(self):
        # Sums near 2.5e7 round by more than 1e-9, which once left a row with
        # no column and the next tail matrix not square.
        cost = np.array([
            [6989345.714285715, 10422551.714285715, 9904117.285714285],
            [7496294.285714285, 11837974.0, 8833800.857142856],
            [7025483.857142857, 8441848.0, 8788671.285714285],
        ])
        assert hungarian(cost).tolist() == exhaustive_assignment(cost).tolist() == [0, 2, 1]

    @pytest.mark.parametrize("scale", [1e-7, 1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_matches_exhaustive_search_at_every_cost_scale(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 100)
        for n in range(1, 7):
            for _ in range(10):
                # integer costs tie, and their distinct totals lie >= scale apart
                for cost in (scale * rng.integers(0, 8, size=(n, n)), scale * rng.normal(size=(n, n))):
                    assert hungarian(cost).tolist() == exhaustive_assignment(cost).tolist(), (scale, cost)

    @pytest.mark.parametrize("n", [8, 12, 20, 30, 40])
    def test_matches_the_unpruned_greedy(self, n):
        rng = np.random.default_rng(2000 + n)
        for samples in (n, 5 * n, 20 * n):
            counts = np.zeros((n, n))
            np.add.at(counts, (rng.integers(0, n, samples), rng.integers(0, n, samples)), 1.0)
            cost = counts.max() - counts  # match_accuracy's form
            assert hungarian(cost).tolist() == greedy_assignment(cost).tolist()
        for cost in (rng.integers(0, 8, size=(n, n)).astype(float), rng.normal(size=(n, n))):  # criterion 2's kinds
            assert hungarian(cost).tolist() == greedy_assignment(cost).tolist()

    def test_mixed_scale_total_within_tolerance_of_the_optimum(self):
        # Entries spanning 16 decades: the returned total is not always the
        # exact optimum (8 of these 3000 exceed it, the largest gap 96 % of
        # the tolerance), but it is always within hungarian's tolerance of it.
        n = 6
        perms = np.array(list(itertools.permutations(range(n))))
        rng = np.random.default_rng(1)
        for _ in range(3000):
            cost = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-7, 9, size=(n, n))
            tol = 4 * (n + 1) * np.finfo(np.float64).eps * n * np.abs(cost).sum(axis=1).max()
            perm = hungarian(cost)
            assert sorted(perm.tolist()) == list(range(n))

            def exact(p):
                return sum(Fraction(float(cost[i, j])) for i, j in enumerate(p))

            # Float totals round by less than tol, so every exact optimum lies in this set.
            totals = cost[np.arange(n), perms].sum(axis=1)
            optimum = min(exact(p) for p in perms[totals <= totals.min() + 2 * tol])
            assert exact(perm) - optimum <= Fraction(float(tol)), cost

    def test_a_row_with_no_column_is_an_error(self, monkeypatch):
        solve = evaluation._min_assignment_cost

        def optimum_too_low(cost):  # the whole matrix's optimum, and only it, reported 1 too low
            total, reduced = solve(cost)
            return (total - 1.0 if cost.shape == (3, 3) else total), reduced

        monkeypatch.setattr(evaluation, "_min_assignment_cost", optimum_too_low)
        with pytest.raises(RuntimeError, match="row 0"):
            hungarian(np.eye(3))


def scipy_optimum(cost):
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


class TestMinAssignmentCost:
    """The solver behind hungarian reaches SciPy's optimum."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_random_float_matrices(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 100.0):
            cost = scale * rng.normal(size=(n, n))
            assert evaluation._min_assignment_cost(cost)[0] == pytest.approx(scipy_optimum(cost), abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_tie_heavy_integer_matrices(self, n):
        rng = np.random.default_rng(1000 + n)
        for samples in (n, 5 * n):
            counts = np.zeros((n, n))
            np.add.at(counts, (rng.integers(0, n, samples), rng.integers(0, n, samples)), 1.0)
            cost = counts.max() - counts  # match_accuracy's form
            assert evaluation._min_assignment_cost(cost)[0] == pytest.approx(scipy_optimum(cost), abs=1e-9)
        cost = rng.integers(0, 3, size=(n, n)).astype(float)
        assert evaluation._min_assignment_cost(cost)[0] == pytest.approx(scipy_optimum(cost), abs=1e-9)

    def test_one_by_one_and_empty(self):
        assert evaluation._min_assignment_cost(np.array([[-2.5]]))[0] == -2.5
        assert evaluation._min_assignment_cost(np.zeros((0, 0)))[0] == 0.0

    def test_all_equal(self):
        assert evaluation._min_assignment_cost(np.full((7, 7), 1.5))[0] == 10.5


class TestMatchAccuracy:
    def test_relabeling_invariance(self):
        truth = np.array([0, 0, 1, 1])
        assert match_accuracy(np.array([1, 1, 0, 0]), truth) == 1.0
        assert match_accuracy(np.array([0, 0, 1, 1]), truth) == 1.0

    def test_half_right(self):
        truth = np.array([0, 0, 1, 1])
        assert match_accuracy(np.array([0, 1, 0, 1]), truth) == 0.5

    def test_padding_when_counts_differ(self):
        # 3 clusters vs 2 labels: zero-padded square matching still works
        truth = np.array([0, 0, 0, 1, 1, 1])
        clusters = np.array([0, 0, 2, 1, 1, 1])
        assert match_accuracy(clusters, truth) == pytest.approx(5.0 / 6.0)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_best_mapping_by_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        clusters = rng.choice([-1, 3, 8, 40], size=n)
        truth = rng.choice([0, 6, 7], size=n)
        ids, labels = sorted(set(clusters)), sorted(set(truth))
        best = max(
            sum(int(np.sum((clusters == c) & (truth == labels[j]))) for c, j in zip(ids, perm) if j < len(labels))
            for perm in itertools.permutations(range(max(len(ids), len(labels))))
        )
        assert match_accuracy(clusters, truth) == best / n

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="do not align"):
            match_accuracy(np.array([0, 1, 1]), np.array([0, 1]))
        with pytest.raises(ValueError, match="do not align"):
            match_accuracy(np.array([0, 1]), np.array([[0, 1]]))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance_random(self, seed):
        rng = np.random.default_rng(seed)
        clusters = rng.integers(0, 4, size=20)
        truth = rng.integers(0, 4, size=20)
        base = match_accuracy(clusters, truth)
        perm = rng.permutation(4)
        assert match_accuracy(perm[clusters], truth) == pytest.approx(base, abs=1e-12)


class TestNcdAccuracy:
    def separated_privates(self, seed):
        rng = np.random.default_rng(seed)
        centers = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
        feats = np.concatenate([c + 0.1 * rng.normal(size=(30, 3)) for c in centers])
        labels = np.repeat([6, 7, 8], 30)
        return feats, labels

    def test_perfectly_separated_clusters_across_seeds(self):
        for seed in range(5):
            feats, labels = self.separated_privates(seed)
            assert ncd_accuracy(feats, labels, 3, Rng(seed)) == 1.0

    def test_misaligned_labels_rejected(self):
        # one label used to broadcast against all 90 cluster ids
        feats, _ = self.separated_privates(0)
        with pytest.raises(ValueError, match="do not align"):
            ncd_accuracy(feats, np.array([7]), 3, Rng(1))

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ncd_accuracy(np.ones((1, 2)), np.array([6]), 2, Rng(0))
        with pytest.raises(ValueError):
            ncd_accuracy(np.ones((5, 2)), np.arange(5), 1, Rng(0))


class TestNovelClassCount:
    def test_counts_distinct_labels_at_or_above_the_class_count(self):
        labels = np.array([0, 5, 6, 6, 8, 2, 8])
        assert novel_class_count(labels, 6) == 2  # 6 and 8
        assert novel_class_count(labels, 2) == 4  # 2, 5, 6 and 8

    def test_none_below_two(self):
        assert novel_class_count(np.array([0, 1, 6, 6]), 6) is None
        assert novel_class_count(np.array([0, 1, 2]), 6) is None
        assert novel_class_count(np.array([], dtype=np.int64), 6) is None


class TestEvaluate:
    def test_closed_accuracy_counts_unknown_predictions_as_errors(self):
        model = probe_model([[0.99, 0.01], [0.5, 0.5], [0.01, 0.99]])
        labels = np.array([0, 0, 1])
        report = evaluate(model, np.eye(3, 3), labels, 0.55, n_private=None, rng=Rng(0))
        assert report.closed_acc == pytest.approx(2.0 / 3.0)
        assert np.isnan(report.h_score)
        assert np.isnan(report.ncd_acc)

    def test_open_set_report(self):
        model = probe_model([
            [0.99, 0.01], [0.01, 0.99],   # two known, confidently right
            [0.55, 0.45], [0.45, 0.55],   # two unknown, high entropy
        ])
        labels = np.array([0, 1, 5, 6])
        report = evaluate(model, np.eye(4, 4), labels, 0.55, n_private=None, rng=Rng(0))
        assert report.known_acc == 1.0
        assert report.unknown_acc == 1.0
        assert report.h_score == 1.0
        assert report.n_known == 2 and report.n_unknown == 2
        assert report.unknown_rejected == 2

    def test_machine_lines_fixed_key_set(self):
        model = probe_model([[0.9, 0.1]])
        report = evaluate(model, np.eye(1, 1), np.array([0]), 0.55, n_private=None, rng=Rng(0))
        lines = report.machine_lines()
        keys = [line.split("\t")[0] for line in lines]
        assert keys == [
            "n_samples", "n_known", "n_unknown",
            "known_acc", "unknown_acc", "h_score", "closed_acc", "ncd_acc",
            "known_correct", "known_wrong_class", "known_rejected",
            "unknown_rejected", "unknown_accepted",
        ]
        for line in lines:
            assert len(line.split("\t")) == 2

    def test_misaligned_labels_rejected(self):
        model = probe_model([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="do not align"):
            evaluate(model, np.eye(2, 2), np.array([0]), 0.55, n_private=None, rng=Rng(0))
        with pytest.raises(ValueError, match="do not align"):
            evaluate(model, np.eye(2, 2), np.array([[0, 1]]), 0.55, n_private=None, rng=Rng(0))

    def test_negative_labels_rejected(self):
        # a -1 label would be counted as a known sample
        model = probe_model([[0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(ValueError, match="non-negative"):
            evaluate(model, np.ones((2, 2)), np.array([-1, 0]), 1.0, n_private=None, rng=Rng(0))

    def test_empty_target_gives_nan_rates(self):
        report = evaluate(probe_model([[0.9, 0.1]]), np.zeros((0, 1)), np.zeros(0, dtype=int), 0.55,
                          n_private=2, rng=Rng(0))
        assert (report.n_samples, report.n_known, report.n_unknown) == (0, 0, 0)
        for name in ("known_acc", "unknown_acc", "h_score", "closed_acc", "ncd_acc"):
            value = getattr(report, name)
            assert type(value) is float and math.isnan(value), name

    def test_ncd_clusters_features_of_the_single_forward_pass(self, monkeypatch):
        rng = np.random.default_rng(0)
        centers = 10.0 * np.eye(3)
        unknown = np.concatenate([c + 0.1 * rng.normal(size=(30, 3)) for c in centers])
        x = np.concatenate([rng.normal(size=(10, 3)), unknown])
        labels = np.concatenate([np.zeros(10, dtype=int), np.repeat([6, 7, 8], 30)])
        # identity encoder (ReLU keeps the clusters apart), uniform classifier
        model = AdaptModel(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3),
                           np.zeros((3, 2)), np.zeros(2), classifier_frozen=True)
        rows = []

        def counting_forward(m, inputs):
            rows.append(len(inputs))
            return forward_batch(m, inputs)

        monkeypatch.setattr(evaluation, "forward_batch", counting_forward)
        report = evaluate(model, x, labels, 0.55, n_private=3, rng=Rng(4))
        assert rows == [100]
        features = forward_batch(model, x).features
        assert report.ncd_acc == ncd_accuracy(features[10:], labels[10:], 3, Rng(4)) == 1.0
        assert report.unknown_rejected == 90 and report.known_rejected == 10


class TestEvaluateMatchesOracle:
    """Every EvalReport field equals perfbench's independent recomputation
    (pipeline.oracle_report), bit for bit and with the same Python type."""

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        truth=st.sampled_from(["mixed", "known", "unknown"]),
        omega_rule=st.sampled_from(["random", "one", "at_an_entropy", "reject_all"]),
    )
    def test_random_probe_models(self, seed, n, truth, omega_rule):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.full(n_classes, 0.5), size=max(n, 1))
        rows[rng.random(len(rows)) < 0.2] = 1.0 / n_classes  # exactly uniform rows
        model = probe_model(rows)
        features = np.eye(len(rows))[:n]
        is_unknown = {"mixed": rng.random(n) < 0.5, "known": np.zeros(n, bool), "unknown": np.ones(n, bool)}[truth]
        labels = np.where(is_unknown, rng.integers(n_classes, n_classes + 3, size=n),
                          rng.integers(0, n_classes, size=n))

        entropies = normalized_entropy_rows(forward_batch(model, features).probs, n_classes)
        positive = entropies[entropies > 0.0]
        omega = {
            "random": 1.0 - rng.random(),
            "one": 1.0,
            "at_an_entropy": rng.choice(positive) if positive.size else 1.0,
            "reject_all": positive.min() if positive.size == n and n else 1.0,
        }[omega_rule]

        report = evaluate(model, features, labels, float(omega), n_private=None, rng=Rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the mean over an empty target
            expected = pipeline.oracle_report(model, features, labels, float(omega))
        assert set(expected) | {"ncd_acc"} == {f.name for f in fields(report)}
        for name, value in expected.items():
            got = getattr(report, name)
            assert type(got) is type(value), name
            assert got == value or (math.isnan(got) and math.isnan(value)), (name, got, value)
        assert math.isnan(report.ncd_acc)
        if omega_rule == "reject_all" and positive.size == n:
            assert report.known_rejected + report.unknown_rejected == n
