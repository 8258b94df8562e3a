import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_assignment, random_model
from ufda.evaluation import (
    UNKNOWN,
    closed_accuracy,
    evaluate,
    h_score,
    hungarian,
    match_accuracy,
    ncd_accuracy,
    predict,
)
from ufda.model import AdaptModel
from ufda.numerics import Rng


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


class TestPredict:
    def test_uniform_probs_rejected_as_unknown(self):
        model = probe_model([[0.25, 0.25, 0.25, 0.25]])
        preds = predict(model, np.eye(1, 1), 0.55)
        assert preds.labels[0] == UNKNOWN
        assert preds.entropies[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_probs_accepted(self):
        model = probe_model([[0.0, 1.0, 0.0]])
        preds = predict(model, np.eye(1, 1), 0.55)
        assert preds.labels[0] == 1
        assert preds.entropies[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_entropy_value(self):
        # C=2, probs (0.9, 0.1): I = 0.468996 < 0.55 -> class 0
        model = probe_model([[0.9, 0.1]])
        preds = predict(model, np.eye(1, 1), 0.55)
        assert preds.entropies[0] == pytest.approx(0.4689955935892812, abs=1e-6)
        assert preds.labels[0] == 0

    def test_omega_one_accepts_everything_below_max_entropy(self):
        model = probe_model([[0.6, 0.4], [0.5, 0.5]])
        preds = predict(model, np.eye(2, 2), 1.0)
        assert preds.labels[0] == 0
        assert preds.labels[1] == UNKNOWN  # entropy exactly 1 >= omega

    def test_tiny_omega_rejects_any_uncertainty(self):
        model = probe_model([[0.999, 0.001], [1.0, 0.0]])
        preds = predict(model, np.eye(2, 2), 1e-9)
        assert preds.labels[0] == UNKNOWN
        assert preds.labels[1] == 0  # exactly zero entropy stays accepted

    def test_bad_omega_rejected(self):
        model = probe_model([[0.5, 0.5]])
        with pytest.raises(ValueError):
            predict(model, np.eye(1, 1), 0.0)
        with pytest.raises(ValueError):
            predict(model, np.eye(1, 1), 1.5)


class TestHScore:
    def test_both_perfect(self):
        preds = np.array([0, 1, UNKNOWN])
        truth = np.array([0, 1, 7])
        unk = np.array([False, False, True])
        assert h_score(preds, truth, unk)[2] == pytest.approx(1.0)

    def test_harmonic_mean_arithmetic(self):
        # a=0.6 (3/5 known right), b=0.8 (4/5 unknown right) -> 0.685714
        preds = np.array([0, 0, 0, 9, 9] + [UNKNOWN] * 4 + [0])
        truth = np.array([0, 0, 0, 0, 0] + [7] * 5)
        unk = np.array([False] * 5 + [True] * 5)
        a, b, h = h_score(preds, truth, unk)
        assert (a, b) == (0.6, 0.8)
        assert h == pytest.approx(0.6857142857142857, abs=1e-6)

    def test_zero_side_gives_zero(self):
        preds = np.array([1, UNKNOWN])
        truth = np.array([0, 5])
        unk = np.array([False, True])
        assert h_score(preds, truth, unk)[2] == 0.0

    def test_one_sided_truth_rejected(self):
        with pytest.raises(ValueError, match="H-score undefined"):
            h_score(np.array([0]), np.array([0]), np.array([False]))

    def test_bounds(self):
        preds = np.array([0, 1, UNKNOWN, UNKNOWN])
        truth = np.array([0, 0, 5, 5])
        unk = np.array([False, False, True, True])
        a, b, h = h_score(preds, truth, unk)
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

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ncd_accuracy(np.ones((1, 2)), np.array([6]), 2, Rng(0))
        with pytest.raises(ValueError):
            ncd_accuracy(np.ones((5, 2)), np.arange(5), 1, Rng(0))


class TestEvaluate:
    def test_closed_accuracy_counts_unknown_predictions_as_errors(self):
        model = probe_model([[0.99, 0.01], [0.5, 0.5], [0.01, 0.99]])
        labels = np.array([0, 0, 1])
        report = evaluate(model, np.eye(3, 3), labels, 0.55)
        assert report.closed_acc == pytest.approx(2.0 / 3.0)
        assert np.isnan(report.h_score)
        assert np.isnan(report.ncd_acc)

    def test_open_set_report(self):
        model = probe_model([
            [0.99, 0.01], [0.01, 0.99],   # two known, confidently right
            [0.55, 0.45], [0.45, 0.55],   # two unknown, high entropy
        ])
        labels = np.array([0, 1, 5, 6])
        report = evaluate(model, np.eye(4, 4), labels, 0.55)
        assert report.known_acc == 1.0
        assert report.unknown_acc == 1.0
        assert report.h_score == 1.0
        assert report.n_known == 2 and report.n_unknown == 2
        assert report.unknown_rejected == 2

    def test_machine_lines_fixed_key_set(self):
        model = probe_model([[0.9, 0.1]])
        report = evaluate(model, np.eye(1, 1), np.array([0]), 0.55)
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
