import math

import numpy as np
import pytest

from helpers import fd_gradient, flatten_params, random_model, rel_err
from ufda.model import (
    LOG_CLAMP,
    AdaptModel,
    ModelDims,
    Optimizer,
    backward,
    checkpoint_lines,
    cross_entropy_rows,
    forward_batch,
    init_model,
    parse_checkpoint,
    sgd_step,
    smoothed_targets,
)
from ufda.numerics import Rng


def small_model(frozen=False):
    return random_model(np.random.default_rng(0), frozen=frozen)


def forward_one(model, x):
    return forward_batch(model, np.array([x], dtype=np.float64))


def source_loss(probs, labels, alpha):
    """Cross entropy against label-smoothed targets, as pretraining takes it."""
    return cross_entropy_rows(probs, smoothed_targets(labels, probs.shape[1], alpha))


def source_loss_one(probs, label, alpha):
    loss, _ = source_loss(np.array([probs], dtype=np.float64), np.array([label]), alpha)
    return loss


class TestForward:
    def test_constant_network_gives_uniform(self):
        dims = ModelDims(3, 4, 2, 5)
        model = AdaptModel(
            w1=np.zeros((3, 4)), b1=np.zeros(4),
            w2=np.zeros((4, 2)), b2=np.array([1.0, -2.0]),
            wc=np.zeros((2, 5)), bc=np.zeros(5),
        )
        fwd = forward_one(model, [9.0, -3.0, 2.0])
        assert np.allclose(fwd.features[0], [1.0, -2.0])
        assert np.allclose(fwd.probs[0], 0.2)

    def test_identical_inputs_identical_records(self):
        model = small_model()
        x = [0.3, -1.2, 0.7, 2.0]
        a = forward_one(model, x)
        b = forward_one(model, x)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.features, b.features)

    def test_purity_no_hidden_state(self):
        model = small_model()
        x = [1.0, 2.0, 3.0, 4.0]
        before = forward_one(model, x).probs.copy()
        forward_one(model, [5.0, 6.0, 7.0, 8.0])
        assert np.array_equal(forward_one(model, x).probs, before)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            forward_one(small_model(), [1.0, 2.0])


class TestLossSource:
    def test_perfect_prediction_zero(self):
        assert source_loss_one([0.0, 1.0, 0.0], 1, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_prediction(self):
        assert source_loss_one(np.full(4, 0.25), 2, 0.0) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_smoothed_value(self):
        # 0.95*(-log 0.8) + 0.05*(-log 0.2), evaluated at 40 digits
        got = source_loss_one([0.8, 0.2], 0, 0.1)
        assert got == pytest.approx(0.2924582693702043, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            source_loss_one([0.5, 0.5], 2, 0.0)

    def test_batch_matches_single(self):
        probs = np.array([[0.8, 0.2], [0.3, 0.7]])
        loss, _ = source_loss(probs, np.array([0, 1]), 0.1)
        singles = (source_loss_one(probs[0], 0, 0.1) + source_loss_one(probs[1], 1, 0.1)) / 2
        assert loss == pytest.approx(singles, abs=1e-12)

    def test_smoothed_rows(self):
        rows = smoothed_targets(np.array([2, 0, 2]), 4, 0.2)
        expected = np.full((3, 4), 0.05)
        expected[[0, 1, 2], [2, 0, 2]] += 0.8
        assert np.array_equal(rows, expected)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_smoothed_targets_reject_out_of_range_labels(self, label):
        with pytest.raises(ValueError, match="label out of range"):
            smoothed_targets(np.array([0, label]), 3, 0.1)


class TestMeanOracle:
    """backward's bias gradients and cross_entropy_rows' loss divide a sum by
    the batch size; that is np.mean's own add-reduce and divide, so the
    values equal the np.mean formulas bit for bit, tail batches included."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_bias_gradients_and_loss_equal_np_mean(self, frozen):
        rng = np.random.default_rng(5)
        for b in [1, 2, 3, 7, 8, 9, 16, 17, 31, 33, 63, 64, *rng.integers(1, 65, size=8)]:
            model = random_model(rng, d_in=16, d_hidden=64, d_feat=32, n_classes=6, frozen=frozen)
            fwd = forward_batch(model, rng.normal(size=(b, 16)))
            targets = smoothed_targets(rng.integers(0, 6, size=b), 6, 0.1)
            d_feature = rng.normal(size=(b, 32)) if b % 2 else None
            loss, d_logits = cross_entropy_rows(fwd.probs, targets)
            grads = backward(model, fwd, d_logits=d_logits, d_feature=d_feature)

            assert loss == float(np.mean(-np.sum(targets * np.log(np.maximum(fwd.probs, LOG_CLAMP)), axis=1)))
            d_feat = d_logits @ model.wc.T
            if d_feature is not None:
                d_feat = d_feat + d_feature
            d_z1 = (d_feat @ model.w2.T) * (fwd.z1 > 0.0)
            oracle = {"b1": np.mean(d_z1, axis=0), "b2": np.mean(d_feat, axis=0)}
            if not frozen:
                oracle["bc"] = np.mean(d_logits, axis=0)
            for name, value in oracle.items():
                assert grads[name].tobytes() == value.tobytes(), (b, name)


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        model = small_model()
        fwd = forward_batch(model, np.random.default_rng(1).normal(size=(6, 4)))
        grads = backward(model, fwd, d_logits=np.zeros_like(fwd.logits))
        assert list(grads) == ["wc", "bc", "w1", "b1", "w2", "b2"]
        for name, grad in grads.items():
            assert not np.any(grad), name

    def test_duplicated_batch_matches_single(self):
        model = small_model()
        x = np.array([[0.5, -1.0, 2.0, 0.1]])
        fwd1 = forward_batch(model, x)
        loss1, d1 = source_loss(fwd1.probs, np.array([1]), 0.1)
        g1 = backward(model, fwd1, d_logits=d1)

        x3 = np.repeat(x, 3, axis=0)
        fwd3 = forward_batch(model, x3)
        loss3, d3 = source_loss(fwd3.probs, np.array([1, 1, 1]), 0.1)
        g3 = backward(model, fwd3, d_logits=d3)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.allclose(g1[name], g3[name], atol=1e-14)

    def test_frozen_classifier_has_no_grads(self):
        model = small_model(frozen=True)
        fwd = forward_batch(model, np.random.default_rng(2).normal(size=(4, 4)))
        _, d = source_loss(fwd.probs, np.array([0, 1, 2, 0]), 0.0)
        assert sorted(backward(model, fwd, d_logits=d)) == ["b1", "b2", "w1", "w2"]
        feature_only = backward(model, fwd, np.zeros_like(fwd.logits), d_feature=np.ones_like(fwd.features))
        assert sorted(feature_only) == ["b1", "b2", "w1", "w2"]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            model = random_model(rng)
            x = rng.normal(size=(5, 4))
            labels = rng.integers(0, 3, size=5)
            names = model.trainable_names()

            def loss_fn(m):
                f = forward_batch(m, x)
                loss, _ = source_loss(f.probs, labels, 0.1)
                return loss

            fwd = forward_batch(model, x)
            _, d = source_loss(fwd.probs, labels, 0.1)
            grads = backward(model, fwd, d_logits=d)
            analytic = np.concatenate([grads.get(n).ravel() for n in names])
            numeric = fd_gradient(model, names, loss_fn)
            assert rel_err(analytic, numeric) < 1e-4


class TestSgd:
    def test_zero_gradient_fixed_point(self):
        model = small_model()
        before = flatten_params(model, ("w1", "b1", "w2", "b2", "wc", "bc")).copy()
        opt = Optimizer.for_model(model, lr=0.1, momentum=0.9)
        fwd = forward_batch(model, np.zeros((2, 4)))
        grads = backward(model, fwd, d_logits=np.zeros_like(fwd.logits))
        sgd_step(opt, model, grads)
        assert np.array_equal(before, flatten_params(model, ("w1", "b1", "w2", "b2", "wc", "bc")))

    def test_momentum_recurrence(self):
        # v=0, g=1 twice with momentum 0.9, lr 0.1: steps of 0.1 then 0.19
        model = small_model()
        w_before = model.w1.copy()
        opt = Optimizer.for_model(model, lr=0.1, momentum=0.9)
        fwd = forward_batch(model, np.zeros((1, 4)))
        grads = backward(model, fwd, d_logits=np.zeros_like(fwd.logits))
        grads["w1"] = np.ones_like(model.w1)
        sgd_step(opt, model, grads)
        assert np.allclose(w_before - model.w1, 0.1, atol=1e-15)
        sgd_step(opt, model, grads)
        assert np.allclose(w_before - model.w1, 0.1 + 0.19, atol=1e-15)

    def test_frozen_classifier_untouched_by_100_random_steps(self):
        model = small_model(frozen=True)
        wc, bc = model.wc.copy(), model.bc.copy()
        opt = Optimizer.for_model(model, lr=0.05, momentum=0.9)
        rng = np.random.default_rng(4)
        for _ in range(100):
            fwd = forward_batch(model, rng.normal(size=(3, 4)))
            _, d = source_loss(fwd.probs, rng.integers(0, 3, size=3), 0.1)
            sgd_step(opt, model, backward(model, fwd, d_logits=d))
        assert np.array_equal(wc, model.wc)
        assert np.array_equal(bc, model.bc)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            Optimizer(lr=0.0, momentum=0.9)
        with pytest.raises(ValueError):
            Optimizer(lr=0.1, momentum=1.0)


class TestInit:
    def test_bounds_follow_fan_in(self):
        dims = ModelDims(16, 8, 4, 3)
        model = init_model(dims, Rng(0))
        assert np.max(np.abs(model.w1)) <= 1.0 / math.sqrt(16)
        assert np.max(np.abs(model.w2)) <= 1.0 / math.sqrt(8)
        assert np.max(np.abs(model.wc)) <= 1.0 / math.sqrt(4)

    def test_seed_pins_weights(self):
        dims = ModelDims(5, 6, 4, 3)
        a = init_model(dims, Rng(42))
        b = init_model(dims, Rng(42))
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.bc, b.bc)


class TestCheckpoint:
    def test_round_trip_is_value_exact(self):
        model = init_model(ModelDims(7, 5, 4, 3), Rng(99))
        model.w1[0, 0] = 1.0 / 3.0  # not exactly representable in short decimal
        loaded = parse_checkpoint(checkpoint_lines(model))
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.array_equal(getattr(model, name), getattr(loaded, name))
        assert loaded.classifier_frozen

    def test_header_checked(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_checkpoint(["NOT A MODEL"])

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty"):
            parse_checkpoint([])

    def test_wrong_row_width_reports_line(self):
        lines = checkpoint_lines(init_model(ModelDims(2, 2, 2, 2), Rng(1)))
        lines[2] = "0.5"  # w1 row with one value instead of two
        with pytest.raises(ValueError, match="line 3"):
            parse_checkpoint(lines)

    def test_truncated_file(self):
        lines = checkpoint_lines(init_model(ModelDims(2, 2, 2, 2), Rng(1)))
        with pytest.raises(ValueError):
            parse_checkpoint(lines[:-2])

    def test_trailing_garbage_rejected(self):
        lines = checkpoint_lines(init_model(ModelDims(2, 2, 2, 2), Rng(1)))
        with pytest.raises(ValueError, match="trailing"):
            parse_checkpoint(lines + ["0.1 0.2"])
