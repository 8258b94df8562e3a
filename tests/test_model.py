import math

import numpy as np
import pytest

from helpers import fd_gradient, flatten_params, random_model, rel_err
from ufda.model import (
    AdaptModel,
    CheckpointError,
    ModelDims,
    Optimizer,
    backward,
    forward_batch,
    init_model,
    load_model,
    loss_source_batch,
    save_model,
    sgd_step,
)
from ufda.numerics import Rng


def small_model(frozen=False):
    return random_model(np.random.default_rng(0), frozen=frozen)


def forward_one(model, x):
    return forward_batch(model, np.array([x], dtype=np.float64))


def source_loss_one(probs, label, alpha):
    loss, _ = loss_source_batch(np.array([probs], dtype=np.float64), np.array([label]), alpha)
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
        loss, _ = loss_source_batch(probs, np.array([0, 1]), 0.1)
        singles = (source_loss_one(probs[0], 0, 0.1) + source_loss_one(probs[1], 1, 0.1)) / 2
        assert loss == pytest.approx(singles, abs=1e-12)


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
        loss1, d1 = loss_source_batch(fwd1.probs, np.array([1]), 0.1)
        g1 = backward(model, fwd1, d_logits=d1)

        x3 = np.repeat(x, 3, axis=0)
        fwd3 = forward_batch(model, x3)
        loss3, d3 = loss_source_batch(fwd3.probs, np.array([1, 1, 1]), 0.1)
        g3 = backward(model, fwd3, d_logits=d3)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.allclose(g1[name], g3[name], atol=1e-14)

    def test_frozen_classifier_has_no_grads(self):
        model = small_model(frozen=True)
        fwd = forward_batch(model, np.random.default_rng(2).normal(size=(4, 4)))
        _, d = loss_source_batch(fwd.probs, np.array([0, 1, 2, 0]), 0.0)
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
                loss, _ = loss_source_batch(f.probs, labels, 0.1)
                return loss

            fwd = forward_batch(model, x)
            _, d = loss_source_batch(fwd.probs, labels, 0.1)
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
            _, d = loss_source_batch(fwd.probs, rng.integers(0, 3, size=3), 0.1)
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
    def test_round_trip_is_value_exact(self, tmp_path):
        model = init_model(ModelDims(7, 5, 4, 3), Rng(99))
        model.w1[0, 0] = 1.0 / 3.0  # not exactly representable in short decimal
        path = tmp_path / "model.ufdmodel"
        save_model(model, path)
        loaded = load_model(path)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.array_equal(getattr(model, name), getattr(loaded, name))
        assert loaded.classifier_frozen

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.ufdmodel"
        path.write_text("NOT A MODEL\n")
        with pytest.raises(CheckpointError, match="line 1"):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ufdmodel"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_model(path)

    def test_wrong_row_width_reports_line(self, tmp_path):
        model = init_model(ModelDims(2, 2, 2, 2), Rng(1))
        path = tmp_path / "model.ufdmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[2] = "0.5"  # w1 row with one value instead of two
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 3"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = init_model(ModelDims(2, 2, 2, 2), Rng(1))
        path = tmp_path / "model.ufdmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = init_model(ModelDims(2, 2, 2, 2), Rng(1))
        path = tmp_path / "model.ufdmodel"
        save_model(model, path)
        with open(path, "a") as f:
            f.write("0.1 0.2\n")
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)
