import math
import warnings

import numpy as np
import pytest

from helpers import flatten_params
from ufda import adaptation, clustering, consensus, contrastive, pseudolabel
from ufda.adaptation import AdaptConfig, adapt, pretrain_source
from ufda.datagen import FeatureSet, generate, preset
from ufda.evaluation import evaluate
from ufda.model import ModelDims, forward_batch, init_model
from ufda.numerics import Rng

ALL_PARAMS = ("w1", "b1", "w2", "b2", "wc", "bc")


def two_gaussian_source(seed=0, n_per=40):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2)) * 0.3 + [2.0, 0.0]
    b = rng.normal(size=(n_per, 2)) * 0.3 + [-2.0, 0.0]
    return FeatureSet(
        np.concatenate([a, b]),
        np.array([0] * n_per + [1] * n_per),
        "source",
    )


def small_target(seed=1, n=40):
    spec = preset("opda-toy", seed=seed, source_per_class=10, target_per_class=10)
    _, target = generate(spec)
    return target


def toy_dims():
    return ModelDims(d_in=2, d_hidden=8, d_feat=4, n_classes=2)


class TestPretrain:
    def test_separable_source_reaches_full_accuracy(self):
        source = two_gaussian_source()
        config = AdaptConfig(seed=0, epochs=50, lr=0.05, batch_size=16)
        model = pretrain_source(source, toy_dims(), config)
        report = evaluate(model, source.features, source.labels, 0.9999999, n_private=None, rng=Rng(0))
        assert report.closed_acc == 1.0

    def test_zero_epochs_keeps_initialization(self):
        source = two_gaussian_source()
        config = AdaptConfig(seed=3, epochs=0)
        model = pretrain_source(source, toy_dims(), config)
        fresh = init_model(toy_dims(), Rng(3))
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(model, name), getattr(fresh, name))
        assert model.classifier_frozen

    def test_same_seed_bitwise_identical(self):
        source = two_gaussian_source()
        config = AdaptConfig(seed=11, epochs=5, lr=0.02)
        a = pretrain_source(source, toy_dims(), config)
        b = pretrain_source(source, toy_dims(), config)
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_log_fn_leaves_the_weights_unchanged(self):
        # The per-batch loss is computed only for the log; a tail batch of 8 included.
        source = two_gaussian_source()
        config = AdaptConfig(seed=11, epochs=5, lr=0.02, batch_size=24)
        log: list[str] = []
        logged = pretrain_source(source, toy_dims(), config, log_fn=log.append)
        silent = pretrain_source(source, toy_dims(), config)
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(logged, name), getattr(silent, name))
        assert [line.split()[:3] for line in log] == [["epoch", str(e), "loss"] for e in range(5)]
        assert all(float(line.split()[3]) > 0.0 for line in log)

    def test_empty_source_rejected(self):
        empty = FeatureSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), role="source")
        with pytest.raises(ValueError, match="source set is empty"):
            pretrain_source(empty, toy_dims(), AdaptConfig(seed=0, epochs=1))

    def test_label_out_of_range_rejected(self):
        source = two_gaussian_source()
        source.labels[0] = 7
        with pytest.raises(ValueError, match="label"):
            pretrain_source(source, toy_dims(), AdaptConfig(seed=0, epochs=1))

    def test_divergence_names_epoch_batch_and_phase(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                pretrain_source(two_gaussian_source(), toy_dims(), AdaptConfig(seed=0, epochs=3, lr=1e8, batch_size=16))
        assert str(info.value) == "pretraining failed at epoch 0, batch 4, forward: logits must be finite"
        assert isinstance(info.value.__cause__, ValueError)

    def test_overflowing_last_step_rejected(self):
        # One step that overflows the weights, and no forward pass after it.
        source = two_gaussian_source()
        source.features *= 100.0
        config = AdaptConfig(seed=0, epochs=1, lr=1e307, batch_size=len(source))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                pretrain_source(source, toy_dims(), config)
        assert str(info.value) == "pretraining failed at epoch 0, batch 0, backward+SGD: weights are not finite"

    def test_classifier_trains_during_pretraining(self):
        source = two_gaussian_source()
        config = AdaptConfig(seed=5, epochs=3, lr=0.05)
        model = pretrain_source(source, toy_dims(), config)
        fresh = init_model(toy_dims(), Rng(5))
        assert not np.array_equal(model.wc, fresh.wc)


def pretrained_toy(seed=2):
    spec = preset("opda-toy", seed=seed, source_per_class=10, target_per_class=10)
    source, target = generate(spec)
    dims = ModelDims(16, 16, 8, 6)
    model = pretrain_source(source, dims, AdaptConfig(seed=seed, epochs=10, lr=0.02, batch_size=32))
    return model, target


class TestAdapt:
    def test_requires_frozen_classifier(self):
        model, target = pretrained_toy()
        model.classifier_frozen = False
        with pytest.raises(ValueError, match="frozen"):
            adapt(model, target, AdaptConfig(seed=0, epochs=1))

    def test_empty_target_rejected(self):
        model, _ = pretrained_toy()
        with pytest.raises(ValueError, match="empty"):
            adapt(model, FeatureSet(np.zeros((0, 16)), np.zeros(0), role="target"), AdaptConfig(seed=0, epochs=1))

    def test_divergence_names_epoch_batch_and_phase(self):
        model, target = pretrained_toy()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            adapt(model, target, AdaptConfig(seed=4, epochs=3, batch_size=16, lr=1e8))
        assert str(info.value) == (
            "adaptation failed at epoch 2, batch 2, bank refresh: feature norm is not finite (overflow, inf or NaN)"
        )
        assert isinstance(info.value.__cause__, ValueError)

    def test_zero_epochs_no_op(self):
        model, target = pretrained_toy()
        adapted, trace = adapt(model, target, AdaptConfig(seed=4, epochs=0))
        assert trace.epochs == []
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(adapted, name), getattr(model, name))

    def test_classifier_bitwise_frozen_through_adaptation(self):
        model, target = pretrained_toy()
        wc, bc = model.wc.copy(), model.bc.copy()
        adapted, _ = adapt(model, target, AdaptConfig(seed=4, epochs=3, batch_size=16))
        assert np.array_equal(adapted.wc, wc)
        assert np.array_equal(adapted.bc, bc)

    def test_input_model_not_mutated(self):
        model, target = pretrained_toy()
        before = flatten_params(model, ALL_PARAMS).copy()
        adapt(model, target, AdaptConfig(seed=4, epochs=2, batch_size=16))
        assert np.array_equal(before, flatten_params(model, ALL_PARAMS))

    def test_deterministic_given_seed(self):
        model, target = pretrained_toy()
        config = AdaptConfig(seed=13, epochs=3, batch_size=16)
        a, trace_a = adapt(model, target, config)
        b, trace_b = adapt(model, target, config)
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for ra, rb in zip(trace_a.epochs, trace_b.epochs):
            assert (ra.total, ra.glb, ra.loc, ra.con, ra.ct) == (rb.total, rb.glb, rb.loc, rb.con, rb.ct)

    def test_glc_equals_glcpp_with_zero_contrastive_weight(self):
        model, target = pretrained_toy()
        glc, trace_glc = adapt(model, target, AdaptConfig(seed=6, epochs=3, batch_size=16, variant="glc"))
        zero, trace_zero = adapt(
            model, target,
            AdaptConfig(seed=6, epochs=3, batch_size=16, variant="glcpp", con_weight=0.0),
        )
        for name in ALL_PARAMS:
            assert np.array_equal(getattr(glc, name), getattr(zero, name))
        for ra, rb in zip(trace_glc.epochs, trace_zero.epochs):
            assert (ra.total, ra.glb, ra.loc, ra.con) == (rb.total, rb.glb, rb.loc, rb.con)
            assert ra.con == 0.0

    def test_variants_actually_differ(self):
        model, target = pretrained_toy()
        glc, _ = adapt(model, target, AdaptConfig(seed=6, epochs=2, batch_size=16, variant="glc"))
        pp, _ = adapt(model, target, AdaptConfig(seed=6, epochs=2, batch_size=16, variant="glcpp"))
        assert not np.array_equal(glc.w1, pp.w1)

    def test_trace_linearity_and_shape(self):
        model, target = pretrained_toy()
        config = AdaptConfig(seed=8, epochs=4, batch_size=16, eta=1.5)
        _, trace = adapt(model, target, config)
        assert len(trace.epochs) == 4
        for rec in trace.epochs:
            assert rec.total == pytest.approx(config.eta * rec.glb + rec.loc + rec.con, abs=1e-12)
            assert rec.ct == trace.epochs[0].ct
            assert rec.seconds >= 0.0

    def test_trace_file_format(self):
        model, target = pretrained_toy()
        _, trace = adapt(model, target, AdaptConfig(seed=8, epochs=2, batch_size=16))
        lines = trace.lines()
        assert lines[0] == "epoch\ttotal\tglb\tloc\tcon\tct\tseconds"
        assert len(lines) == 3
        fields = lines[1].split("\t")
        assert len(fields) == 7
        assert int(fields[0]) == 0
        float(fields[1])

    def test_incomplete_tail_batch_is_kept(self):
        model, target = pretrained_toy()
        # 60 samples with batch 32 -> tail of 28; with batch 59 -> tail of 1
        for bs in (32, 59):
            _, trace = adapt(model, target, AdaptConfig(seed=9, epochs=1, batch_size=bs))
            assert len(trace.epochs) == 1

    def test_glcpp_forwards_and_normalizes_once(self, monkeypatch):
        # Every forward_batch and l2_normalize_rows call, where the engine's
        # modules look them up: each forward, with how often its features are
        # normalized.
        model, target = pretrained_toy()
        forwards = []

        def counted_forward(original):
            def forward(model, x):
                fwd = original(model, x)
                forwards.append([len(x), fwd.features, 0])
                return fwd
            return forward

        def counted_normalize(original):
            def normalize(m):
                for entry in forwards:
                    entry[2] += m is entry[1]
                return original(m)
            return normalize

        for module in (adaptation, consensus, contrastive, clustering):
            for name, counted in (("forward_batch", counted_forward), ("l2_normalize_rows", counted_normalize)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        n, epochs, batch_size = len(target), 2, 16
        adapt(model, target, AdaptConfig(seed=4, epochs=epochs, batch_size=batch_size, variant="glcpp"))

        full = [normalized for rows, _, normalized in forwards if rows == n]
        assert full == [1] * (epochs + 1)  # the bank's forward, then one per epoch
        # Per batch: the live forward, normalized once for the bank k-NN and
        # pair mining and once in the contrastive loss, then the bank refresh.
        batch = [normalized for rows, _, normalized in forwards if rows < n]
        assert batch == [2, 1] * (epochs * math.ceil(n / batch_size))

    def test_one_stacked_prototype_kmeans_per_epoch(self, monkeypatch):
        # Each epoch clusters every class's negative set in one call: a stack
        # of C sets of N - K rows, with one rng per set.
        model, target = pretrained_toy()
        seen = []
        original = pseudolabel.kmeans

        def recorded(points, k, rng):
            seen.append((np.shape(points), k, len(rng)))
            return original(points, k, rng)

        monkeypatch.setattr(pseudolabel, "kmeans", recorded)
        _, trace = adapt(model, target, AdaptConfig(seed=4, epochs=2, batch_size=16))
        n, n_classes, ct = len(target), model.dims.n_classes, trace.ct_sweep.chosen
        rest = n - pseudolabel.topk_count(n, ct)
        assert seen == [((n_classes, rest, model.dims.d_feat), ct, n_classes)] * 2


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptConfig(eta=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(omega=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(omega=1.5)
        assert AdaptConfig(omega=1.0).omega == 1.0  # evaluate's range is (0, 1]
        with pytest.raises(ValueError):
            AdaptConfig(variant="nope")
        with pytest.raises(ValueError):
            AdaptConfig(epochs=-1)

    def test_glc_forces_zero_contrastive_weight(self):
        assert AdaptConfig(variant="glc", con_weight=5.0).effective_con_weight == 0.0
        assert AdaptConfig(variant="glcpp", con_weight=0.5).effective_con_weight == 0.5
