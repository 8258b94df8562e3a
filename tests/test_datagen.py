import hashlib

import numpy as np
import pytest

from ufda.adaptation import adapt, pretrain_source
from ufda.config import load_run_config
from ufda.datagen import (
    FeatureSet,
    PRESETS,
    ScenarioError,
    ScenarioSpec,
    featureset_lines,
    generate,
    parse_featureset,
    preset,
)


def spec_for(regime, shared, sp, tp, **kw):
    return ScenarioSpec(
        regime=regime, n_shared=shared, n_source_private=sp, n_target_private=tp,
        **kw,
    )


class TestRegimeRules:
    def test_clda_has_identical_label_sets(self):
        source, target = generate(spec_for("CLDA", 4, 0, 0, source_per_class=5, target_per_class=5))
        assert set(source.labels.tolist()) == set(target.labels.tolist())

    def test_opda_split_arithmetic(self):
        source, target = generate(spec_for("OPDA", 3, 3, 3, source_per_class=4, target_per_class=4))
        src_classes = set(source.labels.tolist())
        tgt_classes = set(target.labels.tolist())
        assert len(src_classes) == 6
        assert len(tgt_classes) == 6
        assert len(src_classes & tgt_classes) == 3

    def test_osda_requires_no_source_private(self):
        with pytest.raises(ScenarioError, match="OSDA"):
            spec_for("OSDA", 3, 1, 3).validate()

    def test_pda_requires_no_target_private(self):
        with pytest.raises(ScenarioError, match="PDA"):
            spec_for("PDA", 3, 1, 2).validate()

    def test_opda_requires_both_privates(self):
        with pytest.raises(ScenarioError, match="OPDA"):
            spec_for("OPDA", 3, 0, 3).validate()

    def test_clda_rejects_privates(self):
        with pytest.raises(ScenarioError, match="CLDA"):
            spec_for("CLDA", 3, 0, 1).validate()

    def test_unknown_regime(self):
        with pytest.raises(ScenarioError, match="unknown regime"):
            spec_for("FOO", 3, 0, 0).validate()

    def test_d_in_must_fit_class_count(self):
        with pytest.raises(ScenarioError, match="d_in"):
            spec_for("OPDA", 6, 6, 6, d_in=8).validate()

    def test_all_presets_are_valid(self):
        for name in PRESETS:
            preset(name).validate()

    def test_preset_split_counts(self):
        p = preset("opda-toy")
        assert (p.n_shared, p.n_source_private, p.n_target_private) == (3, 3, 3)
        assert p.d_in == 16 and p.source_per_class == 100 and p.target_per_class == 100
        assert preset("osda-toy").n_source_private == 0
        assert preset("pda-toy").n_target_private == 0
        assert preset("clda-toy").n_classes == 6


class TestGenerate:
    def test_same_seed_identical(self):
        spec = preset("opda-toy", seed=5, source_per_class=10, target_per_class=10)
        s1, t1 = generate(spec)
        s2, t2 = generate(spec)
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(t1.labels, t2.labels)

    def test_different_seeds_differ(self):
        a, _ = generate(preset("opda-toy", seed=1, source_per_class=5, target_per_class=5))
        b, _ = generate(preset("opda-toy", seed=2, source_per_class=5, target_per_class=5))
        assert not np.array_equal(a.features, b.features)

    def test_source_labels_are_contiguous(self):
        source, _ = generate(preset("opda-toy", seed=0, source_per_class=3, target_per_class=3))
        assert sorted(set(source.labels.tolist())) == list(range(6))

    def test_target_private_ids_follow_source_ids(self):
        _, target = generate(preset("opda-toy", seed=0, source_per_class=3, target_per_class=3))
        privates = set(target.labels.tolist()) - set(range(3))
        assert privates == {6, 7, 8}

    def test_well_separated_source_is_1nn_learnable(self):
        # separation = 10 * noise_sigma
        spec = spec_for(
            "CLDA", 5, 0, 0, d_in=8, separation=10.0, noise_sigma=1.0,
            source_per_class=40, target_per_class=5, seed=3,
            shift_rotation=0.0, shift_translation=0.0,
        )
        source, _ = generate(spec)
        x, y = source.features, source.labels
        dists = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        nearest = np.argmin(dists, axis=1)
        assert np.mean(y[nearest] == y) >= 0.99

    def test_sample_counts(self):
        source, target = generate(preset("osda-toy", seed=0, source_per_class=7, target_per_class=9))
        assert len(source) == 4 * 7
        assert len(target) == 8 * 9


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of the seed-1 (source, target) features and labels of each preset,
# recorded while every draw was still a scalar Rng call. Array draws take the
# same stream, bit for bit.
PINNED_DATASETS = {
    "clda-toy": "94490bd94d0badf86ab6283cbdbf4460e2b2b1d5647ea0c94a7825022fcd9787",
    "opda-toy": "93a8a544e007448f0a681332dd7e21a99a0f4c796b28aded5b2752040e430498",
    "osda-toy": "644909618f3a46a4960d8e01a7c184ffb43e6bb1fff846846c3bb7cf44abfce4",
    "pda-toy": "a827e6c945960857294507e9f94f936ec24929b1edda550e7686df3b418d7450",
}
# sha256 of each preset's seed-1 pretrained w1 b1 w2 b2, at the default config.
PINNED_PRETRAIN = {
    "clda-toy": "b84b08f1d3b1236d91414807867f00e3a120871c5e0ebec76adc672d592dedaa",
    "opda-toy": "f2a62db9e041df5a9df364d4ebe0d72b70f00d0b69101e129f0402c7d2f3c649",
    "osda-toy": "c6719c65d0f3a0607b805cb421566845c4959a7737893ba1514625dc9e804b21",
    "pda-toy": "481eca982609ac1dabc9c9ad366561a7b054f7a669600f848439cc1a9b4791c1",
}
# sha256 of the train.log that `ufda pretrain` writes for opda-toy seed 1.
PINNED_TRAIN_LOG = "5a07bf1557e03875628f0eca74074c2595125111ffdcef15f7ba6d97c6364926"
# sha256 of opda-toy seed 1's adapted w1 b1 w2 b2 and its per-epoch
# (total, glb, loc, con, ct) rows, per variant, at the default config.
PINNED_ADAPT = {
    "glc": "5b3ab6c4a2076c070c870e01895c01ec00a9799c75f86b81dbc8ba9ece741376",
    "glcpp": "2dd2f2b6d27e7fdab0da323681bf7064df2496620c7b83891830f17c775d89fb",
}


class TestStreamPins:
    """The pins hold on one platform, not across machines. The raw xoshiro
    stream is portable, but the class means come from LAPACK's QR and a BLAS
    GEMM, the normals from libm, and pretraining from BLAS and NumPy's SIMD
    kernels. With OPENBLAS_CORETYPE=Haswell set on the test process, every
    pin fails but the train.log one, whose losses are printed to six decimals,
    while run_benchmark's PINNED_ROWS still pass."""

    @pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
    def test_seed_one_dataset_is_pinned(self, name):
        source, target = generate(preset(name, seed=1))
        assert sha256_of(source.features, source.labels, target.features, target.labels) == PINNED_DATASETS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_PRETRAIN))
    def test_seed_one_pretrained_weights_are_pinned(self, name):
        cfg = load_run_config({}, {"seed": 1}, preset=name)
        spec = cfg.scenario()
        source, _ = generate(spec)
        model = pretrain_source(source, cfg.model_dims(spec.d_in, spec.n_source_classes), cfg.adapt_config())
        assert model.trainable_names() == ("w1", "b1", "w2", "b2")
        assert sha256_of(*(getattr(model, n) for n in model.trainable_names())) == PINNED_PRETRAIN[name]

    def test_seed_one_train_log_is_pinned(self):
        cfg = load_run_config({}, {"seed": 1}, preset="opda-toy")
        spec = cfg.scenario()
        source, _ = generate(spec)
        log: list[str] = []
        pretrain_source(source, cfg.model_dims(spec.d_in, spec.n_source_classes), cfg.adapt_config(),
                        log_fn=log.append)
        assert len(log) == cfg.epochs
        assert hashlib.sha256(("\n".join(log) + "\n").encode()).hexdigest() == PINNED_TRAIN_LOG

    @pytest.mark.parametrize("variant", sorted(PINNED_ADAPT))
    def test_seed_one_adaptation_is_pinned(self, variant):
        cfg = load_run_config({}, {"seed": 1, "variant": variant}, preset="opda-toy")
        spec = cfg.scenario()
        source, target = generate(spec)
        model = pretrain_source(source, cfg.model_dims(spec.d_in, spec.n_source_classes), cfg.adapt_config())
        adapted, trace = adapt(model, target, cfg.adapt_config())
        losses = np.array([(r.total, r.glb, r.loc, r.con, r.ct) for r in trace.epochs])
        got = sha256_of(*(getattr(adapted, n) for n in adapted.trainable_names()), losses)
        assert got == PINNED_ADAPT[variant], (
            f"{variant} adaptation changed: if on purpose, state the change and its quality delta in "
            f"CHANGES.md, then re-record PINNED_ADAPT[{variant!r}] as {got}"
        )


class TestFeatureFiles:
    def test_round_trip_is_value_exact(self):
        rng = np.random.default_rng(0)
        fs = FeatureSet(rng.normal(size=(7, 3)) / 3.0, rng.integers(0, 4, size=7), "target")
        loaded = parse_featureset(featureset_lines(fs))
        assert np.array_equal(fs.features, loaded.features)
        assert np.array_equal(fs.labels, loaded.labels)
        assert loaded.role == "target"

    def test_same_spec_and_seed_identical_bytes(self):
        spec = preset("clda-toy", seed=9, source_per_class=4, target_per_class=4)
        (s1, t1), (s2, t2) = generate(spec), generate(spec)
        assert featureset_lines(s1) == featureset_lines(s2)
        assert featureset_lines(t1) == featureset_lines(t2)

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_featureset([])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_featureset(["NOPE v9", "n=1 d=1 role=target", "0 1.0"])

    def test_header_count_mismatch(self):
        with pytest.raises(ValueError, match="n=3"):
            parse_featureset(["UFD v1", "n=3 d=1 role=target", "0 1.0", "1 2.0"])

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_featureset(["UFD v1", "n=2 d=2 role=source", "0 1.0 2.0", "1 3.0"])

    def test_non_numeric_field_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_featureset(["UFD v1", "n=1 d=2 role=source", "0 1.0 oops"])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_featureset(["UFD v1", "n=1 d=1 role=source", "-2 1.0"])
