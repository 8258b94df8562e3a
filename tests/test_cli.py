import argparse
import errno
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ufda import cli
from ufda.cli import build_parser, main
from ufda.clustering import estimate_ct
from ufda.config import RunConfig
from ufda.consensus import bank_init
from ufda.datagen import parse_featureset
from ufda.evaluation import evaluate
from ufda.model import ModelDims, checkpoint_lines, init_model, parse_checkpoint
from ufda.numerics import Rng

ROOT = Path(__file__).resolve().parent.parent


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def snapshot(directory):
    """Every path under directory, hidden ones included, with a file's bytes."""
    return sorted(
        (str(path.relative_to(directory)), path.read_bytes() if path.is_file() else None)
        for path in directory.rglob("*")
    )


@pytest.fixture()
def fast_args():
    # keep CLI pipeline tests quick: tiny data, few epochs
    return [
        "--config", os.devnull,
    ]


def gen_small(tmp_path, capsys, seed="3"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "data"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("source_per_class = 12\ntarget_per_class = 12\n")
    code, _, err = run(
        capsys, "gen", "--preset", "opda-toy", "--config", str(cfg),
        "--seed", seed, "--out", str(out),
    )
    assert code == 0, err
    return out


class TestGen:
    def test_writes_files_matching_preset(self, tmp_path, capsys):
        out = gen_small(tmp_path, capsys)
        source = parse_featureset(read_lines(out / "source.ufd"))
        target = parse_featureset(read_lines(out / "target.ufd"))
        assert len(source) == 6 * 12
        assert len(target) == 6 * 12
        assert (out / "config.resolved").exists()

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a = gen_small(tmp_path / "a", capsys)
        b = gen_small(tmp_path / "b", capsys)
        assert (a / "source.ufd").read_bytes() == (b / "source.ufd").read_bytes()
        assert (a / "target.ufd").read_bytes() == (b / "target.ufd").read_bytes()

    @pytest.mark.parametrize("seed, same_as", [("18446744073709551623", "7"), ("18446744073709551615", "-1")])
    def test_seeds_are_taken_modulo_2_64(self, tmp_path, capsys, seed, same_as):
        for s in (seed, same_as):
            code, _, err = run(capsys, "gen", "--preset", "opda-toy", "--seed", s, "--out", str(tmp_path / s))
            assert code == 0, err
        for name in ("source.ufd", "target.ufd"):
            assert (tmp_path / seed / name).read_bytes() == (tmp_path / same_as / name).read_bytes(), name

    def test_bad_regime_combo_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regime = OSDA\nn_source_private = 2\n")
        code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "OSDA" in err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--preset", "nope", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown preset" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 5\n")
        code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_non_utf8_config_exits_2_naming_its_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = 2\n\xff\n")
        code, out, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value, as_flag",
        [
            ("eta", "nan", False), ("lr", "nan", False), ("con_weight", "inf", False),
            ("con_weight", "nan", False), ("separation", "nan", False), ("noise_sigma", "inf", False),
            ("shift_rotation", "nan", False), ("eta", "inf", True), ("omega", "nan", True),
        ],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, key, value, as_flag):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("" if as_flag else f"{key} = {value}\n")
        flag = [f"--{key}", value] if as_flag else []
        code, _, err = run(capsys, "gen", "--config", str(cfg), *flag, "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == f"error: bad config value: {key} must be finite, got {float(value)!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("target_per_class", "99999999999999999999"), ("d_in", "9223372036854775808"),
         ("epochs", "-9223372036854775809")],
    )
    def test_int_setting_past_int64_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: bad config value: {key} must fit in int64, got {value}\n"
        assert not (tmp_path / "o").exists()


def pipeline_cfg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "source_per_class = 12\n"
        "target_per_class = 12\n"
        "epochs = 2\n"
        "batch_size = 24\n"
        "d_hidden = 16\n"
        "d_feat = 8\n"
    )
    return cfg


class TestPipeline:
    def test_full_pipeline_and_byte_identical_reports(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)

        reports = []
        for run_dir in ("r1", "r2"):
            base = tmp_path / run_dir
            code, _, err = run(
                capsys, "pretrain", str(data / "source.ufd"),
                "--config", str(cfg), "--seed", "5", "--out", str(base / "pre"),
            )
            assert code == 0, err
            assert (base / "pre" / "model.ufdmodel").exists()
            assert (base / "pre" / "train.log").exists()

            code, _, err = run(
                capsys, "adapt", str(base / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), "--seed", "5", "--variant", "glcpp", "--out", str(base / "ad"),
            )
            assert code == 0, err
            trace = (base / "ad" / "trace.tsv").read_text().splitlines()
            assert len(trace) == 3  # header + 2 epochs

            code, out, err = run(
                capsys, "eval", str(base / "ad" / "adapted.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), "--seed", "5", "--out", str(base / "ev"),
            )
            assert code == 0, err
            assert "h_score" in out
            reports.append((base / "ev" / "report.tsv").read_bytes())

        assert reports[0] == reports[1]

    def test_adapt_records_the_ct_sweep(self, tmp_path, capsys):
        # ct_sweep.tsv is the sweep of estimate_ct over the bank rows of the
        # pretrained model, on adapt's first rng split.
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        pre, ad = tmp_path / "pre", tmp_path / "ad"
        assert run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(pre))[0] == 0
        code, _, err = run(capsys, "adapt", str(pre / "model.ufdmodel"), str(data / "target.ufd"),
                           "--config", str(cfg), "--seed", "6", "--out", str(ad))
        assert code == 0, err
        model = parse_checkpoint(read_lines(pre / "model.ufdmodel"))
        target = parse_featureset(read_lines(data / "target.ufd"))
        want = estimate_ct(bank_init(model, target.features).features, model.dims.n_classes, Rng(6).split())
        lines = read_lines(ad / "ct_sweep.tsv")
        assert lines[0] == "candidate\tmean_silhouette"
        assert lines[1:-1] == [f"{c}\t{s!r}" for c, s in zip(want.candidates, want.mean_silhouettes)]
        assert lines[-1] == f"chosen\t{want.chosen}"
        assert [line.split("\t")[5] for line in read_lines(ad / "trace.tsv")[1:]] == [str(want.chosen)] * 2

    def test_machine_report_is_parseable(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        code, _, _ = run(
            capsys, "eval", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
            "--config", str(cfg), "--out", str(tmp_path / "ev"),
        )
        assert code == 0
        for line in (tmp_path / "ev" / "report.tsv").read_text().splitlines():
            name, value = line.split("\t")
            float(value)

    def test_omega_override_is_honored(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        outs = {}
        for omega in ("0.2", "0.9"):
            code, _, _ = run(
                capsys, "eval", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), "--omega", omega, "--out", str(tmp_path / f"ev{omega}"),
            )
            assert code == 0
            text = (tmp_path / f"ev{omega}" / "report.tsv").read_text()
            outs[omega] = dict(line.split("\t") for line in text.splitlines())
        assert float(outs["0.2"]["unknown_acc"]) >= float(outs["0.9"]["unknown_acc"])
        assert (tmp_path / "ev0.2" / "config.resolved").read_text().find("omega = 0.2") >= 0

    def test_adapt_dimension_mismatch_exits_1(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        bad = tmp_path / "bad.ufd"
        bad.write_text("UFD v1\nn=2 d=3 role=target\n0 1.0 2.0 3.0\n1 1.0 0.0 0.0\n")
        code, _, err = run(
            capsys, "adapt", str(tmp_path / "pre" / "model.ufdmodel"), str(bad),
            "--config", str(cfg), "--out", str(tmp_path / "ad"),
        )
        assert code == 1
        assert "does not match" in err

    def test_adapt_divergence_exits_1_naming_where(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(cfg.read_text() + "lr = 1e40\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "adapt", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(diverging), "--out", str(tmp_path / "ad"),
            )
        assert code == 1
        assert err.startswith("error: adaptation failed at epoch ")
        assert ", batch " in err
        assert "feature norm is not finite" in err
        assert len(err.splitlines()) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "ad").exists()

    def test_pretrain_divergence_exits_1_naming_where(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(cfg.read_text() + "lr = 1e8\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "pretrain", str(data / "source.ufd"), "--config", str(diverging), "--out", str(tmp_path / "pre"),
            )
        assert code == 1
        assert err.startswith("error: pretraining failed at epoch ")
        assert ", batch " in err
        assert "logits must be finite" in err
        assert len(err.splitlines()) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "pre").exists()

    def test_pretrain_bad_config_value_exits_2(self, tmp_path, capsys):
        data = gen_small(tmp_path, capsys)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = nope\n")
        code, _, err = run(
            capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"),
        )
        assert code == 2
        assert "variant" in err

    def test_adapt_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        for flag, value in (("--eta", "-1"), ("--omega", "1.5")):
            code, _, err = run(
                capsys, "adapt", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), flag, value, "--out", str(tmp_path / "ad"),
            )
            assert code == 2
            assert flag[2:] in err
        assert not (tmp_path / "ad").exists()

    def test_eval_omega_range_matches_predict(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        for omega, want in (("1.0", 0), ("0", 2), ("1.5", 2)):
            code, _, err = run(
                capsys, "eval", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), "--omega", omega, "--out", str(tmp_path / f"ev{omega}"),
            )
            assert code == want, err
            if want == 2:
                assert "omega" in err

    def test_pretrain_invalid_scenario_exits_2(self, tmp_path, capsys):
        data = gen_small(tmp_path, capsys)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regime = OSDA\nn_source_private = 2\n")
        code, _, err = run(
            capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"),
        )
        assert code == 2
        assert "OSDA" in err
        assert not (tmp_path / "pre").exists()

    def bad_value_exits_2(self, tmp_path, capsys, command, text, key):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + text)
        inputs = {
            "pretrain": [str(data / "source.ufd")],
            "adapt": [str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd")],
            "eval": [str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd")],
        }[command]
        code, _, err = run(capsys, command, *inputs, "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2, err
        assert key in err
        assert not (tmp_path / "o").exists()

    def test_pretrain_negative_lr_exits_2(self, tmp_path, capsys):
        self.bad_value_exits_2(tmp_path, capsys, "pretrain", "lr = -1\n", "lr")

    def test_pretrain_momentum_out_of_range_exits_2(self, tmp_path, capsys):
        self.bad_value_exits_2(tmp_path, capsys, "pretrain", "momentum = 1.5\n", "momentum")

    def test_adapt_zero_d_hidden_exits_2(self, tmp_path, capsys):
        self.bad_value_exits_2(tmp_path, capsys, "adapt", "d_hidden = 0\n", "d_hidden")

    def test_eval_negative_d_feat_exits_2(self, tmp_path, capsys):
        self.bad_value_exits_2(tmp_path, capsys, "eval", "d_feat = -3\n", "d_feat")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "pretrain", str(tmp_path / "missing.ufd"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {tmp_path / 'missing.ufd'}: {os.strerror(errno.ENOENT)}\n"


class TestReproduce:
    def test_rerun_from_config_resolved_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        pipeline_cfg(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        steps = (  # command, relative positional inputs and the keys they are recorded as, extra flags, outputs
            ("gen", {}, ["--preset", "opda-toy"], ("source.ufd", "target.ufd")),
            ("pretrain", {"source_path": "gen/source.ufd"}, ["--variant", "glc"], ("model.ufdmodel",)),
            ("adapt", {"model_path": "pretrain/model.ufdmodel", "target_path": "gen/target.ufd"},
             ["--variant", "glcpp", "--k", "3"], ("adapted.ufdmodel",)),
            ("eval", {"model_path": "adapt/adapted.ufdmodel", "target_path": "gen/target.ufd"},
             ["--omega", "0.6"], ("report.tsv",)),
        )
        for command, inputs, flags, outputs in steps:
            monkeypatch.chdir(tmp_path)
            code, _, err = run(
                capsys, command, *inputs.values(), "--config", "run.cfg", "--seed", "5", *flags, "--out", command,
            )
            assert code == 0, err
            first = tmp_path / command
            resolved = (first / "config.resolved").read_text().splitlines()
            for key, path in {**inputs, "out_dir": command}.items():
                assert f"{key} = {tmp_path / path}" in resolved

            monkeypatch.chdir(elsewhere)
            again = elsewhere / f"{command}-again"  # so no relative input path resolves here
            code, _, err = run(capsys, command, "--config", str(first / "config.resolved"), "--out", again.name)
            assert code == 0, err
            for output in outputs:
                assert (again / output).read_bytes() == (first / output).read_bytes(), (command, output)
            rerun = (again / "config.resolved").read_text().splitlines()
            assert [line for line in rerun if not line.startswith("out_dir")] == [
                line for line in resolved if not line.startswith("out_dir")
            ]
        cut = [
            [line.split("\t")[:6] for line in (d / "trace.tsv").read_text().splitlines()]
            for d in (tmp_path / "adapt", elsewhere / "adapt-again")
        ]
        assert cut[0] == cut[1]  # the seconds column aside


class TestNcdClassCount:
    def eval_report(self, base, capsys, preset, extra_config=""):
        base.mkdir()
        cfg = base / "run.cfg"
        cfg.write_text("source_per_class = 12\ntarget_per_class = 12\nepochs = 1\nd_hidden = 16\nd_feat = 8\n" + extra_config)
        args = ["--config", str(cfg), "--seed", "4"]
        assert main(["gen", "--preset", preset, *args, "--out", str(base / "data")]) == 0
        assert main(["pretrain", str(base / "data" / "source.ufd"), *args, "--out", str(base / "pre")]) == 0
        assert main([
            "eval", str(base / "pre" / "model.ufdmodel"), str(base / "data" / "target.ufd"), *args,
            "--out", str(base / "ev"),
        ]) == 0
        capsys.readouterr()
        return dict(line.split("\t") for line in (base / "ev" / "report.tsv").read_text().splitlines())

    def test_eval_counts_the_novel_classes_in_the_labels(self, tmp_path, capsys):
        report = self.eval_report(tmp_path / "opda", capsys, "opda-toy")  # 3 target-private classes
        model = parse_checkpoint(read_lines(tmp_path / "opda" / "pre" / "model.ufdmodel"))
        target = parse_featureset(read_lines(tmp_path / "opda" / "data" / "target.ufd"))
        want = evaluate(model, target.features, target.labels, RunConfig().omega, n_private=3, rng=Rng(4)).ncd_acc
        assert 0.0 <= want <= 1.0
        assert float(report["ncd_acc"]) == want

        assert self.eval_report(tmp_path / "pda", capsys, "pda-toy")["ncd_acc"] == "nan"
        one_novel = self.eval_report(tmp_path / "osda-one", capsys, "osda-toy", "n_target_private = 1\n")
        assert one_novel["ncd_acc"] == "nan"

    def test_ncd_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "m", "t", "--ncd", "3", "--out", str(tmp_path / "ev")])
        assert exc.value.code == 2
        assert "--ncd" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()


def test_every_setting_flag_is_a_config_key():
    """A flag that is not a RunConfig field would not be recorded in
    config.resolved. --preset is recorded as the scenario keys it sets."""
    keys = {f.name for f in fields(RunConfig)}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("gen", "pretrain", "adapt", "eval"):
        dests = {a.dest for a in commands.choices[command]._actions} - {"help", "config", "preset"}
        assert dests <= keys, (command, sorted(dests - keys))


class TestBadInputFiles:
    def test_non_finite_feature_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=2 d=2 role=source\n0 1.0 2.0\n1 nan 0.5\n")
        code, _, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {path}: line 4: features must be finite\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_role_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=1 d=2 role=sauce\n0 1.0 2.0\n")
        code, _, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"error: {path}: line 2: role must be 'source' or 'target'")
        assert not (tmp_path / "o").exists()

    def test_non_finite_weight_names_path_line_and_tensor(self, tmp_path, capsys):
        path = tmp_path / "model.ufdmodel"
        lines = checkpoint_lines(init_model(ModelDims(2, 2, 2, 2), Rng(1)))
        lines[7] = "0.5 nan"  # b2, after the magic, dims, w1 (2 rows), b1 and w2 (2 rows)
        path.write_text("\n".join(lines) + "\n")
        target = tmp_path / "target.ufd"
        target.write_text("UFD v1\nn=2 d=2 role=target\n0 1.0 2.0\n1 0.5 0.5\n")
        for command in ("adapt", "eval"):
            code, _, err = run(capsys, command, str(path), str(target), "--out", str(tmp_path / command))
            assert code == 1, command
            assert err == f"error: {path}: line 8: non-finite value in tensor b2\n", command
            assert not (tmp_path / command).exists()

    def test_label_past_int64_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=2 d=2 role=source\n0 1.0 2.0\n99999999999999999999 0.5 0.5\n")
        code, out, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: line 4: label out of range\n"
        assert not (tmp_path / "o").exists()

    def test_a_header_d_is_checked_against_the_rows_before_it_sizes_an_array(self, tmp_path, capsys):
        # n=1 d=99999999999 would ask for about 745 GiB before the row is read.
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=1 d=99999999999 role=source\n0" + " 1.0" * 16 + "\n")
        code, out, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: line 3: expected 1 label + 99999999999 values, got 17 fields\n"
        assert not (tmp_path / "o").exists()

    def test_negative_feature_dimension_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=1 d=-1 role=source\n0\n")
        code, _, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {path}: line 2: need n >= 0 and d >= 1, got n=1 d=-1\n"
        assert not (tmp_path / "o").exists()

    def test_zero_checkpoint_dimension_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "model.ufdmodel"
        lines = checkpoint_lines(init_model(ModelDims(2, 2, 2, 2), Rng(1)))
        lines[1] = "0 2 2 2"
        path.write_text("\n".join(lines) + "\n")
        target = tmp_path / "target.ufd"
        target.write_text("UFD v1\nn=2 d=2 role=target\n0 1.0 2.0\n1 0.5 0.5\n")
        code, _, err = run(capsys, "eval", str(path), str(target), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {path}: line 2: bad dims line (d_in must be positive)\n"
        assert not (tmp_path / "o").exists()

    def test_empty_source_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_text("UFD v1\nn=0 d=2 role=source\n")
        code, _, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {path}: source set is empty\n"
        assert not (tmp_path / "o").exists()


class TestUnreadablePaths:
    """A path that exists but cannot be read, or an --out that cannot be made a
    directory, is one 'error: <path>: <reason>' line, exit 1, nothing written."""

    def test_directory_as_eval_input(self, tmp_path, capsys):
        code, out, err = run(capsys, "eval", str(tmp_path), str(tmp_path), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        assert not (tmp_path / "o").exists()

    def test_directory_as_report_input(self, tmp_path, capsys):
        code, out, err = run(capsys, "report", str(tmp_path), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        assert not (tmp_path / "o").exists()

    def test_non_utf8_feature_file_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "source.ufd"
        path.write_bytes(b"UFD v1\nn=1 d=1 role=source\n0 \xff\n")
        code, out, err = run(capsys, "pretrain", str(path), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_gen_out_is_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        code, out, err = run(capsys, "gen", "--preset", "opda-toy", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {os.strerror(errno.EEXIST)}\n"
        assert path.read_text() == "keep\n"

    def test_report_out_is_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "rep.tsv").write_text("h_score\t0.5\n")
        path = tmp_path / "taken"
        path.write_text("keep\n")
        code, out, err = run(capsys, "report", str(tmp_path / "rep.tsv"), "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {os.strerror(errno.EEXIST)}\n"
        assert path.read_text() == "keep\n"


class TestFailedWrites:
    """A file a command cannot write inside an existing --out is one
    'error: <path>: <reason>' line with exit 1, and no traceback."""

    @pytest.mark.parametrize("command, name", [
        ("gen", "source.ufd"), ("gen", "target.ufd"), ("gen", "config.resolved"),
        ("pretrain", "model.ufdmodel"), ("pretrain", "train.log"),
        ("adapt", "adapted.ufdmodel"), ("adapt", "trace.tsv"), ("adapt", "ct_sweep.tsv"), ("adapt", "config.resolved"),
        ("eval", "report.tsv"), ("report", "summary.tsv"),
    ])
    def test_a_directory_in_the_place_of_an_output(self, tmp_path, capsys, command, name):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        model = tmp_path / "pre" / "model.ufdmodel"
        assert run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(model.parent))[0] == 0
        (tmp_path / "rep.tsv").write_text("h_score\t0.5\n")
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        inputs = {
            "gen": ["--preset", "opda-toy"],
            "pretrain": [str(data / "source.ufd")],
            "adapt": [str(model), str(data / "target.ufd")],
            "eval": [str(model), str(data / "target.ufd")],
            "report": [str(tmp_path / "rep.tsv")],
        }[command]
        settings = [] if command == "report" else ["--config", str(cfg)]
        before = snapshot(out)
        code, _, err = run(capsys, command, *inputs, *settings, "--out", str(out))
        assert code == 1
        assert err == f"error: {out / name}: {os.strerror(errno.EISDIR)}\n"
        assert snapshot(out) == before  # no earlier output and no temporary

    @pytest.mark.parametrize("blocked", ["target.ufd", "config.resolved"])
    def test_earlier_outputs_survive_a_failed_write(self, tmp_path, capsys, blocked):
        out = tmp_path / "o"
        out.mkdir()
        outputs = ("source.ufd", "target.ufd", "config.resolved")
        for name in outputs:
            (out / name).write_text("earlier\n")
        (out / blocked).unlink()
        (out / blocked).mkdir()
        before = snapshot(out)
        gen = ("gen", "--preset", "opda-toy", "--config", str(pipeline_cfg(tmp_path)), "--out", str(out))
        code, _, err = run(capsys, *gen)
        assert code == 1
        assert err == f"error: {out / blocked}: {os.strerror(errno.EISDIR)}\n"
        assert snapshot(out) == before

        (out / blocked).rmdir()
        assert run(capsys, *gen)[0] == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(outputs)
        assert all((out / name).read_text() != "earlier\n" for name in outputs)

    def test_a_failed_write_in_a_new_out_leaves_no_out(self, tmp_path, capsys, monkeypatch):
        write_text = Path.write_text

        def disk_full_at_target(path, *args, **kwargs):
            if "target.ufd" in path.name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full_at_target)
        out = tmp_path / "o"
        code, _, err = run(capsys, "gen", "--preset", "opda-toy", "--config", str(pipeline_cfg(tmp_path)), "--out", str(out))
        assert code == 1
        assert err == f"error: {out / 'target.ufd'}: {os.strerror(errno.ENOSPC)}\n"
        assert not out.exists()


class TestRefusedAllocations:
    """A MemoryError, NumPy's refused allocation, is one 'error:' line with exit
    1 and --out left as it was. It is raised by a patch: a test never asks
    for a real allocation."""

    @pytest.mark.parametrize("command, target", [("gen", "generate"), ("pretrain", "pretrain_source")])
    @pytest.mark.parametrize("message, reason", [
        ("Unable to allocate 6.55 TiB for an array", "Unable to allocate 6.55 TiB for an array"),
        ("", "out of memory"),
    ])
    def test_is_one_error_line(self, valid_inputs, tmp_path, capsys, monkeypatch, command, target, message, reason):
        def refuse(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr(cli, target, refuse)
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("keep\n")
        before = snapshot(out)
        code, stdout, err = run(capsys, *command_argv(command, valid_inputs), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: {reason}\n"
        assert snapshot(out) == before


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Every file a command reads, from one tiny run."""
    base = tmp_path_factory.mktemp("inputs")
    cfg = ["--config", str(pipeline_cfg(base))]
    assert main(["gen", "--preset", "opda-toy", *cfg, "--out", str(base / "data")]) == 0
    model, target = base / "pre" / "model.ufdmodel", base / "data" / "target.ufd"
    assert main(["pretrain", str(base / "data" / "source.ufd"), *cfg, "--out", str(model.parent)]) == 0
    assert main(["eval", str(model), str(target), *cfg, "--out", str(base / "ev")]) == 0
    return {
        "config": base / "run.cfg", "source": base / "data" / "source.ufd", "model": model,
        "target": target, "report": base / "ev" / "report.tsv",
    }


def command_argv(command, files):
    positional = {
        "gen": ["--preset", "opda-toy"],
        "pretrain": [files["source"]],
        "adapt": [files["model"], files["target"]],
        "eval": [files["model"], files["target"]],
        "report": [files["report"]],
    }[command]
    settings = [] if command == "report" else ["--config", files["config"]]
    return [command, *map(str, positional + settings)]


CORRUPTIONS = {
    "directory": lambda path, data: path.mkdir(),
    "empty": lambda path, data: path.write_bytes(b""),
    "cut mid-line": lambda path, data: path.write_bytes(data[:-6]),
    "not utf-8": lambda path, data: path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2:]),
}
COMMAND_INPUTS = {
    "gen": ("config",), "pretrain": ("source", "config"), "adapt": ("model", "target", "config"),
    "eval": ("model", "target", "config"), "report": ("report",),
}


class TestCorruptInputs:
    """Any one input of any command replaced by a corrupt file: exit 1 or 2,
    nothing on stdout, one error line naming the file, --out untouched."""

    @pytest.mark.parametrize("command, name, corruption", [
        (command, name, corruption)
        for command, names in COMMAND_INPUTS.items()
        for name in names
        for corruption in CORRUPTIONS
        if (name, corruption) != ("config", "empty")  # an empty config sets no keys, which is valid
    ])
    def test_fails_cleanly(self, valid_inputs, tmp_path, capsys, command, name, corruption):
        bad = tmp_path / valid_inputs[name].name
        CORRUPTIONS[corruption](bad, valid_inputs[name].read_bytes())
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("keep\n")
        before = snapshot(out)
        code, stdout, err = run(capsys, *command_argv(command, {**valid_inputs, name: bad}), "--out", str(out))
        assert code in (1, 2)
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(bad) in err
        assert snapshot(out) == before

    @pytest.mark.parametrize("command, name", [
        ("pretrain", "source"), ("eval", "model"), ("eval", "target"), ("report", "report"),
    ])
    def test_a_file_cut_inside_its_last_number_is_rejected(self, valid_inputs, tmp_path, capsys, command, name):
        bad = tmp_path / valid_inputs[name].name
        bad.write_bytes(valid_inputs[name].read_bytes()[:-6])
        code, stdout, err = run(capsys, *command_argv(command, {**valid_inputs, name: bad}), "--out", str(tmp_path / "o"))
        assert (code, stdout) == (1, "")
        assert err == f"error: {bad}: no newline at end of file; it may be truncated\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("corruption", ["repeated metric", "inf", "-inf"])
    def test_a_report_with_a_repeated_metric_or_an_infinite_value_is_rejected(self, valid_inputs, tmp_path, capsys,
                                                                              corruption):
        # Beside a valid report: a repeat would count its metric twice, and an
        # infinite value would make the std warn (an error under -W error).
        lines = valid_inputs["report"].read_text(encoding="utf-8").splitlines()
        name, _ = lines[1].split("\t")
        if corruption == "repeated metric":
            lines.append(lines[1])
            reason = f"line {len(lines)}: metric {name} repeated from line 2"
        else:
            lines[1] = f"{name}\t{corruption}"
            reason = f"line 2: infinite value {corruption!r} for {name}"
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code, stdout, err = run(capsys, "report", str(valid_inputs["report"]), str(bad), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: {bad}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("values", [("1e308", "1e308"), ("1e200", "-1e200")])
    def test_reports_whose_mean_or_std_overflows_are_rejected(self, valid_inputs, tmp_path, capsys, values):
        # Finite values each: two of 1e308 overflow the mean, 1e200 and -1e200
        # the std. Either would print warnings (an error under -W error) and write inf.
        lines = valid_inputs["report"].read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("h_score\t"))
        reports = []
        for k, value in enumerate(values):
            lines[at] = f"h_score\t{value}"
            reports.append(tmp_path / f"report{k}.tsv")
            reports[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        (out / "summary.tsv").write_text("keep\n")
        before = snapshot(out)
        code, stdout, err = run(capsys, "report", *map(str, reports), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error: metric h_score: the mean or std of its values overflows\n"
        assert snapshot(out) == before

    def test_a_config_cut_inside_its_last_line_is_rejected(self, valid_inputs, tmp_path, capsys):
        # Cut inside its out_dir, config.resolved would still parse, and re-run
        # into a directory of the cut name.
        bad = tmp_path / "cut.resolved"
        bad.write_bytes((valid_inputs["report"].parent / "config.resolved").read_bytes()[:-6])
        key, _, cut_out = bad.read_text(encoding="utf-8").splitlines()[-1].partition(" = ")
        assert key == "out_dir"
        code, stdout, err = run(capsys, "gen", "--config", str(bad))
        assert (code, stdout) == (2, "")
        assert err == f"error: {bad}: no newline at end of file; it may be truncated\n"
        assert not Path(cut_out).exists()


class TestReport:
    def test_aggregates_mean_and_std(self, tmp_path, capsys):
        for i, h in enumerate((0.5, 0.7)):
            (tmp_path / f"rep{i}.tsv").write_text(f"h_score\t{h}\nncd_acc\t1.0\n")
        code, out, _ = run(
            capsys, "report", str(tmp_path / "rep0.tsv"), str(tmp_path / "rep1.tsv"),
            "--out", str(tmp_path / "sum"),
        )
        assert code == 0
        assert "h_score" in out
        summary = dict(
            (line.split("\t")[0], line.split("\t")[1:])
            for line in (tmp_path / "sum" / "summary.tsv").read_text().splitlines()[1:]
        )
        assert float(summary["h_score"][0]) == pytest.approx(0.6)
        assert float(summary["h_score"][1]) == pytest.approx(np.std([0.5, 0.7], ddof=1))
        assert summary["ncd_acc"][2] == "2"

    def test_nan_values_are_valid(self, tmp_path, capsys):
        # eval writes nan for a metric that does not apply; its mean is nan.
        for i in range(2):
            (tmp_path / f"rep{i}.tsv").write_text("h_score\t0.5\nncd_acc\tnan\n")
        code, out, err = run(capsys, "report", str(tmp_path / "rep0.tsv"), str(tmp_path / "rep1.tsv"),
                             "--out", str(tmp_path / "sum"))
        assert (code, err) == (0, "")
        assert read_lines(tmp_path / "sum" / "summary.tsv")[1:] == ["h_score\t0.5\t0.0\t2", "ncd_acc\tnan\tnan\t2"]

    def test_empty_report_exits_1(self, tmp_path, capsys):
        (tmp_path / "empty.tsv").write_text("")
        code, _, err = run(capsys, "report", str(tmp_path / "empty.tsv"))
        assert code == 1
        assert "empty.tsv: file has no metrics" in err

    def test_non_numeric_value_names_the_line(self, tmp_path, capsys):
        (tmp_path / "rep.tsv").write_text("h_score\t0.5\nncd_acc\tabc\n")
        code, _, err = run(capsys, "report", str(tmp_path / "rep.tsv"))
        assert code == 1
        assert f"{tmp_path / 'rep.tsv'}: line 2: " in err
        assert "'abc'" in err

    def test_no_inputs_exits_2(self, capsys):
        code, _, _ = run(capsys, "report")
        assert code == 2

    def test_a_closed_stdout_is_one_error_line(self, tmp_path, capsys):
        # stdout is a pipe whose reader has gone: printing the table fails
        # after summary.tsv is written, and exits 1 with one error line.
        (tmp_path / "rep.tsv").write_text("h_score\t0.5\nncd_acc\t1.0\n")
        assert run(capsys, "report", str(tmp_path / "rep.tsv"), "--out", str(tmp_path / "want"))[0] == 0
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ufda", "report", str(tmp_path / "rep.tsv"), "--out",
                                   str(tmp_path / "got")], stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == f"error: stdout: {os.strerror(errno.EPIPE)}\n"
        assert (tmp_path / "got" / "summary.tsv").read_bytes() == (tmp_path / "want" / "summary.tsv").read_bytes()
