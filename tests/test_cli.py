import os
import warnings

import numpy as np
import pytest

from ufda.cli import main
from ufda.datagen import load_featureset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        source = load_featureset(out / "source.ufd")
        target = load_featureset(out / "target.ufd")
        assert len(source) == 6 * 12
        assert len(target) == 6 * 12
        assert (out / "spec.resolved").exists()

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a = gen_small(tmp_path / "a", capsys)
        b = gen_small(tmp_path / "b", capsys)
        assert (a / "source.ufd").read_bytes() == (b / "source.ufd").read_bytes()
        assert (a / "target.ufd").read_bytes() == (b / "target.ufd").read_bytes()

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
                "--config", str(cfg), "--seed", "5", "--ncd", "3", "--out", str(base / "ev"),
            )
            assert code == 0, err
            assert "h_score" in out
            reports.append((base / "ev" / "report.tsv").read_bytes())

        assert reports[0] == reports[1]

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

    def test_eval_ncd_below_two_exits_2(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        for ncd in ("1", "0"):
            code, _, err = run(
                capsys, "eval", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
                "--config", str(cfg), "--ncd", ncd, "--out", str(tmp_path / f"ev{ncd}"),
            )
            assert code == 2, err
            assert "--ncd" in err
            assert not (tmp_path / f"ev{ncd}").exists()

    def test_eval_ncd_above_unknown_count_exits_1(self, tmp_path, capsys):
        cfg = pipeline_cfg(tmp_path)
        data = gen_small(tmp_path, capsys)  # 3 private classes x 12 unknown samples
        run(capsys, "pretrain", str(data / "source.ufd"), "--config", str(cfg), "--out", str(tmp_path / "pre"))
        code, _, err = run(
            capsys, "eval", str(tmp_path / "pre" / "model.ufdmodel"), str(data / "target.ufd"),
            "--config", str(cfg), "--ncd", "37", "--out", str(tmp_path / "ev"),
        )
        assert code == 1
        assert "fewer unknown samples than private classes" in err
        assert not (tmp_path / "ev").exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "pretrain", str(tmp_path / "missing.ufd"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "not found" in err


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

    def test_empty_report_exits_1(self, tmp_path, capsys):
        (tmp_path / "empty.tsv").write_text("")
        code, _, err = run(capsys, "report", str(tmp_path / "empty.tsv"))
        assert code == 1
        assert "empty.tsv: file has no metrics" in err

    def test_non_numeric_value_names_the_line(self, tmp_path, capsys):
        (tmp_path / "rep.tsv").write_text("h_score\t0.5\nncd_acc\tabc\n")
        code, _, err = run(capsys, "report", str(tmp_path / "rep.tsv"))
        assert code == 1
        assert "rep.tsv:2:" in err
        assert "'abc'" in err

    def test_no_inputs_exits_2(self, capsys):
        code, _, _ = run(capsys, "report")
        assert code == 2
