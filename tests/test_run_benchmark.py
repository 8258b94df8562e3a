"""scripts/run_benchmark.py: a short smoke run, its agreement with the CLI
pipeline on the same config, and its exit code on a bad config."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from ufda.cli import main

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("h_score", "closed_acc", "ncd_acc")


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f, delimiter="\t"))


def test_one_seed_writes_a_row_per_model(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\n")
    out = tmp_path / "rows.tsv"
    done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", out)
    assert done.returncode == 0, done.stderr
    rows = read_rows(out)
    assert [(r["preset"], r["seed"], r["model"]) for r in rows] == [
        ("opda-toy", "1", "source-only"), ("opda-toy", "1", "glc"), ("opda-toy", "1", "glcpp"),
    ]
    for r in rows:
        for name in METRICS:
            assert 0.0 <= float(r[name]) <= 1.0, (r["model"], name)  # NaN fails too


def test_glcpp_row_equals_the_cli_pipeline(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source_per_class = 20\ntarget_per_class = 20\nepochs = 3\nlr = 0.05\n")
    seed = "3"
    done = run_script(
        "--preset", "opda-toy", "--seeds", seed, "--variants", "glcpp", "--config", cfg, "--out", tmp_path / "rows.tsv",
    )
    assert done.returncode == 0, done.stderr
    (row,) = [r for r in read_rows(tmp_path / "rows.tsv") if r["model"] == "glcpp"]

    args = ["--config", str(cfg), "--seed", seed]
    data, pre, ad, ev = (tmp_path / name for name in ("data", "pre", "ad", "ev"))
    assert main(["gen", "--preset", "opda-toy", *args, "--out", str(data)]) == 0
    assert main(["pretrain", str(data / "source.ufd"), *args, "--out", str(pre)]) == 0
    assert main(["adapt", str(pre / "model.ufdmodel"), str(data / "target.ufd"), *args,
                 "--variant", "glcpp", "--out", str(ad)]) == 0
    assert main(["eval", str(ad / "adapted.ufdmodel"), str(data / "target.ufd"), *args,
                 "--ncd", "3", "--out", str(ev)]) == 0
    capsys.readouterr()
    report = dict(line.split("\t") for line in (ev / "report.tsv").read_text().splitlines())

    assert float(row["h_score"]) > 0.0  # a seed whose H carries information
    for name in METRICS:
        assert float(row[name]) == float(report[name]), name


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lr = -1\n")
    out = tmp_path / "rows.tsv"
    done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", out)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "lr" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
