"""scripts/run_benchmark.py: a short smoke run, its agreement with the CLI
pipeline on the same config, one read of its config, and its exit code and
one error line on a bad config, a failed run and a failed write."""

import builtins
import csv
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_run_benchmark
from ufda.adaptation import VARIANTS
from ufda.cli import main
from ufda.datagen import PRESETS

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
    assert main(["eval", str(ad / "adapted.ufdmodel"), str(data / "target.ufd"), *args, "--out", str(ev)]) == 0
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


def test_non_utf8_config_exits_2_naming_its_path(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs = 2\n\xff\n")
    out = tmp_path / "rows.tsv"
    done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", out)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def test_config_keys_the_script_owns_exit_2(tmp_path):
    out = tmp_path / "rows.tsv"
    for line in ("seed = 99", "variant = glc", "source_path = s.ufd", "target_path = t.ufd",
                 "model_path = m.ufdmodel", "out_dir = o"):
        cfg = tmp_path / "owned.cfg"
        cfg.write_text(f"epochs = 2\n{line}\n")
        done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", out)
        key = line.split(" = ")[0]
        assert done.returncode == 2, (key, done.stderr)
        assert done.stderr.startswith("error: ")
        assert repr(key) in done.stderr
        assert done.stdout == ""
        assert not out.exists()


TINY_CONFIG = "source_per_class = 6\ntarget_per_class = 6\nepochs = 1\nd_hidden = 8\nd_feat = 4\n"


def test_the_config_is_read_once(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # what Path.read_text opens through
    monkeypatch.setattr(builtins, "open", counting_open)
    script = load_run_benchmark()
    monkeypatch.setattr(script, "PRESETS", {name: PRESETS[name] for name in ("opda-toy", "pda-toy")})
    out = tmp_path / "rows.tsv"
    argv = ["run_benchmark.py", "--seeds", "1", "2", "--variants", "glc", "--config", str(cfg), "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0, capsys.readouterr().err
    assert opened.count(str(cfg)) == 1
    assert [(r["preset"], r["seed"]) for r in read_rows(out)] == [
        (name, seed) for name in ("opda-toy", "pda-toy") for seed in ("1", "2") for _ in range(2)
    ]


def test_a_diverging_run_is_one_error_line(tmp_path):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("lr = 1e8\n")
    out = tmp_path / "rows.tsv"
    done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", out)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: opda-toy seed 1: pretraining failed at epoch 0, batch ")
    assert done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()


def test_a_failed_write_is_one_error_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    parent = tmp_path / "taken"
    parent.write_text("keep\n")
    done = run_script("--preset", "opda-toy", "--seeds", "1", "--config", cfg, "--out", parent / "rows.tsv")
    assert done.returncode == 1
    assert done.stderr == f"error: {parent}: {os.strerror(errno.EEXIST)}\n"
    assert "opda-toy      1 glcpp" in done.stdout  # the rows were printed before the write
    assert parent.read_text() == "keep\n"


@pytest.mark.parametrize("message, reason", [("Unable to allocate 6.55 TiB", "Unable to allocate 6.55 TiB"),
                                             ("", "out of memory")])
def test_a_refused_allocation_is_one_error_line(tmp_path, monkeypatch, capsys, message, reason):
    # Raised by a patch, so no real allocation is asked for.
    def refuse(*args):
        raise MemoryError(message) if message else MemoryError()

    script = load_run_benchmark()
    monkeypatch.setattr(script, "run_one", refuse)
    out = tmp_path / "rows.tsv"
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--preset", "opda-toy", "--seeds", "1", "--out", str(out)])
    assert script.main() == 1
    assert capsys.readouterr() == ("", f"error: opda-toy seed 1: {reason}\n")
    assert not out.exists()


# run_one's rows as the --out file holds them, floats by repr, at two seeds.
# Any change to them is an output change, which CHANGES.md must state.
PINNED_ROWS = (
    "opda-toy\t1\tsource-only\t0.1927710843373494\t0.5533333333333333\t1.0\n"
    "opda-toy\t1\tglc\t0.6439694656488548\t0.655\t1.0\n"
    "opda-toy\t1\tglcpp\t0.5707386363636363\t0.5866666666666667\t1.0\n"
    "osda-toy\t5\tsource-only\t0.5374771480804388\t0.68375\t0.995\n"
    "osda-toy\t5\tglc\t0.393574297188755\t0.6225\t0.9975\n"
    "osda-toy\t5\tglcpp\t0.7823439878234398\t0.82125\t1.0\n"
)


def test_rows_equal_the_pinned_text():
    script = load_run_benchmark()
    rows = [row for preset, seed in (("opda-toy", 1), ("osda-toy", 5)) for row in script.run_one(preset, seed, VARIANTS, {})]
    assert "".join(script.tsv_row(row) + "\n" for row in rows) == PINNED_ROWS, (
        "run_benchmark.py rows changed: state the change and its quality delta in CHANGES.md, then re-pin PINNED_ROWS"
    )


def test_means_over_seeds_are_those_of_ufda_report(monkeypatch, capsys):
    # Canned rows, H 0.5 and 0.7 over two seeds: the block prints the mean and
    # sample std that `ufda report` gives, and nan for a metric that does not apply.
    script = load_run_benchmark()
    h_of = {1: 0.5, 2: 0.7}
    monkeypatch.setattr(script, "run_one", lambda name, seed, variants, file_keys: [
        (name, seed, tag, h_of[seed], 1.0, float("nan")) for tag in ["source-only", *variants]
    ])
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--preset", "opda-toy", "--seeds", "1", "2", "--variants", "glc"])
    assert script.main() == 0
    block = capsys.readouterr().out.split("mean +- std over seeds")[1].splitlines()[1:]
    cells = "H=0.6000 +- 0.1414  closed=1.0000 +- 0.0000  ncd=   nan +-    nan"
    assert block == [f"  opda-toy   source-only  {cells}", f"  opda-toy   glc          {cells}"]
