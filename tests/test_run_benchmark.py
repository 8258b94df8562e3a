"""Smoke test of scripts/run_benchmark.py: one short seed on one preset."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_seed_writes_a_row_per_model(tmp_path):
    out = tmp_path / "rows.tsv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"), "--preset", "opda-toy",
         "--seeds", "1", "--epochs", "1", "--pretrain-epochs", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
    assert [(r["preset"], r["seed"], r["model"]) for r in rows] == [
        ("opda-toy", "1", "source-only"), ("opda-toy", "1", "glc"), ("opda-toy", "1", "glcpp"),
    ]
    for r in rows:
        for name in ("h_score", "closed_acc", "ncd_acc"):
            assert 0.0 <= float(r[name]) <= 1.0, (r["model"], name)  # NaN fails too
