"""The benchmark's own smoke check passes: both modes of every workload in
BENCHMARK.json run at a tiny size, and their result objects hold exactly the
declared metrics."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_0():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: all checks passed"
