#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size, in about a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json shrunk to a few samples per class and
two epochs, untraced and traced, and checks the result object: its keys,
that it is correct, and that its metric names and units are exactly those
BENCHMARK.json lists for the mode.  The traced run is made twice to check
that the exact counts repeat.  Last, run.py must fail without printing a
result in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_result(result: dict, spec: list[dict], where: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: not correct")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (type(attempted) is int and type(failed) is int and attempted >= 1 and failed == 0):
        problems.append(f"{where}: attempted={attempted!r} failed={failed!r}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in spec}
    if list(metrics) != list(expected):
        problems.append(f"{where}: metric names {list(metrics)} != {list(expected)}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            problems.append(f"{where}: {name} is {m}, expected unit {expected.get(name)}")
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
    return problems


def tiny(workload):
    return replace(workload, epochs=2, scenarios=min(2, workload.scenarios),
                   overrides={**workload.overrides, "source_per_class": 12,
                              "target_per_class": 12})


def check_fails_without_library(spec: dict) -> list[str]:
    """run.py must exit non-zero and print no result where src/ is missing."""
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} are not all in {list(WORKLOADS)}")
    for name in names:
        workload = tiny(WORKLOADS[name])
        result, _ = bench.execute(workload, seed=1, seconds=0.0, trace=False)
        problems += check_result(result, spec["end_to_end"], f"{name} trace 0")
        traced = [bench.execute(workload, seed=1, seconds=0.0, trace=True)[0] for _ in range(2)]
        problems += check_result(traced[0], spec["per_layer"], f"{name} trace 1")
        for metric, m in traced[0]["metrics"].items():
            if m["unit"] == "count" and traced[1]["metrics"][metric] != m:
                problems.append(f"{name}: count {metric} differs between traced runs")
        print(f"{name}: checked", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    problems += check_fails_without_library(spec)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
