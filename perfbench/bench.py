"""Measurement loops of the ufda benchmark; run.py is the entry point.

measure() is the untraced run behind the end-to-end metrics, measure_traced()
the traced run behind the per-module metrics.  execute() runs either and
builds the result object that run.py prints.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pipeline
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Stop a run early rather than overrun the 180 s a run may take.
WALL_LIMIT_S = 150.0
# Extra generate + pretrain calls per run, so setup_s is a median of many.
SETUP_TRIALS = 12
# Traced self times must cover the traced adapt() wall time this closely.
ACCOUNTING_TOLERANCE = 0.05

E2E_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "adapt_s": "s",
    "epoch_s.p50": "s",
    "epoch_s.p90": "s",
    "peak_rss_mb": "MiB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def failing_module(exc: BaseException) -> str:
    """The ufda module a failure came from: the innermost library frame of
    the traceback, or the layer a failed check names."""
    module = getattr(exc, "module", None)
    if module:
        return module
    module = "perfbench"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "ufda":
            module = path.stem
    return module


class Attempts:
    """Counts pipelines attempted and failed; a failure is logged with the
    workload, repetition, scenario seed and module."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, rep: str, seed: int, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.failed += 1
            log(f"FAIL workload={self.workload} repetition={rep} scenario_seed={seed} "
                f"module={failing_module(exc)}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None


def same_outputs(first, other) -> None:
    """Raise CheckFailed if a repeated pipeline's outputs differ at all."""
    for module in ("adaptation", "evaluation"):
        if first.digest[module] != other.digest[module]:
            raise pipeline.CheckFailed(module, "output differs from the first repetition")


def warm_up(workload) -> None:
    """One tiny pipeline, so lazy imports and first-call costs fall outside
    the timed region."""
    tiny = replace(workload, epochs=1, scenarios=1,
                   overrides={**workload.overrides, "source_per_class": 10,
                              "target_per_class": 10})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.run(tiny, 0)


def measure(workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics over passes through the scenarios."""
    seeds = workload.scenario_seeds(seed)
    attempts = Attempts(workload.name)
    warm_up(workload)

    first = {}         # scenario seed -> first successful PipelineRun
    setup_digest = {}  # scenario seed -> digest of its first setup
    passes: list[list] = []
    setup_seconds: list[float] = []

    def pipeline_of(s: int, rep: str):
        def one():
            result = pipeline.run(workload, s)
            if setup_digest.setdefault(s, result.digest["setup"]) != result.digest["setup"]:
                raise pipeline.CheckFailed("datagen", "setup output differs between calls")
            same_outputs(first.setdefault(s, result), result)
            return result
        return attempts.run(rep, s, one)

    def extra_setups(when: str) -> None:
        for i in range(SETUP_TRIALS // 2):
            s = seeds[i % len(seeds)]

            def one(s=s):
                prepared = pipeline.setup(workload, s)
                digest = prepared.digest()
                if setup_digest.setdefault(s, digest) != digest:
                    raise pipeline.CheckFailed("datagen", "setup output differs between calls")
                return prepared
            prepared = attempts.run(f"setup-{when}-{i}", s, one)
            if prepared is not None:
                setup_seconds.append(sum(prepared.seconds.values()))

    # Half the extra setups run before the pipelines and half after, so that
    # setup_s samples more of the run than one burst.
    extra_setups("before")
    # A pass adapts every scenario once.  A run makes at least
    # workload.passes passes, and another one only if it should end within
    # --seconds, so that its timings average over as much of a shared
    # machine's slow and fast spells as the time allows.
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        done = [r for s in seeds if (r := pipeline_of(s, str(len(passes)))) is not None]
        passes.append(done)
        setup_seconds += [r.seconds["generate"] + r.seconds["pretrain"] for r in done]
        now = time.perf_counter()
        if len(passes) >= workload.passes and (
                now - start + (now - pass_start) > min(seconds, WALL_LIMIT_S)):
            break
    extra_setups("after")

    # Only whole passes count, so every run weighs the scenarios alike.
    timed = [r for p in passes if len(p) == len(seeds) for r in p]
    epoch_seconds = [e for r in timed for e in r.epoch_seconds]
    metrics = {}
    if timed and setup_seconds:
        metrics = {
            "pipeline_s": statistics.fmean(r.seconds["pipeline"] for r in timed),
            "setup_s": statistics.median(setup_seconds),
            "adapt_s": statistics.fmean(r.seconds["adapt"] for r in timed),
            "epoch_s.p50": statistics.median(epoch_seconds),
            "epoch_s.p90": statistics.quantiles(epoch_seconds, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    details = {
        "scenario_seeds": seeds,
        "passes": len(passes),
        "epoch_samples": len(epoch_seconds),
        "setup_samples": len(setup_seconds),
        "pipelines": [[{"seed": r.seed, **r.seconds, "epochs": r.epoch_seconds} for r in p]
                      for p in passes],
        "quality": {str(s): quality(r.report) for s, r in first.items()},
        "digests": {str(s): r.digest for s, r in first.items()},
    }
    return attempts, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, details


def quality(report) -> dict:
    return {k: getattr(report, k) for k in ("h_score", "closed_acc", "ncd_acc")}


def measure_traced(workload, seed: int):
    """Traced run: the first scenario untraced, then traced; per-module metrics."""
    s = workload.scenario_seeds(seed)[0]
    attempts = Attempts(workload.name)
    warm_up(workload)
    plain = attempts.run("untraced", s, lambda: pipeline.run(workload, s))
    tracer = tracing.Tracer()

    def traced_run():
        with tracing.installed(tracer):
            result = pipeline.run(workload, s)
        if plain is not None:
            same_outputs(plain, result)
        share = tracing.adapt_self_seconds(tracer) / result.seconds["adapt"]
        if abs(share - 1.0) > ACCOUNTING_TOLERANCE:
            raise pipeline.CheckFailed(
                "perfbench", f"self times cover {share:.4f} of the traced adapt_s")
        return result
    traced = attempts.run("traced", s, traced_run)

    metrics = {}
    if plain is not None and traced is not None:
        metrics = tracing.layer_metrics(tracer)
        adapt_wall = traced.seconds["adapt"]
        metrics["trace.accounted_share"] = (tracing.adapt_self_seconds(tracer) / adapt_wall, "1")
        metrics["trace.overhead_ratio"] = (adapt_wall / plain.seconds["adapt"], "1")
        for name, value in quality(traced.report).items():
            # -1 marks a metric the workload does not define (no unknowns).
            metrics[f"quality.{name}"] = (-1.0 if math.isnan(value) else value, "1")
        metrics["error_rate"] = (attempts.failed / attempts.attempted, "1")
    details = {"scenario_seed": s, "spans": [asdict(sp) for sp in tracer.spans]}
    return attempts, metrics, details


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def execute(workload, seed: int, seconds: float, trace: bool):
    """One run; returns the result object and the full record of the run."""
    if trace:
        attempts, metrics, details = measure_traced(workload, seed)
    else:
        attempts, metrics, details = measure(workload, seed, seconds)
    result = {
        "correct": attempts.failed == 0 and bool(metrics),
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(workloads, argv=None) -> int:
    parser = argparse.ArgumentParser(description="ufda benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, details = execute(workloads[args.workload], args.seed, args.seconds, args.trace)
    record = run_record(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"record": record, "result": result, **details}, f, indent=1)

    for key, value in record.items():
        print(f"# {key}: {value}")
    if not args.trace:
        print(f"# passes: {details['passes']}; epochs timed: {details['epoch_samples']}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
