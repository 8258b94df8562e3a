#!/usr/bin/env python3
"""Run the synthetic category-shift benchmarks across seeds and variants.

For every preset (or a chosen one) this pretrains a source model, evaluates
it directly on the target (source-only baseline), adapts it with each
requested variant, and prints one row per (preset, seed, model). H-score is
the headline metric for the open-set regimes (OPDA/OSDA), closed accuracy
for PDA/CLDA; NCD accuracy is reported whenever the target has at least two
private classes. Settings come from an optional `ufda` config file, whose
`epochs` and `lr` pretraining and adaptation share, as in `ufda` itself.

Example:
    python scripts/run_benchmark.py --seeds 1 2 3 4 5 --out results.tsv
    python scripts/run_benchmark.py --preset opda-toy --variants glcpp --config run.cfg
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from ufda.adaptation import VARIANTS, adapt, pretrain_source
from ufda.config import SCENARIO_KEYS, ConfigError, load_run_config
from ufda.datagen import PRESETS, generate, preset
from ufda.evaluation import evaluate
from ufda.numerics import Rng


def run_one(preset_name, seed, variants, config_path=None):
    """Source-only and per-variant rows, every stage built from one RunConfig
    layered as `ufda gen --preset` layers it: preset <- config file <- seed."""
    base = {name: getattr(preset(preset_name), name) for name in SCENARIO_KEYS}
    cfg = load_run_config(config_path, {"seed": seed}, base=base)
    spec = cfg.scenario()
    source, target = generate(spec)
    model = pretrain_source(source, cfg.model_dims(spec.d_in, spec.n_source_classes), cfg.adapt_config())
    n_private = spec.n_target_private if spec.n_target_private >= 2 else None

    def score(m, tag):
        rep = evaluate(m, target.features, target.labels, cfg.omega, n_private=n_private, rng=Rng(cfg.seed))
        return (preset_name, seed, tag, rep.h_score, rep.closed_acc, rep.ncd_acc)

    rows = [score(model, "source-only")]
    for variant in variants:
        adapted, _ = adapt(model, target, replace(cfg, variant=variant).adapt_config())
        rows.append(score(adapted, variant))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), help="run one preset instead of all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--variants", nargs="+", default=list(VARIANTS), choices=VARIANTS)
    parser.add_argument("--config", help="key = value config file; its keys override the preset's")
    parser.add_argument("--out", help="optional TSV file for the raw rows")
    args = parser.parse_args()

    names = [args.preset] if args.preset else sorted(PRESETS)
    all_rows = []
    t0 = time.time()
    try:
        for name in names:
            for seed in args.seeds:
                all_rows.extend(run_one(name, seed, args.variants, args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'preset':<10} {'seed':>4} {'model':<12} {'h_score':>8} {'closed':>8} {'ncd':>8}"
    print(header)
    print("-" * len(header))
    for name, seed, tag, h, closed, ncd in all_rows:
        print(f"{name:<10} {seed:>4} {tag:<12} {h:>8.4f} {closed:>8.4f} {ncd:>8.4f}")

    print(f"\nmeans over seeds ({time.time() - t0:.0f}s total):")
    for name in names:
        for tag in ["source-only"] + args.variants:
            hs, cs, ns = np.array([r[3:] for r in all_rows if r[0] == name and r[2] == tag]).T
            with np.errstate(invalid="ignore"):
                print(f"  {name:<10} {tag:<12} H={np.mean(hs):.4f} closed={np.mean(cs):.4f} ncd={np.mean(ns):.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("preset\tseed\tmodel\th_score\tclosed_acc\tncd_acc\n")
            for name, seed, tag, h, closed, ncd in all_rows:
                f.write(f"{name}\t{seed}\t{tag}\t{h!r}\t{closed!r}\t{ncd!r}\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
