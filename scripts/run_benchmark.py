#!/usr/bin/env python3
"""Run the synthetic category-shift benchmarks across seeds and variants.

For every preset (or a chosen one) this pretrains a source model, evaluates
it directly on the target (source-only baseline), adapts it with each
requested variant, and prints one row per (preset, seed, model). H-score is
the headline metric for the open-set regimes (OPDA/OSDA), closed accuracy
for PDA/CLDA; NCD accuracy is reported whenever the target has at least two
private classes.

Example:
    python scripts/run_benchmark.py --seeds 1 2 3 4 5 --out results.tsv
    python scripts/run_benchmark.py --preset opda-toy --variants glcpp
"""

import argparse
import sys
import time

import numpy as np

from ufda.adaptation import AdaptConfig, adapt, pretrain_source
from ufda.config import RunConfig
from ufda.datagen import PRESETS, generate, preset
from ufda.evaluation import evaluate
from ufda.model import ModelDims
from ufda.numerics import Rng


def run_one(preset_name, seed, variants, args):
    spec = preset(preset_name, seed=seed)
    source, target = generate(spec)
    dims = ModelDims(spec.d_in, args.d_hidden, args.d_feat, spec.n_source_classes)
    pre_cfg = AdaptConfig(seed=seed, epochs=args.pretrain_epochs, lr=args.pretrain_lr)
    model = pretrain_source(source, dims, pre_cfg)

    n_private = spec.n_target_private if spec.n_target_private >= 2 else None
    rows = []

    def eval_model(m, tag):
        rep = evaluate(m, target.features, target.labels, args.omega,
                       n_private=n_private, rng=Rng(seed))
        rows.append((preset_name, seed, tag, rep.h_score, rep.closed_acc, rep.ncd_acc))

    eval_model(model, "source-only")
    for variant in variants:
        cfg = AdaptConfig(seed=seed, variant=variant, epochs=args.epochs,
                          lr=args.lr, eta=args.eta, rho=args.rho, omega=args.omega)
        adapted, _ = adapt(model, target, cfg)
        eval_model(adapted, variant)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), help="run one preset instead of all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--variants", nargs="+", default=["glc", "glcpp"], choices=["glc", "glcpp"])
    parser.add_argument("--epochs", type=int, default=AdaptConfig.epochs)
    parser.add_argument("--lr", type=float, default=AdaptConfig.lr)
    parser.add_argument("--eta", type=float, default=AdaptConfig.eta)
    parser.add_argument("--rho", type=float, default=AdaptConfig.rho)
    parser.add_argument("--omega", type=float, default=AdaptConfig.omega)
    parser.add_argument("--pretrain-epochs", type=int, default=AdaptConfig.epochs)
    parser.add_argument("--pretrain-lr", type=float, default=AdaptConfig.lr)
    parser.add_argument("--d-hidden", type=int, default=RunConfig.d_hidden)
    parser.add_argument("--d-feat", type=int, default=RunConfig.d_feat)
    parser.add_argument("--out", help="optional TSV file for the raw rows")
    args = parser.parse_args()

    names = [args.preset] if args.preset else sorted(PRESETS)
    all_rows = []
    t0 = time.time()
    for name in names:
        for seed in args.seeds:
            all_rows.extend(run_one(name, seed, args.variants, args))

    header = f"{'preset':<10} {'seed':>4} {'model':<12} {'h_score':>8} {'closed':>8} {'ncd':>8}"
    print(header)
    print("-" * len(header))
    for name, seed, tag, h, closed, ncd in all_rows:
        print(f"{name:<10} {seed:>4} {tag:<12} {h:>8.4f} {closed:>8.4f} {ncd:>8.4f}")

    print(f"\nmeans over seeds ({time.time() - t0:.0f}s total):")
    for name in names:
        for tag in ["source-only"] + args.variants:
            sel = [(h, c, n) for p, _, t, h, c, n in all_rows if p == name and t == tag]
            hs, cs, ns = (np.array([x[i] for x in sel]) for i in range(3))
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
