#!/usr/bin/env python3
"""Run the synthetic category-shift benchmarks across seeds and variants.

For every preset (or a chosen one) this pretrains a source model, evaluates
it directly on the target (source-only baseline), adapts it with each
requested variant, and prints one row per (preset, seed, model), then each
metric's mean and std over seeds by `ufda report`'s rule. H-score is
the headline metric for the open-set regimes (OPDA/OSDA), closed accuracy
for PDA/CLDA; NCD accuracy is reported where `novel_class_count` defines it.
Settings come from an optional `ufda` config file, read once, whose `epochs`
and `lr` pretraining and adaptation share, as in `ufda` itself; it may not
set `seed`, `variant` or a path key (OWNED_KEYS). A bad config exits 2, a
failed run or write 1, with one `error:` line and --out left as it was.

Example:
    python scripts/run_benchmark.py --seeds 1 2 3 4 5 --out results.tsv
    python scripts/run_benchmark.py --preset opda-toy --variants glcpp --config run.cfg
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from ufda.adaptation import VARIANTS, adapt, pretrain_source
from ufda.cli import CliError, mean_std, read_config, write_files
from ufda.config import PATH_KEYS, ConfigError, load_run_config
from ufda.datagen import PRESETS, generate
from ufda.evaluation import evaluate, novel_class_count
from ufda.numerics import Rng

OWNED_KEYS = ("seed", "variant") + PATH_KEYS


def run_one(preset_name, seed, variants, file_keys):
    """Source-only and per-variant rows, every stage built from one RunConfig
    layered as `ufda gen --preset` layers it: preset <- the config file's
    keys (read_config's dict) <- seed."""
    cfg = load_run_config(file_keys, {"seed": seed}, preset=preset_name)
    spec = cfg.scenario()
    source, target = generate(spec)
    model = pretrain_source(source, cfg.model_dims(spec.d_in, spec.n_source_classes), cfg.adapt_config())
    n_private = novel_class_count(target.labels, spec.n_source_classes)

    def score(m, tag):
        rep = evaluate(m, target.features, target.labels, cfg.omega, n_private=n_private, rng=Rng(cfg.seed))
        return (preset_name, seed, tag, rep.h_score, rep.closed_acc, rep.ncd_acc)

    rows = [score(model, "source-only")]
    for variant in variants:
        adapted, _ = adapt(model, target, replace(cfg, variant=variant).adapt_config())
        rows.append(score(adapted, variant))
    return rows


def tsv_row(row):
    """One run_one row as a line of the --out file, floats by repr."""
    name, seed, tag, h, closed, ncd = row
    return f"{name}\t{seed}\t{tag}\t{h!r}\t{closed!r}\t{ncd!r}"


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
        file_keys = read_config(args.config)
        # --seeds and --variants set seed and variant, and no path is read from
        # the config, so a config that sets one of OWNED_KEYS is an error.
        owned = [key for key in file_keys if key in OWNED_KEYS]
        if owned:
            raise ConfigError(f"{args.config}: the script does not take {owned[0]!r} from a config")
        for name in names:
            for seed in args.seeds:
                all_rows.extend(run_one(name, seed, args.variants, file_keys))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # raised by run_one: a diverging run, say
        print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
        return 1

    header = f"{'preset':<10} {'seed':>4} {'model':<12} {'h_score':>8} {'closed':>8} {'ncd':>8}"
    print(header)
    print("-" * len(header))
    for name, seed, tag, h, closed, ncd in all_rows:
        print(f"{name:<10} {seed:>4} {tag:<12} {h:>8.4f} {closed:>8.4f} {ncd:>8.4f}")

    print(f"\nmean +- std over seeds ({time.time() - t0:.0f}s total):")
    for name in names:
        for tag in ["source-only"] + args.variants:
            columns = zip(*[row[3:] for row in all_rows if row[0] == name and row[2] == tag])
            cells = [f"{metric}={mean:6.4f} +- {std:6.4f}"
                     for metric, (mean, std, _) in zip(("H", "closed", "ncd"), map(mean_std, columns))]
            print(f"  {name:<10} {tag:<12} {'  '.join(cells)}")

    if args.out:
        out = Path(args.out)
        try:
            write_files(out.parent, {out.name: ["preset\tseed\tmodel\th_score\tclosed_acc\tncd_acc"]
                                     + [tsv_row(row) for row in all_rows]})
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
