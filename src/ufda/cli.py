"""Command-line entry point: gen, pretrain, adapt, eval, report.

Human-readable output goes to stdout; machine-readable blocks go to files in
the --out directory, alongside the fully resolved config of the run. Exit
codes: 0 success, 1 runtime failure (missing/invalid files, dimension
mismatch), 2 bad configuration (unknown keys, out-of-range values, regime
violations, bad flags).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .adaptation import VARIANTS, adapt, pretrain_source
from .config import SCENARIO_KEYS, ConfigError, load_run_config
from .datagen import (
    FeatureFileError,
    ScenarioError,
    generate,
    load_featureset,
    preset,
    save_featureset,
)
from .evaluation import evaluate
from .model import CheckpointError, load_model, save_model
from .numerics import Rng


class CliError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _out_dir(path_text: str) -> Path:
    """Checked up front, created only after the command's work succeeds."""
    if not path_text:
        raise CliError("an output directory is required (--out)", code=2)
    return Path(path_text)


def _load(loader, path_text: str, what: str):
    if not path_text:
        raise CliError(f"missing {what} path", code=2)
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"{what} not found: {path}")
    try:
        return loader(path)
    except (FeatureFileError, CheckpointError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_model_and_target(args, cfg):
    model = _load(load_model, args.model or cfg.model_path, "model checkpoint")
    target = _load(load_featureset, args.target or cfg.target_path, "target file")
    if target.features.shape[1] != model.dims.d_in:
        raise CliError(
            f"target dimension d={target.features.shape[1]} does not match model d_in={model.dims.d_in}"
        )
    return model, target


def _overrides(args) -> dict:
    keys = (
        "seed", "variant", "omega", "eta", "rho", "epochs", "k_neighbors",
        "source_path", "target_path", "model_path", "out_dir",
    )
    return {k: getattr(args, k, None) for k in keys}


def cmd_gen(args) -> int:
    base = {}
    if args.preset:
        try:
            ps = preset(args.preset)
        except KeyError as exc:
            raise CliError(str(exc.args[0]), code=2) from None
        base = {name: getattr(ps, name) for name in SCENARIO_KEYS}
    cfg = load_run_config(args.config, _overrides(args), base=base)
    spec = cfg.scenario()
    out = _out_dir(cfg.out_dir)
    source, target = generate(spec)
    out.mkdir(parents=True, exist_ok=True)
    save_featureset(source, out / "source.ufd")
    save_featureset(target, out / "target.ufd")
    cfg.save(out / "spec.resolved")
    print(f"wrote {out / 'source.ufd'} ({len(source)} samples) and {out / 'target.ufd'} ({len(target)} samples)")
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    source = _load(load_featureset, args.source or cfg.source_path, "source file")
    if source.role != "source":
        raise CliError(f"expected a source-role feature file, got role={source.role!r}")
    n_classes = int(source.labels.max()) + 1
    dims = cfg.model_dims(d_in=source.features.shape[1], n_classes=n_classes)
    out = _out_dir(cfg.out_dir)
    log_lines: list[str] = []
    model = pretrain_source(source, dims, cfg.adapt_config(), log_fn=log_lines.append)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.ufdmodel")
    (out / "train.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    cfg.save(out / "config.resolved")
    print(f"wrote {out / 'model.ufdmodel'} (classes={n_classes})")
    return 0


def cmd_adapt(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    model, target = _load_model_and_target(args, cfg)
    out = _out_dir(cfg.out_dir)
    adapted, trace = adapt(model, target, cfg.adapt_config())
    out.mkdir(parents=True, exist_ok=True)
    save_model(adapted, out / "adapted.ufdmodel")
    trace.save(out / "trace.tsv")
    cfg.save(out / "config.resolved")
    print(f"wrote {out / 'adapted.ufdmodel'} after {len(trace.epochs)} epochs (variant={cfg.variant})")
    return 0


def cmd_eval(args) -> int:
    if args.ncd is not None and args.ncd < 2:
        raise CliError(f"--ncd must be at least 2, got {args.ncd}", code=2)
    cfg = load_run_config(args.config, _overrides(args))
    model, target = _load_model_and_target(args, cfg)
    out = _out_dir(cfg.out_dir)
    report = evaluate(model, target.features, target.labels, cfg.omega, n_private=args.ncd, rng=Rng(cfg.seed))
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.tsv").write_text("\n".join(report.machine_lines()) + "\n", encoding="utf-8")
    cfg.save(out / "config.resolved")
    print(report.human_table())
    return 0


def cmd_report(args) -> int:
    if not args.reports:
        raise CliError("report needs at least one eval output file", code=2)
    metrics: dict[str, list[float]] = {}
    order: list[str] = []
    for path_text in args.reports:
        path = Path(path_text)
        if not path.exists():
            raise CliError(f"report file not found: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
        if not any(line.strip() for line in lines):
            raise CliError(f"{path}: file has no metrics")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CliError(f"{path}:{lineno}: expected 'metric<TAB>value'")
            name, value = parts
            try:
                number = float(value)
            except ValueError:
                raise CliError(f"{path}:{lineno}: non-numeric value {value!r} for {name}") from None
            if name not in metrics:
                metrics[name] = []
                order.append(name)
            metrics[name].append(number)

    width = max(len(name) for name in order)
    human = ["metric".ljust(width) + "  mean      std       n"]
    machine = ["metric\tmean\tstd\tn"]
    for name in order:
        vals = np.array(metrics[name])
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if vals.shape[0] > 1 else 0.0
        human.append(f"{name.ljust(width)}  {mean:<8.4f}  {std:<8.4f}  {vals.shape[0]}")
        machine.append(f"{name}\t{mean!r}\t{std!r}\t{vals.shape[0]}")
    print("\n".join(human))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.tsv").write_text("\n".join(machine) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ufda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--omega", type=float, help="unknown-rejection entropy threshold")
        p.add_argument("--eta", type=float, help="global-loss trade-off weight")
        p.add_argument("--rho", type=float, help="source-private suppression floor")
        p.add_argument("--k", dest="k_neighbors", type=int, help="consensus neighbor count")
        p.add_argument("--epochs", type=int)
        p.add_argument("--out", dest="out_dir", help="output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic benchmark pair")
    p_gen.add_argument("--preset", help="named scenario preset (e.g. opda-toy)")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen)

    p_pre = sub.add_parser("pretrain", help="pretrain the source model")
    p_pre.add_argument("source", nargs="?", help="source .ufd file")
    common(p_pre)
    p_pre.set_defaults(fn=cmd_pretrain)

    p_adapt = sub.add_parser("adapt", help="adapt a pretrained model to a target set")
    p_adapt.add_argument("model", nargs="?", help="pretrained .ufdmodel checkpoint")
    p_adapt.add_argument("target", nargs="?", help="target .ufd file")
    common(p_adapt)
    p_adapt.set_defaults(fn=cmd_adapt)

    p_eval = sub.add_parser("eval", help="evaluate a model on a labeled target set")
    p_eval.add_argument("model", nargs="?", help=".ufdmodel checkpoint")
    p_eval.add_argument("target", nargs="?", help="target .ufd file")
    p_eval.add_argument("--ncd", type=int, help="true target-private class count for NCD accuracy")
    common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_rep = sub.add_parser("report", help="aggregate eval outputs into mean/std across seeds")
    p_rep.add_argument("reports", nargs="*", help="report.tsv files from eval runs")
    p_rep.add_argument("--out", dest="out_dir", help="output directory for summary.tsv")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FeatureFileError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
