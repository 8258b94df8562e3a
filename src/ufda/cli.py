"""Command-line entry point: gen, pretrain, adapt, eval, report.

Human-readable output goes to stdout; machine-readable blocks go to files in
the --out directory, alongside the fully resolved config of the run. Exit
codes: 0 success, 1 runtime failure (missing/invalid files, dimension
mismatch), 2 bad configuration (unknown keys, out-of-range values, regime
violations, bad flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .adaptation import VARIANTS, adapt, pretrain_source
from .config import PATH_KEYS, ConfigError, RunConfig, load_run_config
from .datagen import FeatureFileError, ScenarioError, generate, load_featureset, save_featureset
from .evaluation import evaluate, novel_class_count
from .model import CheckpointError, load_model, save_model
from .numerics import Rng


class CliError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# A file that exists but cannot be read or parsed; the error names its path.
_UNREADABLE = (FeatureFileError, CheckpointError, OSError, UnicodeDecodeError)


def _reason(exc: Exception) -> str:
    """exc's message without the path, which the caller names once."""
    return getattr(exc, "strerror", None) or str(exc)


def _load(loader, path_text: str, what: str):
    if not path_text:
        raise CliError(f"missing {what} path", code=2)
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"{what} not found: {path}")
    try:
        return loader(path)
    except _UNREADABLE as exc:
        raise CliError(f"{path}: {_reason(exc)}") from None


def _make_out(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{out}: {_reason(exc)}") from None


def _write_lines(lines: list[str], path: Path) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _save(path: Path, write, *args) -> None:
    """write(*args, path), with a failed write reported as one error line naming path."""
    try:
        write(*args, path)
    except OSError as exc:
        raise CliError(f"{path}: {_reason(exc)}") from None


def _load_model_and_target(cfg):
    model = _load(load_model, cfg.model_path, "model checkpoint")
    target = _load(load_featureset, cfg.target_path, "target file")
    if target.features.shape[1] != model.dims.d_in:
        raise CliError(
            f"target dimension d={target.features.shape[1]} does not match model d_in={model.dims.d_in}"
        )
    return model, target


def cmd_gen(cfg, out: Path) -> None:
    source, target = generate(cfg.scenario())
    _make_out(out)
    _save(out / "source.ufd", save_featureset, source)
    _save(out / "target.ufd", save_featureset, target)
    print(f"wrote {out / 'source.ufd'} ({len(source)} samples) and {out / 'target.ufd'} ({len(target)} samples)")


def cmd_pretrain(cfg, out: Path) -> None:
    source = _load(load_featureset, cfg.source_path, "source file")
    if source.role != "source":
        raise CliError(f"expected a source-role feature file, got role={source.role!r}")
    if len(source) == 0:
        raise CliError(f"{cfg.source_path}: source set is empty")
    n_classes = int(source.labels.max()) + 1
    dims = cfg.model_dims(d_in=source.features.shape[1], n_classes=n_classes)
    log_lines: list[str] = []
    model = pretrain_source(source, dims, cfg.adapt_config(), log_fn=log_lines.append)
    _make_out(out)
    _save(out / "model.ufdmodel", save_model, model)
    _save(out / "train.log", _write_lines, log_lines)
    print(f"wrote {out / 'model.ufdmodel'} (classes={n_classes})")


def cmd_adapt(cfg, out: Path) -> None:
    model, target = _load_model_and_target(cfg)
    adapted, trace = adapt(model, target, cfg.adapt_config())
    _make_out(out)
    _save(out / "adapted.ufdmodel", save_model, adapted)
    _save(out / "trace.tsv", trace.save)
    print(f"wrote {out / 'adapted.ufdmodel'} after {len(trace.epochs)} epochs (variant={cfg.variant})")


def cmd_eval(cfg, out: Path) -> None:
    model, target = _load_model_and_target(cfg)
    n_private = novel_class_count(target.labels, model.dims.n_classes)
    report = evaluate(model, target.features, target.labels, cfg.omega, n_private=n_private, rng=Rng(cfg.seed))
    _make_out(out)
    _save(out / "report.tsv", _write_lines, report.machine_lines())
    print(report.human_table())


def cmd_report(args) -> int:
    if not args.reports:
        raise CliError("report needs at least one eval output file", code=2)
    metrics: dict[str, list[float]] = {}
    order: list[str] = []
    for path_text in args.reports:
        path = Path(path_text)
        lines = _load(lambda p: p.read_text(encoding="utf-8"), path_text, "report file").splitlines()
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
    if args.out_dir:  # before the table, so a failing write prints only the error
        out = Path(args.out_dir)
        _make_out(out)
        _save(out / "summary.tsv", _write_lines, machine)
    print("\n".join(human))
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
    p_pre.add_argument("source_path", nargs="?", metavar="source", help="source .ufd file")
    common(p_pre)
    p_pre.set_defaults(fn=cmd_pretrain)

    p_adapt = sub.add_parser("adapt", help="adapt a pretrained model to a target set")
    p_adapt.add_argument("model_path", nargs="?", metavar="model", help="pretrained .ufdmodel checkpoint")
    p_adapt.add_argument("target_path", nargs="?", metavar="target", help="target .ufd file")
    common(p_adapt)
    p_adapt.set_defaults(fn=cmd_adapt)

    p_eval = sub.add_parser("eval", help="evaluate a model on a labeled target set")
    p_eval.add_argument("model_path", nargs="?", metavar="model", help=".ufdmodel checkpoint")
    p_eval.add_argument("target_path", nargs="?", metavar="target", help="target .ufd file")
    common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_rep = sub.add_parser("report", help="aggregate eval outputs into mean/std across seeds")
    p_rep.add_argument("reports", nargs="*", help="report.tsv files from eval runs")
    p_rep.add_argument("--out", dest="out_dir", help="output directory for summary.tsv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        # Flags, positional inputs included, are the namespace's RunConfig keys.
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = load_run_config(args.config, overrides, preset=getattr(args, "preset", None))
        if not cfg.out_dir:
            raise CliError("an output directory is required (--out)", code=2)
        out = Path(cfg.out_dir)  # as given, so stdout names it as typed
        # Absolute paths let config.resolved re-run the command from any directory.
        cfg = replace(cfg, **{k: os.path.abspath(getattr(cfg, k)) for k in PATH_KEYS if getattr(cfg, k)})
        # Each command creates its output directory only after its work succeeds.
        args.fn(cfg, out)
        _save(out / "config.resolved", cfg.save)
        return 0
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
