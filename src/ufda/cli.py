"""Command-line entry point: gen, pretrain, adapt, eval, report.

Human-readable output goes to stdout; machine-readable blocks go to files in
the --out directory, alongside the fully resolved config of the run. This
module is the only code, scripts/ included, that reads or writes a file. It
reads every input, the config included: a file that cannot be read or parsed
is one `error: <path>: <reason>` line, a parse error's reason starting with
`line N:`. Each command returns its files as lines, and main writes them all
together once the command has succeeded, so a failed command leaves --out as
it was. Every failure is a ValueError or a MemoryError, and `fail` turns it
into one `error:` line and the exit code its type decides: 2 for a
ConfigError (unknown keys, out-of-range values, regime violations, bad flags,
a missing input path or --out, an unreadable or truncated config file), 1 for
any other (unreadable, truncated or malformed files, dimension mismatch,
divergence, a report metric whose mean or std overflows, a failed write, a
closed stdout, an allocation the system refuses). 0 is success.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .adaptation import VARIANTS, adapt, pretrain_source
from .config import PATH_KEYS, ConfigError, RunConfig, load_run_config, parse_config
from .datagen import featureset_lines, generate, parse_featureset
from .evaluation import evaluate, novel_class_count
from .model import checkpoint_lines, parse_checkpoint
from .numerics import Rng


def _reason(exc: Exception) -> str:
    """exc's message without the path, which the caller names once."""
    return getattr(exc, "strerror", None) or str(exc)


def _read(parse, path_text: str, what: str):
    """parse(lines) of the file at path_text. A file that cannot be read or
    parsed, or that does not end in a newline as every file ufda writes does,
    is one error naming its path."""
    if not path_text:
        raise ConfigError(f"missing {what} path")
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
        if text and not text.endswith("\n"):
            raise ValueError("no newline at end of file; it may be truncated")
        return parse(text.splitlines())
    except (OSError, ValueError) as exc:  # ValueError: a bad encoding, a cut file or a parse error
        raise ValueError(f"{path}: {_reason(exc)}") from None


def read_config(path_text: str | None) -> dict:
    """The keys the config file at path_text sets, {} without one. A config
    that cannot be read or parsed is a ConfigError naming its path."""
    try:
        return _read(parse_config, path_text, "config file") if path_text else {}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _aside(path: Path, tag: str) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.{tag}")


def write_files(out: Path, files: dict[str, list[str]]) -> None:
    """Write each named file's lines into out, all of them or none: each file is
    written under a temporary name, and renamed into place only once every
    write has succeeded. On a failure out is left as it was, and the error
    names the file."""
    created = not out.exists()
    paths = [out / name for name in files]
    path, staged, kept, placed = out, [], [], []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, lines in zip(paths, files.values()):
            staged.append(path)
            _aside(path, "new").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for path in paths:
            if path.is_file():  # what it replaces, kept until every rename has succeeded
                os.replace(path, _aside(path, "old"))
                kept.append(path)
            os.replace(_aside(path, "new"), path)
            placed.append(path)
    except OSError as exc:
        for done in placed:
            done.unlink()
        for done in kept:
            os.replace(_aside(done, "old"), done)
        for done in staged:
            _aside(done, "new").unlink(missing_ok=True)
        if created and out.is_dir():
            out.rmdir()
        raise ValueError(f"{path}: {_reason(exc)}") from None
    for done in kept:
        _aside(done, "old").unlink()


def _read_model_and_target(cfg):
    model = _read(parse_checkpoint, cfg.model_path, "model checkpoint")
    target = _read(parse_featureset, cfg.target_path, "target file")
    if target.features.shape[1] != model.dims.d_in:
        raise ValueError(
            f"target dimension d={target.features.shape[1]} does not match model d_in={model.dims.d_in}"
        )
    return model, target


def cmd_gen(cfg, out: Path):
    source, target = generate(cfg.scenario())
    files = {"source.ufd": featureset_lines(source), "target.ufd": featureset_lines(target)}
    return files, (
        f"wrote {out / 'source.ufd'} ({len(source)} samples) and {out / 'target.ufd'} ({len(target)} samples)"
    )


def cmd_pretrain(cfg, out: Path):
    source = _read(parse_featureset, cfg.source_path, "source file")
    if source.role != "source":
        raise ValueError(f"expected a source-role feature file, got role={source.role!r}")
    if len(source) == 0:
        raise ValueError(f"{cfg.source_path}: source set is empty")
    n_classes = int(source.labels.max()) + 1
    dims = cfg.model_dims(d_in=source.features.shape[1], n_classes=n_classes)
    log_lines: list[str] = []
    model = pretrain_source(source, dims, cfg.adapt_config(), log_fn=log_lines.append)
    files = {"model.ufdmodel": checkpoint_lines(model), "train.log": log_lines}
    return files, f"wrote {out / 'model.ufdmodel'} (classes={n_classes})"


def cmd_adapt(cfg, out: Path):
    model, target = _read_model_and_target(cfg)
    adapted, trace = adapt(model, target, cfg.adapt_config())
    files = {"adapted.ufdmodel": checkpoint_lines(adapted), "trace.tsv": trace.lines(),
             "ct_sweep.tsv": trace.ct_sweep.lines()}
    return files, f"wrote {out / 'adapted.ufdmodel'} after {len(trace.epochs)} epochs (variant={cfg.variant})"


def cmd_eval(cfg, out: Path):
    model, target = _read_model_and_target(cfg)
    n_private = novel_class_count(target.labels, model.dims.n_classes)
    report = evaluate(model, target.features, target.labels, cfg.omega, n_private=n_private, rng=Rng(cfg.seed))
    return {"report.tsv": report.machine_lines()}, report.human_table()


def _parse_report(lines: list[str]) -> list[tuple[str, float]]:
    """The (metric, value) pairs of a report.tsv's `metric<TAB>value` lines:
    each metric once, each value a number or nan (eval's value for a metric
    that does not apply), never infinite."""
    pairs, first_line = [], {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'metric<TAB>value'")
        name, value = parts
        if name in first_line:
            raise ValueError(f"line {lineno}: metric {name} repeated from line {first_line[name]}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value {value!r} for {name}") from None
        if np.isinf(number):
            raise ValueError(f"line {lineno}: infinite value {value!r} for {name}")
        pairs.append((name, number))
        first_line[name] = lineno
    if not pairs:
        raise ValueError("file has no metrics")
    return pairs


def mean_std(values: list[float]) -> tuple[float, float, int]:
    """The mean, the sample standard deviation (0.0 for one value) and the
    count of finite or nan values, as `ufda report` and
    scripts/run_benchmark.py print them; a nan makes the mean nan."""
    vals = np.array(values)
    std = float(vals.std(ddof=1)) if vals.shape[0] > 1 else 0.0
    return float(vals.mean()), std, vals.shape[0]


def cmd_report(reports: list[str]):
    if not reports:
        raise ConfigError("report needs at least one eval output file")
    metrics: dict[str, list[float]] = {}  # in first-seen order
    for path_text in reports:
        for name, number in _read(_parse_report, path_text, "report file"):
            metrics.setdefault(name, []).append(number)

    width = max(len(name) for name in metrics)
    human = ["metric".ljust(width) + "  mean      std       n"]
    machine = ["metric\tmean\tstd\tn"]
    for name, values in metrics.items():
        try:
            with np.errstate(over="raise", invalid="raise"):
                mean, std, count = mean_std(values)
        except FloatingPointError:  # finite values whose mean or std is past the float range
            raise ValueError(f"metric {name}: the mean or std of its values overflows") from None
        human.append(f"{name.ljust(width)}  {mean:<8.4f}  {std:<8.4f}  {count}")
        machine.append(f"{name}\t{mean!r}\t{std!r}\t{count}")
    return {"summary.tsv": machine}, "\n".join(human)


def fail(exc: ValueError | MemoryError, prefix: str = "") -> int:
    """Print exc as one `error: <prefix><reason>` line on stderr and return its
    exit code: 2 for a ConfigError, 1 for any other. A refused allocation
    whose MemoryError carries no text reads `out of memory`."""
    reason = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
    print(f"error: {prefix}{reason}", file=sys.stderr)
    return 2 if isinstance(exc, ConfigError) else 1


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
            files, message = cmd_report(args.reports)
            out_dir = args.out_dir
        else:
            # Flags, positional inputs included, are the namespace's RunConfig keys.
            overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
            cfg = load_run_config(read_config(args.config), overrides, preset=getattr(args, "preset", None))
            out_dir = cfg.out_dir  # as given, so stdout names it as typed
            if not out_dir:
                raise ConfigError("an output directory is required (--out)")
            # Absolute paths let config.resolved re-run the command from any directory.
            cfg = replace(cfg, **{k: os.path.abspath(getattr(cfg, k)) for k in PATH_KEYS if getattr(cfg, k)})
            files, message = args.fn(cfg, Path(out_dir))
            files["config.resolved"] = cfg.resolved_lines()
        if out_dir:
            write_files(Path(out_dir), files)
        try:
            print(message, flush=True)
        except BrokenPipeError as exc:  # the reader closed stdout; the files are written
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit passes
            raise ValueError(f"stdout: {_reason(exc)}") from None
        return 0
    except (ValueError, MemoryError) as exc:
        return fail(exc)


if __name__ == "__main__":
    sys.exit(main())
