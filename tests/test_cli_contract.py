"""The CLI contract over mutated inputs, run in-process through `cli.main`.

Every command reads small valid inputs from one tiny run, with one of them
mutated: a line dropped, duplicated or cut short, or one token replaced by
a syntactic one. Whatever the mutant, the command exits 0, 1 or 2; a failure
prints exactly one `error:` line, no traceback and nothing on stdout, and
leaves --out as it was.

The mutants change syntax, not magnitude: one whose parsed sizes (a config's
int keys but seed, a feature file's n, d and labels, a checkpoint's dims)
exceed the valid input's is skipped, so that no mutant asks for a larger
allocation or a longer run than the valid inputs do.
"""

import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ufda.cli import main
from ufda.config import RunConfig, load_run_config, parse_config
from ufda.datagen import parse_featureset
from ufda.model import parse_checkpoint

MUTANTS = 50
TINY_CONFIG = "source_per_class = 6\ntarget_per_class = 6\nepochs = 1\nbatch_size = 24\nd_hidden = 8\nd_feat = 4\n"
TOKENS = ["", "x", "-", ".", "=", "#", "\t", "nan", "inf", "-inf", "-1", "0", "1", "0.5", "1e-3",
          "role=target", "n=", "UFD", "OSDA", "glc", "h_score"]
INT_KEYS = [f.name for f in fields(RunConfig) if f.type == "int" and f.name != "seed"]


def snapshot(directory):
    return sorted((str(path.relative_to(directory)), path.read_bytes() if path.is_file() else None)
                  for path in directory.rglob("*"))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Each command's argv on valid inputs, and the paths it reads."""
    base = tmp_path_factory.mktemp("valid")
    (base / "tiny.cfg").write_text(TINY_CONFIG)
    data, pre, ev = base / "data", base / "pre", base / "ev"
    cfg = ["--config", str(base / "tiny.cfg")]
    source, target, model = data / "source.ufd", data / "target.ufd", pre / "model.ufdmodel"
    assert main(["gen", "--preset", "opda-toy", *cfg, "--out", str(data)]) == 0
    assert main(["pretrain", str(source), *cfg, "--out", str(pre)]) == 0
    assert main(["adapt", str(model), str(target), *cfg, "--out", str(base / "ad")]) == 0
    assert main(["eval", str(model), str(target), *cfg, "--out", str(ev)]) == 0
    # The commands take their settings from their own config.resolved, which
    # sets every key, so a mutant of it can reach any of them.
    return {
        "gen": ["gen", "--config", str(data / "config.resolved")],
        "pretrain": ["pretrain", str(source), "--config", str(pre / "config.resolved")],
        "adapt": ["adapt", str(model), str(target), "--config", str(base / "ad" / "config.resolved")],
        "eval": ["eval", str(model), str(target), "--config", str(ev / "config.resolved")],
        "report": ["report", str(ev / "report.tsv")],
    }


def mutate(lines, rng):
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(["drop", "duplicate", "cut", "replace"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "cut":
        lines[i] = lines[i][: rng.randrange(max(len(lines[i]), 1))]
    else:
        spans = [m.span() for m in re.finditer(r"\S+", lines[i])] or [(0, 0)]
        start, end = rng.choice(spans)
        lines[i] = lines[i][:start] + rng.choice(TOKENS) + lines[i][end:]
    return lines


def _sizes(lines, path):
    """The sizes a file of path's kind declares, as a tuple to compare
    element-wise; None if it does not parse, which the command rejects
    before it allocates anything."""
    try:
        if path.suffix == ".ufd":
            fs = parse_featureset(lines)
            return (len(fs), fs.features.shape[1], int(fs.labels.max(initial=0)))
        if path.suffix == ".ufdmodel":
            d = parse_checkpoint(lines).dims
            return (d.d_in, d.d_hidden, d.d_feat, d.n_classes)
        if path.name == "config.resolved":
            cfg = load_run_config(parse_config(lines), {}, preset=None)
            return tuple(getattr(cfg, key) for key in INT_KEYS)
    except ValueError:
        return None
    return ()  # a report sizes nothing


# (command, the position in its argv of the input to mutate)
@pytest.mark.parametrize("command, position", [
    ("gen", 2), ("pretrain", 1), ("pretrain", 3), ("adapt", 1), ("adapt", 2), ("adapt", 4),
    ("eval", 1), ("eval", 2), ("eval", 4), ("report", 1),
])
def test_a_mutated_input_fails_cleanly_or_runs(valid, tmp_path, capsys, command, position):
    argv = valid[command]
    path = Path(argv[position])
    lines = path.read_text(encoding="utf-8").splitlines()
    limit = _sizes(lines, path)
    rng = random.Random(f"{command} {position}")
    outcomes, ran = set(), 0
    for k in range(MUTANTS):
        mutant = mutate(lines, rng)
        sizes = _sizes(mutant, path)
        if sizes is not None and any(a > b for a, b in zip(sizes, limit)):
            continue
        bad = tmp_path / f"m{k}" / path.name
        bad.parent.mkdir()
        bad.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        out = tmp_path / f"o{k}"
        out.mkdir()
        (out / "keep.txt").write_text("keep\n")
        before = snapshot(out)
        code = main([*argv[:position], str(bad), *argv[position + 1:], "--out", str(out)])
        stdout, err = capsys.readouterr()
        ran += 1
        outcomes.add(code)
        assert code in (0, 1, 2), (mutant, code)
        if code:
            assert (stdout, err.count("\n")) == ("", 1), (mutant, stdout, err)
            assert err.startswith("error: ") and "Traceback" not in err, (mutant, err)
            assert snapshot(out) == before, mutant
        else:
            assert err == "", (mutant, err)
    assert ran >= MUTANTS // 2, f"only {ran} of {MUTANTS} mutants ran"
    assert outcomes - {0}, "no mutant was rejected"
