"""The four line codecs: each parses what its writer wrote back bit for bit, and
a mutated line (dropped, duplicated, cut short, or one token replaced) either
still parses or raises ValueError, whose message names the line at fault as
`line N:` unless the fault is the whole file's. Hypothesis draws the inputs
and mutants; besides, every single-line mutant of one fixed input per codec
is tried, each token replaced by each of a set of edge values.

- feature files: `parse_featureset(featureset_lines(x))`;
- checkpoints: `parse_checkpoint(checkpoint_lines(m))`;
- configs: `parse_config(cfg.resolved_lines())` through `load_run_config`,
  which raises ConfigError only;
- reports: `cli._parse_report(EvalReport.machine_lines())`.
"""

import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufda.adaptation import VARIANTS
from ufda.cli import _parse_report
from ufda.config import ConfigError, RunConfig, load_run_config, parse_config
from ufda.datagen import PRESETS, FeatureSet, featureset_lines, parse_featureset
from ufda.evaluation import EvalReport
from ufda.model import TENSORS, AdaptModel, checkpoint_lines, parse_checkpoint

INT64_MAX = (1 << 63) - 1
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.integers(1, INT64_MAX)
SETTINGS = settings(deadline=None, max_examples=60)


def bits(array):
    return np.asarray(array, dtype=np.float64).tobytes()


@st.composite
def feature_sets(draw):
    n, d = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    features = draw(st.lists(FINITE, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, INT64_MAX), min_size=n, max_size=n))
    role = draw(st.sampled_from(["source", "target"]))
    return FeatureSet(np.reshape(np.array(features, dtype=np.float64), (n, d)), np.array(labels, dtype=np.int64), role)


@st.composite
def models(draw):
    d_in, d_hidden, d_feat, n_classes = (draw(st.integers(1, 3)) for _ in range(4))
    shapes = ((d_in, d_hidden), (d_hidden,), (d_hidden, d_feat), (d_feat,), (d_feat, n_classes), (n_classes,))
    tensors = [np.reshape(np.array(draw(st.lists(FINITE, min_size=int(np.prod(s)), max_size=int(np.prod(s)))),
                                   dtype=np.float64), s) for s in shapes]
    return AdaptModel(*tensors, classifier_frozen=True)


def in_unit(low_open, high_open):
    """Floats in [0, 1] whose ends are excluded as asked."""
    return st.floats(0.0, 1.0, exclude_min=low_open, exclude_max=high_open)


# A path has no `#` (a comment) and no edge whitespace, which a config line strips.
PATHS = st.from_regex(r"[A-Za-z0-9/._-]*", fullmatch=True)


@st.composite
def run_configs(draw):
    scenario = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    values = {
        "regime": scenario.regime, "n_shared": scenario.n_shared,
        "n_source_private": scenario.n_source_private, "n_target_private": scenario.n_target_private,
        "d_in": draw(st.integers(scenario.n_classes, INT64_MAX)),
        "source_per_class": draw(POSITIVE), "target_per_class": draw(POSITIVE),
        "separation": draw(st.floats(0.0, allow_infinity=False)), "noise_sigma": draw(st.floats(0.0, allow_infinity=False)),
        "shift_rotation": draw(FINITE), "shift_translation": draw(FINITE),
        "d_hidden": draw(POSITIVE), "d_feat": draw(POSITIVE),
        "eta": draw(st.floats(0.0, exclude_min=True, allow_infinity=False)), "rho": draw(in_unit(True, False)),
        "k_neighbors": draw(POSITIVE), "n_pairs": draw(POSITIVE), "batch_size": draw(POSITIVE),
        "epochs": draw(st.integers(0, INT64_MAX)), "lr": draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        "momentum": draw(in_unit(False, True)), "seed": draw(st.integers()), "variant": draw(st.sampled_from(VARIANTS)),
        "omega": draw(in_unit(True, False)), "alpha": draw(in_unit(False, True)),
        "con_weight": draw(st.floats(0.0, allow_infinity=False)),
        **{key: draw(PATHS) for key in ("source_path", "target_path", "model_path", "out_dir")},
    }
    return RunConfig(**values)


@st.composite
def reports(draw):
    # eval writes `nan`, which parses to the one NaN float("nan").
    values = {f.name: draw(st.integers(0, 10**6) if f.type == "int" else FINITE | st.just(float("nan")))
              for f in fields(EvalReport)}
    return EvalReport(**values)


def load_config(lines):
    return load_run_config(parse_config(lines), {}, preset=None)


class TestRoundTrips:
    @SETTINGS
    @given(feature_sets())
    def test_feature_sets(self, fs):
        back = parse_featureset(featureset_lines(fs))
        assert (back.role, back.labels.dtype, back.labels.tolist()) == (fs.role, np.int64, fs.labels.tolist())
        assert back.features.shape == fs.features.shape
        assert bits(back.features) == bits(fs.features)

    @SETTINGS
    @given(models())
    def test_checkpoints(self, model):
        back = parse_checkpoint(checkpoint_lines(model))
        assert back.dims == model.dims and back.classifier_frozen
        for name in TENSORS:
            assert getattr(back, name).shape == getattr(model, name).shape, name
            assert bits(getattr(back, name)) == bits(getattr(model, name)), name

    @SETTINGS
    @given(run_configs())
    def test_configs(self, cfg):
        back = load_config(cfg.resolved_lines())
        for f in fields(RunConfig):
            got, want = getattr(back, f.name), getattr(cfg, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, float):
                assert struct.pack("<d", got) == struct.pack("<d", want), f.name
            else:
                assert got == want, f.name

    @SETTINGS
    @given(reports())
    def test_reports(self, report):
        back = _parse_report(report.machine_lines())
        assert [name for name, _ in back] == [f.name for f in fields(EvalReport)]
        for (name, value), f in zip(back, fields(EvalReport)):
            assert struct.pack("<d", value) == struct.pack("<d", float(getattr(report, f.name))), name


# Numbers at and past the edges the parsers check, and the formats' own
# punctuation: every mutant of the fixed inputs below tries each of them.
EDGE_TOKENS = ["", "0", "-1", "1", "nan", "inf", "-inf", "1e309", "0.5", "9223372036854775808",
               "-9223372036854775809", "99999999999999999999", "=", "#", "n=", "role=target", "UFD", "\t", "x"]
TOKENS = st.sampled_from(EDGE_TOKENS) | st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
                                                max_size=6)


def _token_spans(line):
    return [m.span() for m in re.finditer(r"\S+", line)] or [(0, 0)]


def mutate(data, lines):
    """lines with one line dropped, duplicated or cut short, or one of its
    whitespace-separated tokens replaced."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["drop", "duplicate", "cut", "replace"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "cut":
        lines[i] = lines[i][: data.draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        start, end = data.draw(st.sampled_from(_token_spans(lines[i])))
        lines[i] = lines[i][:start] + data.draw(TOKENS) + lines[i][end:]
    return lines


def every_mutant(lines):
    """Every drop, duplicate and cut of one line of lines, and every one of
    its tokens replaced by each of EDGE_TOKENS."""
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        for cut in range(len(line)):
            yield lines[:i] + [line[:cut]] + lines[i + 1:]
        for start, end in _token_spans(line):
            for token in EDGE_TOKENS:
                yield lines[:i] + [line[:start] + token + line[end:]] + lines[i + 1:]


def check_rejection(parse, lines, whole_file_reasons, error=ValueError):
    """parse(lines) returns, or raises `error` whose message is one of
    whole_file_reasons or starts with `line N:` for a line N of the file or
    the one past its end."""
    try:
        parse(lines)
    except error as exc:
        message = str(exc)
        at = re.match(r"line (\d+): ", message)
        assert at or message.startswith(whole_file_reasons), message
        if at:
            assert 1 <= int(at.group(1)) <= len(lines) + 1, message


class TestMutatedLines:
    @SETTINGS
    @given(feature_sets(), st.data())
    def test_feature_sets(self, fs, data):
        check_rejection(parse_featureset, mutate(data, featureset_lines(fs)), ("empty feature file",))

    @SETTINGS
    @given(models(), st.data())
    def test_checkpoints(self, model, data):
        check_rejection(parse_checkpoint, mutate(data, checkpoint_lines(model)), ("empty checkpoint file",))

    @SETTINGS
    @given(run_configs(), st.data())
    def test_configs(self, cfg, data):
        # load_run_config's own checks judge the keys together, not a line.
        check_rejection(load_config, mutate(data, cfg.resolved_lines()), ("bad config value: ", "bad scenario: "),
                        error=ConfigError)

    @SETTINGS
    @given(reports(), st.data())
    def test_reports(self, report, data):
        check_rejection(_parse_report, mutate(data, report.machine_lines()), ("file has no metrics",))


# One small valid input per codec, for every_mutant.
FIXED = {
    "feature set": (parse_featureset, featureset_lines(FeatureSet([[0.5, -1.0], [2.0, 3e-7]], [0, 1], "source")),
                    ("empty feature file",), ValueError),
    "checkpoint": (parse_checkpoint, checkpoint_lines(AdaptModel(*(np.full(s, 0.25) for s in
                                                                   ((2, 1), (1,), (1, 1), (1,), (1, 2), (2,))),
                                                                 classifier_frozen=True)),
                   ("empty checkpoint file",), ValueError),
    "config": (load_config, RunConfig().resolved_lines(), ("bad config value: ", "bad scenario: "), ConfigError),
    "report": (_parse_report, ["h_score\t0.5", "ncd_acc\tnan", "n_known\t3"], ("file has no metrics",), ValueError),
}


@pytest.mark.parametrize("codec", sorted(FIXED))
def test_every_mutant_of_a_fixed_input(codec):
    parse, lines, whole_file_reasons, error = FIXED[codec]
    for mutant in every_mutant(lines):
        check_rejection(parse, mutant, whole_file_reasons, error)
