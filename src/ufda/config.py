"""Line-oriented `key = value` run configuration.

One flat key space covers the scenario, model dims, training knobs and the
files a command reads and writes. `parse_config` turns a config file's lines
into keys, and `load_run_config` layers a preset, those keys and CLI flags
into one `RunConfig`. Every command writes it next to its outputs, so
`--config <out>/config.resolved` re-runs the command. This module does no
I/O: `cli.read_config` reads the file.
"""

from __future__ import annotations

import math
from dataclasses import field, fields, make_dataclass

from .adaptation import AdaptConfig
from .datagen import PRESETS, ScenarioSpec
from .model import ModelDims


class ConfigError(ValueError):
    pass


# Scenario keys are the ScenarioSpec fields (its seed is the shared training
# seed), training keys the AdaptConfig fields.
_SCENARIO_FIELDS = [f for f in fields(ScenarioSpec) if f.name != "seed"]
SCENARIO_KEYS = tuple(f.name for f in _SCENARIO_FIELDS)
_ADAPT_KEYS = tuple(f.name for f in fields(AdaptConfig))
PATH_KEYS = ("source_path", "target_path", "model_path", "out_dir")


class _RunConfigMethods:
    def scenario(self) -> ScenarioSpec:
        return ScenarioSpec(seed=self.seed, **{k: getattr(self, k) for k in SCENARIO_KEYS})

    def adapt_config(self) -> AdaptConfig:
        return AdaptConfig(**{k: getattr(self, k) for k in _ADAPT_KEYS})

    def model_dims(self, d_in: int, n_classes: int) -> ModelDims:
        return ModelDims(d_in=d_in, d_hidden=self.d_hidden, d_feat=self.d_feat, n_classes=n_classes)

    def resolved_lines(self) -> list[str]:
        return [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]


_DEFAULT_SCENARIO = PRESETS["opda-toy"]

# Flat keys in resolved-file order: scenario (opda-toy preset defaults), model,
# training (AdaptConfig defaults), then file paths (the CLI's positional inputs
# and --out).
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=getattr(_DEFAULT_SCENARIO, f.name))) for f in _SCENARIO_FIELDS]
    + [("d_hidden", "int", field(default=64)), ("d_feat", "int", field(default=32))]
    + [(f.name, f.type, field(default=f.default)) for f in fields(AdaptConfig)]
    + [(k, "str", field(default="")) for k in PATH_KEYS],
    bases=(_RunConfigMethods,),
    namespace={"__module__": __name__},
)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}
# Every int key but seed sizes or indexes int64 arrays.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def parse_config(lines: list[str]) -> dict:
    """Parse `key = value` lines (# comments and blank lines allowed) into a
    typed dict; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = _PARSERS[_FIELD_TYPES[key]]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return values


def load_run_config(file_keys: dict, overrides: dict, preset: str | None) -> RunConfig:
    """Defaults <- the preset's scenario keys <- file_keys (parse_config's
    dict) <- overrides. None-valued overrides are ignored so unset CLI flags
    fall through."""
    values: dict = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        values = {key: getattr(PRESETS[preset], key) for key in SCENARIO_KEYS}
    values.update(file_keys)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    cfg = RunConfig(**values)
    # Validating the scenario, model and training keys here makes a bad value a
    # configuration error whichever command reads the config. NaN passes every
    # "reject if <= 0" range check, so finiteness is checked first.
    for key, kind in _FIELD_TYPES.items():
        if kind == "float" and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"bad config value: {key} must be finite, got {getattr(cfg, key)!r}")
        if kind == "int" and key != "seed" and not _INT64_MIN <= getattr(cfg, key) <= _INT64_MAX:
            raise ConfigError(f"bad config value: {key} must fit in int64, got {getattr(cfg, key)!r}")
    try:
        cfg.scenario().validate()
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from None
    try:
        cfg.model_dims(d_in=1, n_classes=1)
        cfg.adapt_config()
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return cfg
