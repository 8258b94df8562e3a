"""Line-oriented `key = value` run configuration.

One flat key space covers the scenario, model dims, training knobs and the
files a command reads and writes. `load_run_config` layers a preset, a config
file and CLI flags into one `RunConfig`, and every command writes it next to
its outputs, so `--config <out>/config.resolved` re-runs the command.
"""

from __future__ import annotations

import math
from dataclasses import field, fields, make_dataclass

from .adaptation import AdaptConfig
from .datagen import PRESETS, ScenarioError, ScenarioSpec
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
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            out.append(f"{f.name} = {value!r}" if isinstance(value, float) else f"{f.name} = {value}")
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.resolved_lines()) + "\n")


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


def parse_config_text(text: str, path: str) -> dict:
    """Parse `key = value` lines (# comments and blank lines allowed) into a
    typed dict; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        parser = _PARSERS[_FIELD_TYPES[key]]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def load_run_config(path: str | None, overrides: dict, preset: str | None) -> RunConfig:
    """Defaults <- the preset's scenario keys <- config file <- overrides.

    None-valued overrides are ignored so unset CLI flags fall through."""
    values: dict = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        values = {key: getattr(PRESETS[preset], key) for key in SCENARIO_KEYS}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(parse_config_text(text, path))
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
    try:
        cfg.scenario().validate()
    except ScenarioError as exc:
        raise ConfigError(f"bad scenario: {exc}") from None
    try:
        cfg.model_dims(d_in=1, n_classes=1)
        cfg.adapt_config()
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return cfg
