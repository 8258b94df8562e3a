import re

import numpy as np
import pytest

from ufda.cli import read_config
from ufda.config import SCENARIO_KEYS, ConfigError, RunConfig, load_run_config, parse_config
from ufda.datagen import preset


class TestParse:
    def test_basic_keys(self):
        values = parse_config(["eta = 1.5", "seed = 9", "variant = glc"])
        assert values == {"eta": 1.5, "seed": 9, "variant": "glc"}

    def test_comments_and_blanks(self):
        values = parse_config(["# a comment", "", "rho = 0.5  # inline"])
        assert values == {"rho": 0.5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(["bogus = 1"])

    def test_bad_value_rejected_with_location(self):
        with pytest.raises(ConfigError, match="^line 2: bad value for epochs"):
            parse_config(["eta = 0.5", "epochs = soon"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(["just some text"])


class TestLoad:
    def test_defaults_when_no_file(self):
        cfg = load_run_config({}, {}, None)
        assert cfg.rho == 0.75
        assert cfg.omega == 0.55
        assert cfg.k_neighbors == 4
        assert cfg.momentum == 0.9
        assert cfg.alpha == 0.1

    def test_file_then_cli_precedence(self):
        cfg = load_run_config({"eta": 1.5, "seed": 3}, {"seed": 9, "omega": None}, None)
        assert cfg.eta == 1.5
        assert cfg.seed == 9       # CLI override wins
        assert cfg.omega == 0.55   # None override ignored

    def test_scenario_defaults_are_opda_toy(self):
        cfg = RunConfig()
        spec = preset("opda-toy")
        assert all(getattr(cfg, key) == getattr(spec, key) for key in SCENARIO_KEYS)

    def test_bad_training_value_rejected_with_key(self):
        with pytest.raises(ConfigError, match="eta"):
            load_run_config({}, {"eta": -1.0}, None)

    @pytest.mark.parametrize("key", [k for k, f in RunConfig.__dataclass_fields__.items() if f.type == "int" and k != "seed"])
    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1])
    def test_int_key_past_int64_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^bad config value: {key} must fit in int64, got {value}$"):
            load_run_config({key: value}, {}, None)

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ConfigError, match="OSDA"):
            load_run_config({}, {"regime": "OSDA", "n_source_private": 2}, None)

    def test_missing_file_rejected_naming_its_path(self, tmp_path):
        path = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: No such file or directory$"):
            read_config(str(path))

    def test_read_config_locates_a_parse_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta = 0.5\nepochs = soon\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line 2: bad value for epochs"):
            read_config(str(path))

    def test_resolved_round_trips(self, tmp_path):
        cfg = load_run_config({}, {"eta": 2.5, "variant": "glc", "n_shared": 5}, None)
        path = tmp_path / "resolved.cfg"
        path.write_text("\n".join(cfg.resolved_lines()) + "\n", encoding="utf-8")
        reparsed = load_run_config(read_config(str(path)), {}, None)
        assert reparsed == cfg

    def test_a_numpy_float_writes_a_line_that_parses_back(self):
        lines = RunConfig(eta=np.float64(0.5)).resolved_lines()
        assert "eta = 0.5" in lines
        assert parse_config(lines)["eta"] == 0.5

    def test_builders(self):
        cfg = load_run_config({}, {"regime": "CLDA", "n_source_private": 0, "n_target_private": 0}, None)
        spec = cfg.scenario()
        assert spec.regime == "CLDA"
        ac = cfg.adapt_config()
        assert ac.rho == cfg.rho
        dims = cfg.model_dims(d_in=12, n_classes=4)
        assert (dims.d_in, dims.d_hidden, dims.d_feat, dims.n_classes) == (12, 64, 32, 4)


class TestPreset:
    def test_preset_carries_its_scenario_keys(self):
        cfg = load_run_config({}, {}, preset="pda-toy")
        spec = preset("pda-toy")
        assert all(getattr(cfg, key) == getattr(spec, key) for key in SCENARIO_KEYS)
        assert cfg.regime == "PDA"

    def test_file_beats_preset_and_flag_beats_file(self):
        cfg = load_run_config({"n_shared": 5, "d_in": 20}, {"d_in": 24, "n_shared": None}, preset="pda-toy")
        assert (cfg.regime, cfg.n_source_private, cfg.n_target_private) == ("PDA", 4, 0)  # preset
        assert cfg.n_shared == 5  # file beats preset
        assert cfg.d_in == 24     # flag beats file

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            load_run_config({}, {}, preset="nope")
