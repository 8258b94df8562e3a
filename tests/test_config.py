import pytest

from ufda.config import SCENARIO_KEYS, ConfigError, RunConfig, load_run_config, parse_config_text
from ufda.datagen import preset


class TestParse:
    def test_basic_keys(self):
        values = parse_config_text("eta = 1.5\nseed = 9\nvariant = glc\n", "run.cfg")
        assert values == {"eta": 1.5, "seed": 9, "variant": "glc"}

    def test_comments_and_blanks(self):
        values = parse_config_text("# a comment\n\nrho = 0.5  # inline\n", "run.cfg")
        assert values == {"rho": 0.5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n", "run.cfg")

    def test_bad_value_rejected_with_location(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("eta = 0.5\nepochs = soon\n", "run.cfg")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some text\n", "run.cfg")


class TestLoad:
    def test_defaults_when_no_file(self):
        cfg = load_run_config(None, {}, None)
        assert cfg.rho == 0.75
        assert cfg.omega == 0.55
        assert cfg.k_neighbors == 4
        assert cfg.momentum == 0.9
        assert cfg.alpha == 0.1

    def test_file_then_cli_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta = 1.5\nseed = 3\n")
        cfg = load_run_config(str(path), {"seed": 9, "omega": None}, None)
        assert cfg.eta == 1.5
        assert cfg.seed == 9       # CLI override wins
        assert cfg.omega == 0.55   # None override ignored

    def test_scenario_defaults_are_opda_toy(self):
        cfg = RunConfig()
        spec = preset("opda-toy")
        assert all(getattr(cfg, key) == getattr(spec, key) for key in SCENARIO_KEYS)

    def test_bad_training_value_rejected_with_key(self):
        with pytest.raises(ConfigError, match="eta"):
            load_run_config(None, {"eta": -1.0}, None)

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ConfigError, match="OSDA"):
            load_run_config(None, {"regime": "OSDA", "n_source_private": 2}, None)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config("/nonexistent/path.cfg", {}, None)

    def test_resolved_round_trips(self, tmp_path):
        cfg = load_run_config(None, {"eta": 2.5, "variant": "glc", "n_shared": 5}, None)
        path = tmp_path / "resolved.cfg"
        path.write_text("\n".join(cfg.resolved_lines()) + "\n", encoding="utf-8")
        reparsed = load_run_config(str(path), {}, None)
        assert reparsed == cfg

    def test_builders(self):
        cfg = load_run_config(None, {"regime": "CLDA", "n_source_private": 0, "n_target_private": 0}, None)
        spec = cfg.scenario()
        assert spec.regime == "CLDA"
        ac = cfg.adapt_config()
        assert ac.rho == cfg.rho
        dims = cfg.model_dims(d_in=12, n_classes=4)
        assert (dims.d_in, dims.d_hidden, dims.d_feat, dims.n_classes) == (12, 64, 32, 4)


class TestPreset:
    def test_preset_carries_its_scenario_keys(self):
        cfg = load_run_config(None, {}, preset="pda-toy")
        spec = preset("pda-toy")
        assert all(getattr(cfg, key) == getattr(spec, key) for key in SCENARIO_KEYS)
        assert cfg.regime == "PDA"

    def test_file_beats_preset_and_flag_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_shared = 5\nd_in = 20\n")
        cfg = load_run_config(str(path), {"d_in": 24, "n_shared": None}, preset="pda-toy")
        assert (cfg.regime, cfg.n_source_private, cfg.n_target_private) == ("PDA", 4, 0)  # preset
        assert cfg.n_shared == 5  # file beats preset
        assert cfg.d_in == 24     # flag beats file

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            load_run_config(None, {}, preset="nope")
