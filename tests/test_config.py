"""Run-configuration parsing, presets, and the derived config objects."""

import pytest

from spikeprune import InvalidInputError
from spikeprune.config import (RunConfig, available_presets, load_config,
                               parse_config, resolve_config)


class TestParseConfig:
    def test_empty_text_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_overrides_and_comments(self):
        cfg = parse_config(
            "# a comment\n"
            "\n"
            "hidden_size = 16   # trailing comment\n"
            "learning_rate=0.25\n"
            "  epochs =  3\n")
        assert cfg.hidden_size == 16
        assert cfg.learning_rate == 0.25
        assert cfg.epochs == 3
        assert cfg.num_heads == RunConfig().num_heads

    def test_lambda_alias(self):
        cfg = parse_config("lambda = 2e-8\n")
        assert cfg.lam == 2e-8
        assert parse_config("lam = 3e-8\n").lam == 3e-8

    def test_unknown_key_names_line(self):
        with pytest.raises(InvalidInputError, match=r"<config>:3: unknown key"):
            parse_config("epochs = 1\n\nnot_a_key = 5\n")

    def test_missing_equals(self):
        with pytest.raises(InvalidInputError, match=r":1: expected key = value"):
            parse_config("epochs 3\n")

    def test_type_errors_name_key_and_line(self):
        with pytest.raises(InvalidInputError, match=r":1: epochs must be an integer"):
            parse_config("epochs = 2.5\n")
        with pytest.raises(InvalidInputError, match=r":2: eta must be a number"):
            parse_config("epochs = 2\neta = fast\n")

    def test_source_name_appears(self):
        with pytest.raises(InvalidInputError, match=r"myfile\.cfg:1"):
            parse_config("bogus = 1\n", source="myfile.cfg")


class TestDerivedConfigs:
    def test_model_config_mapping(self):
        cfg = parse_config("hidden_size = 24\nnum_heads = 3\n"
                           "pca_components = 0.9\npca_base = 1.5\nt_conv = 17\n")
        mc = cfg.model_config()
        assert mc.hidden_size == 24
        assert mc.head_dim == 8
        assert mc.variance_threshold == 0.9
        assert mc.pca_base == 1.5
        assert mc.t_conv == 17

    def test_train_config_mapping(self):
        cfg = parse_config("acs_constraint = 0.55\npca_base = 1.25\n"
                           "pca_components = 0.95\nrho = 0.5\nlambda = 1e-8\n")
        tc = cfg.train_config()
        assert tc.budget == 0.55
        assert tc.base == 1.25
        assert tc.theta == 0.95
        assert tc.rho == 0.5
        assert tc.lam == 1e-8

    def test_train_config_overrides(self):
        cfg = RunConfig()
        tc = cfg.train_config(epochs=2, learning_rate=0.01, seed=9)
        assert tc.epochs == 2 and tc.learning_rate == 0.01 and tc.seed == 9
        assert tc.eta == cfg.eta


class TestPresets:
    def test_presets_exist_and_parse(self):
        names = available_presets()
        assert "sst2_toy" in names
        for name in names:
            cfg = resolve_config(name)
            assert isinstance(cfg, RunConfig)
            cfg.model_config()
            cfg.train_config()

    def test_toy_preset_values(self):
        cfg = resolve_config("sst2_toy")
        assert cfg.num_layers == 2
        assert cfg.hidden_size == 32
        assert cfg.num_heads == 4
        assert cfg.intermediate_size == 64
        assert cfg.seq_len == 16
        assert cfg.t_conv == 40
        assert cfg.train_examples == 2000
        assert cfg.test_examples == 500
        assert cfg.learning_rate == 0.03
        assert cfg.epochs == 8

    def test_unknown_preset_lists_options(self):
        # a name with path separators is no preset, even if it leads to one
        for name in ("definitely_not_a_preset", "../presets/sst2_toy"):
            with pytest.raises(InvalidInputError) as err:
                resolve_config(name)
            assert "presets:" in str(err.value)
            assert "sst2_toy" in str(err.value)


class TestLoadConfig:
    def test_file_path_wins_over_preset_lookup(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 4\nseed = 11\n")
        cfg = resolve_config(str(p))
        assert cfg.epochs == 4 and cfg.seed == 11
        assert load_config(str(p)) == cfg

    def test_errors_name_the_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = x\n")
        with pytest.raises(InvalidInputError, match="run.cfg:1"):
            load_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "nope.cfg"))
