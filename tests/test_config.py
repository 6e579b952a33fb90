"""Run-configuration parsing, presets, and the derived config objects."""

import dataclasses
import re

import pytest

from spikeprune import InvalidInputError, ModelConfig, TrainConfig
from spikeprune.config import (RunConfig, available_presets, load_config,
                               parse_config, resolve_config)
from spikeprune.engine import MAX_TIMESTEPS


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
        assert tc.lam == 1e-8

    def test_train_config_overrides(self):
        cfg = RunConfig()
        tc = cfg.train_config(epochs=2, learning_rate=0.01, seed=9)
        assert tc.epochs == 2 and tc.learning_rate == 0.01 and tc.seed == 9
        assert tc.eta == cfg.eta

    def test_splits_carry_every_field(self):
        """Each split field reads its RunConfig value, the renamed one
        included; adaptive_vth has no config key and keeps its default."""
        cfg = RunConfig(num_layers=3, hidden_size=24, num_heads=3, intermediate_size=20,
                        seq_len=7, vocab_size=11, num_classes=3, leak=0.9, t_conv=17,
                        initial_vth=1.5, pca_components=0.95, pca_base=1.25,
                        learning_rate=0.2, epochs=5, penalty_epochs=2, lam=1e-8,
                        eta=0.003, kappa=7.0, momentum=0.8, pca_interval=3,
                        train_batch=9, test_batch=13, acs_constraint=0.55, rho=0.5,
                        seed=4)
        assert cfg.model_config() == ModelConfig(
            num_layers=3, hidden_size=24, num_heads=3, intermediate_size=20,
            seq_len=7, vocab_size=11, num_classes=3, leak=0.9, t_conv=17,
            variance_threshold=0.95, pca_base=1.25, initial_vth=1.5)
        assert cfg.train_config() == TrainConfig(
            learning_rate=0.2, epochs=5, penalty_epochs=2, lam=1e-8, eta=0.003,
            pca_interval=3, kappa=7.0, seed=4, train_batch=9, test_batch=13,
            momentum=0.8)
        assert cfg.train_config(adaptive_vth=False, kappa=3.0) == dataclasses.replace(
            cfg.train_config(), adaptive_vth=False, kappa=3.0)


class TestRunConfig:
    @pytest.mark.parametrize("field,value", [
        ("acs_constraint", 0.0), ("acs_constraint", 1.5), ("rho", 0.0), ("rho", 1.2),
    ])
    def test_rejects_out_of_range_fractions(self, field, value):
        """Only ablate reads these, so they are checked where a config is parsed."""
        with pytest.raises(InvalidInputError, match=field):
            RunConfig(**{field: value})
        with pytest.raises(InvalidInputError, match=f"^runs.cfg: {field} must be"):
            parse_config(f"{field} = {value}\n", "runs.cfg")

    @pytest.mark.parametrize("t_conv", [0, -1, MAX_TIMESTEPS + 1, 10**12])
    def test_rejects_t_conv_no_simulator_runs(self, t_conv):
        """A t_conv outside [1, MAX_TIMESTEPS] is refused where a config is
        parsed, so no command trains a model it cannot simulate."""
        with pytest.raises(InvalidInputError, match=(
                f"^runs.cfg: t_conv must be in \\[1, {MAX_TIMESTEPS}\\], got {t_conv}$")):
            parse_config(f"t_conv = {t_conv}\n", "runs.cfg")

    def test_accepts_t_conv_at_the_ceiling(self):
        assert parse_config(f"t_conv = {MAX_TIMESTEPS}\n").t_conv == MAX_TIMESTEPS


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

    @pytest.mark.parametrize("name,text,message", [
        ("lr.cfg", "learning_rate = nan\n", "learning_rate must be finite"),
        ("pb.cfg", "pca_base = 1.0\n", "pca_base must be greater than 1"),
    ])
    def test_split_config_errors_name_the_file(self, tmp_path, name, text, message):
        """ModelConfig and TrainConfig checks fail while the file is parsed."""
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(p))}: {message}$"):
            load_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "nope.cfg"))
