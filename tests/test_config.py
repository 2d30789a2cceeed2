"""Experiment config: validation, JSON round trip, overrides, hashing."""

import json
import math

import pytest

from cdas.config import ExperimentConfig
from cdas.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("strategy", "greedy"),
            ("n_problems", 0),
            ("batch_size", 0),
            ("rollouts", 1),
            ("total_steps", 0),
            ("seed", -1),
            ("discrimination", 0.0),
            ("learn_rate", -0.01),
            ("bank_mode", "lognormal"),
            ("bank_scale", 0.0),
            ("bank_level_spread", -2.0),
            ("curriculum_switch_step", -5),
            ("curriculum_threshold", 0),
            ("prioritized_initial_weight", 2.0),
            ("dynamic_retry_cap", 0),
            ("dynamic_oversample_factor", 0.9),
            ("discrimination", math.nan),
            ("learn_rate", math.inf),
            ("ability_init", math.nan),
            ("bank_scale", math.inf),
            ("bank_level_spread", math.nan),
            ("initial_difficulty", -math.inf),
            ("initial_competence", math.nan),
            ("initial_competence", math.inf),
            ("prioritized_initial_weight", math.nan),
            ("dynamic_oversample_factor", math.nan),
        ],
    )
    def test_bad_field_is_named_in_the_error(self, field, value):
        config = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            config.validate()

    def test_batch_cannot_exceed_generated_bank(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(n_problems=10, batch_size=12).validate()

    def test_batch_check_deferred_for_loaded_banks(self):
        # With a bank file the real size is unknown until load time.
        ExperimentConfig(n_problems=10, batch_size=12, bank_path="bank.json").validate()

    def test_symmetric_batch_must_be_even(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(batch_size=7).validate()
        ExperimentConfig(batch_size=7, symmetric=False).validate()
        ExperimentConfig(batch_size=7, strategy="random").validate()


class TestCurriculumSwitch:
    def test_defaults_to_half_the_run(self):
        assert ExperimentConfig(total_steps=150).resolved_curriculum_switch_step == 75
        assert ExperimentConfig(total_steps=7).resolved_curriculum_switch_step == 3

    def test_explicit_value_wins(self):
        config = ExperimentConfig(total_steps=100, curriculum_switch_step=10)
        assert config.resolved_curriculum_switch_step == 10


class TestSerialization:
    def test_dict_round_trip(self):
        config = ExperimentConfig(strategy="dynamic", seed=9, batch_size=32)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            ExperimentConfig.from_dict({"momentum": 0.9})

    def test_file_round_trip(self, tmp_path):
        config = ExperimentConfig(total_steps=12, bank_mode="levels")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_file(path) == config

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


class TestOverrides:
    def test_none_means_keep(self):
        config = ExperimentConfig(seed=5)
        assert config.with_overrides(seed=None, batch_size=None) == config

    def test_values_replace(self):
        config = ExperimentConfig().with_overrides(strategy="random", seed=3)
        assert config.strategy == "random"
        assert config.seed == 3

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="optimizer"):
            ExperimentConfig().with_overrides(optimizer="adam")


class TestContentHash:
    def test_output_directory_is_not_identity(self):
        a = ExperimentConfig(out_dir="/tmp/a")
        b = ExperimentConfig(out_dir="/tmp/b")
        assert a.content_hash() == b.content_hash()

    def test_every_other_field_is_identity(self):
        base = ExperimentConfig()
        assert base.content_hash() != ExperimentConfig(seed=1).content_hash()
        assert base.content_hash() != ExperimentConfig(strategy="random").content_hash()
        assert base.content_hash() != ExperimentConfig(bank_scale=1.5).content_hash()

    def test_hash_is_stable_across_instances(self):
        assert ExperimentConfig(seed=4).content_hash() == ExperimentConfig(seed=4).content_hash()
