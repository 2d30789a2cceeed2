"""Experiment config: validation, JSON round trip, overrides, hashing."""

import argparse
import ast
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import cdas
from cdas import cli, errors
from cdas.baselines import CurriculumSampler, RandomSampler
from cdas.config import FIELD_RULES, SAMPLERS, STRATEGIES, ExperimentConfig
from cdas.errors import ConfigError, ConsistencyError
from cdas.learner import SyntheticLearner, generate_bank
from cdas.sampling import CdasSampler


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
            ("bank_scale", -1.0),
            ("discrimination", math.nan),
            ("learn_rate", math.inf),
            ("ability_init", math.nan),
            ("bank_scale", math.inf),
            ("bank_scale", math.nan),
            ("ability_init", 10**400),
            ("learn_rate", "0.1"),
            ("n_problems", 12.5),
            ("n_problems", None),
            ("symmetric", "no"),
            ("warmup", 1),
            ("seed", True),
            ("strategy", []),
            ("ability_init", "0"),
            ("bank_path", 5),
            ("total_steps", 2.0),
            ("learn_rate", False),
        ],
    )
    def test_bad_field_is_named_in_the_error(self, field, value):
        config = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            config.validate()

    def test_float_fields_take_ints_and_optional_fields_none(self):
        ExperimentConfig(learn_rate=1, ability_init=0, bank_scale=2).validate()
        # Up to the largest float; past it is refused (see BAD_VALUES).
        largest = int(sys.float_info.max)
        ExperimentConfig(ability_init=-largest, bank_scale=largest).validate()
        ExperimentConfig(ability_init=None, bank_path=None).validate()

    def test_rules_between_fields_are_left_to_the_samplers(self):
        # A batch larger than the bank, or an odd symmetric cdas batch, is
        # refused when the sampler is built (see test_harness).
        ExperimentConfig(n_problems=10, batch_size=12).validate()
        ExperimentConfig(batch_size=7).validate()


class TestCurriculumSwitch:
    @pytest.mark.parametrize("total_steps, switch", [(150, 75), (7, 3), (2, 1), (1, 0)])
    def test_comes_halfway_through_the_run(self, total_steps, switch):
        assert _sampler(CurriculumSampler, total_steps=total_steps).switch_step == switch


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


# Config fields with no range rule, and where their values are checked instead.
FIELDS_WITHOUT_RANGE = {
    "symmetric": "its type only",
    "warmup": "its type only",
    "bank_path": "load_bank, when the file is read",
    "out_dir": "its type only",
}

# Ints a float field refuses: float() of 10**400 overflows, and the next
# int past the largest float would round down to it.
PAST_THE_LARGEST_FLOAT = [10**400, int(sys.float_info.max) + 1]

BAD_VALUES = {
    "n_problems": [0, -3],
    "batch_size": [0, -1],
    "rollouts": [1, 0],
    "total_steps": [0],
    "strategy": ["greedy", ""],
    "seed": [-1],
    "discrimination": [0.0, -1.0, math.nan, math.inf, -math.inf, *PAST_THE_LARGEST_FLOAT],
    "learn_rate": [-0.01, math.nan, math.inf, *PAST_THE_LARGEST_FLOAT],
    "ability_init": [math.nan, math.inf, -math.inf, *PAST_THE_LARGEST_FLOAT, -(10**400)],
    "bank_mode": ["lognormal", ""],
    "bank_scale": [0.0, -1.0, math.nan, math.inf, *PAST_THE_LARGEST_FLOAT],
}

BANK = generate_bank(ExperimentConfig(n_problems=20), np.random.default_rng(0))


def _rng():
    return np.random.default_rng(0)


def _bank_generate(**flags):
    """``cdas bank generate`` with ``flags`` set and the rest unset, writing bank.json."""
    args = cli.build_parser().parse_args(["bank", "generate", "--out", "bank.json"])
    return cli._cmd_bank_generate(argparse.Namespace(**{**vars(args), **flags}))


def _sampler(cls, **fields):
    """``cls(config, BANK, rng)`` for a config of batches of 2 with ``fields`` set."""
    config = ExperimentConfig(
        **{"n_problems": len(BANK), "batch_size": 2, "strategy": cls.strategy, **fields}
    )
    return cls(config, BANK, _rng())


def _learner(**fields):
    """``SyntheticLearner(config, BANK, rng)`` for a config with ``fields`` set."""
    return SyntheticLearner(ExperimentConfig(**fields), BANK, _rng())


def _bank(**fields):
    """``generate_bank(config, rng)`` for a config of 10 problems with ``fields`` set."""
    return generate_bank(ExperimentConfig(**{"n_problems": 10, **fields}), _rng())


# Field -> each constructor (or command) that takes it, given the value.
# Each takes the whole config, so its consumers set the one field.
CONSUMERS = {
    "n_problems": [lambda v: _bank(n_problems=v), lambda v: _bank_generate(n_problems=v)],
    "batch_size": [lambda v: _sampler(CdasSampler, batch_size=v)],
    "rollouts": [
        lambda v: _learner(rollouts=v),
        lambda v: _sampler(CdasSampler, rollouts=v),
    ],
    "total_steps": [lambda v: _sampler(CurriculumSampler, total_steps=v)],
    "strategy": [lambda v: _sampler(RandomSampler, strategy=v)],
    "seed": [lambda v: _bank_generate(seed=v)],
    "discrimination": [lambda v: _learner(discrimination=v)],
    "learn_rate": [lambda v: _learner(learn_rate=v)],
    "ability_init": [lambda v: _learner(ability_init=v)],
    "bank_mode": [lambda v: _bank(bank_mode=v), lambda v: _bank_generate(bank_mode=v)],
    "bank_scale": [
        lambda v: _bank(bank_scale=v),
        lambda v: _bank(bank_mode="levels", bank_scale=v),
        lambda v: _bank_generate(bank_scale=v),
        lambda v: _bank_generate(bank_mode="levels", bank_scale=v),
    ],
}


class TestFieldRules:
    def test_every_field_has_a_rule_or_is_named_without_one(self):
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert set(FIELD_RULES) | set(FIELDS_WITHOUT_RANGE) == fields
        assert not set(FIELD_RULES) & set(FIELDS_WITHOUT_RANGE)
        # A float field's rule is where NaN and infinities are refused.
        floats = {f.name for f in dataclasses.fields(ExperimentConfig) if "float" in str(f.type)}
        assert not floats & set(FIELDS_WITHOUT_RANGE)

    def test_every_rule_has_bad_values_and_consumers(self):
        assert set(BAD_VALUES) == set(FIELD_RULES) == set(CONSUMERS)

    def test_errors_module_defines_only_exceptions(self):
        # The rules live beside the config; cdas.errors holds the exception types.
        defined = [
            value for name, value in vars(errors).items()
            if not name.startswith("_") and name != "annotations"
        ]
        assert defined and all(issubclass(value, Exception) for value in defined)

    @pytest.mark.parametrize(
        "field,value", [("learn_rate", "0.1"), ("bank_scale", "1.0"), ("n_problems", 12.5)]
    )
    def test_consumers_refuse_a_wrong_type_as_validate_does(self, field, value):
        with pytest.raises(ConfigError) as by_validate:
            ExperimentConfig(**{field: value}).validate()
        assert str(by_validate.value).startswith(f"{field}: must be of type ")
        for consume in CONSUMERS[field]:
            with pytest.raises(ConfigError) as refused:
                consume(value)
            assert str(refused.value) == str(by_validate.value)

    @pytest.mark.parametrize(
        "field,value",
        [(field, value) for field, values in BAD_VALUES.items() for value in values],
    )
    def test_config_and_consumers_refuse_with_one_message(
        self, tmp_path, monkeypatch, field, value
    ):
        monkeypatch.chdir(tmp_path)
        message = f"{field}: must be {FIELD_RULES[field][0]}, got {value!r}"
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig(**{field: value}).validate()
        assert str(refused.value) == message
        for consume in CONSUMERS[field]:
            with pytest.raises(ConfigError) as refused:
                consume(value)
            assert str(refused.value) == message
        assert not list(tmp_path.iterdir())


# Configs validate refuses: a field out of its range, or of a wrong type.
REFUSED_CONFIGS = [
    *({field: value} for field, values in BAD_VALUES.items() for value in values),
    {"learn_rate": "0.1"},
    {"total_steps": 1.5},
    {"symmetric": "no"},
]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_sampler_takes_its_sizes_and_refusals_from_the_config(strategy):
    cls = SAMPLERS[strategy]
    for fields in REFUSED_CONFIGS:
        config = ExperimentConfig(**{"n_problems": 20, "batch_size": 2, **fields})
        with pytest.raises(ConfigError) as by_validate:
            config.validate()
        with pytest.raises(ConfigError) as by_sampler:
            cls(config, BANK, _rng())
        assert str(by_sampler.value) == str(by_validate.value), fields
    # The bank, not n_problems, bounds the batch.
    with pytest.raises(ConfigError, match=r"batch_size: must not exceed bank size \(21 > 20\)"):
        cls(ExperimentConfig(n_problems=40, batch_size=21, symmetric=False), BANK, _rng())

    config = ExperimentConfig(n_problems=20, batch_size=2, rollouts=3, strategy=strategy)
    sampler = cls(config, BANK, _rng())
    assert (sampler.batch_size, sampler.group_size) == (2, 3)
    with pytest.raises(ConsistencyError, match=r"pass count 4 for candidate 0; .* \[0, 3\]"):
        sampler.select_and_roll(lambda indices: [config.rollouts + 1] * len(indices))
    assert sampler.pending is None
    batch, counts, consumed = sampler.select_and_roll(lambda indices: [1] * len(indices))
    assert (len(batch), counts.tolist(), consumed) == (2, [1, 1], 2)


@pytest.mark.parametrize(
    "build", [*SAMPLERS.values(), SyntheticLearner, generate_bank], ids=lambda build: build.__name__
)
def test_what_a_run_builds_takes_no_defaulted_parameter(build):
    # Each reads its fields from the config; a default would repeat one.
    parameters = inspect.signature(build).parameters.values()
    assert [p.name for p in parameters if p.default is not p.empty] == []


# Modules that handle the config as a whole, field by field.
CONFIG_MODULES = {"config.py", "cli.py"}


def _config_fields_read(path: Path) -> set[str]:
    """The attributes ``path`` reads off a name or attribute called ``config``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and (
            isinstance(node.value, ast.Name)
            and node.value.id == "config"
            or isinstance(node.value, ast.Attribute)
            and node.value.attr == "config"
        )
    }


def test_every_field_is_read_by_what_a_run_builds():
    # A field only the config modules read sets nothing: it belongs as a constant.
    package = Path(cdas.__file__).parent
    modules = [path for path in package.glob("*.py") if path.name not in CONFIG_MODULES]
    read = set().union(*map(_config_fields_read, modules))
    unread = {field.name for field in dataclasses.fields(ExperimentConfig)} - read
    assert unread == set()
