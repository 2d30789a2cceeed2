"""Experiment configuration: defaults, JSON round-trip, validation, hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import typing
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .baselines import CurriculumSampler, DynamicSampler, PrioritizedSampler, RandomSampler
from .errors import ConfigError
from .files import read_json
from .sampling import CdasSampler

# Strategy name -> sampler class; each name is declared once, on its class.
SAMPLERS = {
    cls.strategy: cls
    for cls in (CdasSampler, RandomSampler, CurriculumSampler, PrioritizedSampler, DynamicSampler)
}
STRATEGIES = tuple(SAMPLERS)
BANK_MODES = ("normal", "levels")


def _at_least(low: int) -> tuple[str, Callable]:
    return f">= {low}", lambda value: value >= low


# A float field is bounded by the largest float: that refuses NaN, the
# infinities and an int too large to become a float.
_MAX = sys.float_info.max
_FINITE = ("finite", lambda value: abs(value) <= _MAX)
_POSITIVE = ("finite and > 0", lambda value: 0.0 < value <= _MAX)

# Config field -> (requirement, predicate): the one statement of each field's
# range, checked by ExperimentConfig.validate.  Every object a run builds
# takes the whole config and validates it.
FIELD_RULES: dict[str, tuple[str, Callable]] = {
    "n_problems": _at_least(1),
    "batch_size": _at_least(1),
    "rollouts": _at_least(2),
    "total_steps": _at_least(1),
    "strategy": (f"one of {STRATEGIES}", STRATEGIES.__contains__),
    "seed": _at_least(0),
    "discrimination": _POSITIVE,
    "learn_rate": ("finite and >= 0", lambda value: 0.0 <= value <= _MAX),
    "ability_init": _FINITE,
    "bank_mode": (f"one of {BANK_MODES}", BANK_MODES.__contains__),
    "bank_scale": _POSITIVE,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults: 2000 problems, batches of 128, 8 rollouts, 150 steps."""

    n_problems: int = 2000
    batch_size: int = 128
    rollouts: int = 8
    total_steps: int = 150
    strategy: str = "cdas"
    symmetric: bool = True
    warmup: bool = True
    seed: int = 0
    # learner
    discrimination: float = 1.0
    learn_rate: float = 0.05
    ability_init: float | None = None  # None: 5th percentile of bank difficulties
    # bank
    bank_mode: str = "normal"
    bank_scale: float = 1.0  # normal: the latents' std; levels: the latent step between levels
    bank_path: str | None = None  # load instead of generating; n_problems then ignored
    # output (not part of the experiment identity)
    out_dir: str | None = None

    def validate(self) -> None:
        """Refuse a field of the wrong type or outside its range.

        A rule that ties a field to the bank or to the strategy is checked
        where it applies: ``Sampler`` refuses a batch larger than its bank and
        ``CdasSampler`` an odd symmetric batch.
        """
        for name, value in vars(self).items():
            # By exact type: bool is an int subclass, and a JSON config can
            # hold a string or a fraction where a number or a flag belongs.
            if type(value) not in _FIELD_TYPES[name]:
                raise ConfigError(
                    f"{name}: must be of type {self.__annotations__[name]}, got {value!r}"
                )
            # None, where the type allows it, means "derive the value".
            if value is not None and name in FIELD_RULES and not FIELD_RULES[name][1](value):
                raise ConfigError(f"{name}: must be {FIELD_RULES[name][0]}, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config field {unknown[0]!r}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        payload = read_json(path, "config file")
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        return cls.from_dict(payload)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Replace fields by name; None values mean 'keep current'."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return self.from_dict({**self.to_dict(), **changes})

    def content_hash(self) -> str:
        """Hash of every field that defines the experiment; output path excluded."""
        payload = self.to_dict()
        payload.pop("out_dir")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _allowed_types(hint) -> set[type]:
    """The exact value types a field with type hint ``hint`` accepts; a float also takes an int."""
    allowed = set(typing.get_args(hint) or (hint,))
    return (allowed | {int}) if float in allowed else allowed


_FIELD_TYPES = {
    name: _allowed_types(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()
}
