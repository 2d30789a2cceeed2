"""Experiment configuration: defaults, JSON round-trip, validation, hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
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
    bank_scale: float = 1.0
    bank_level_spread: float = 2.0
    bank_path: str | None = None  # load instead of generating; n_problems then ignored
    # scheduler initial values
    initial_difficulty: float = 0.0
    initial_competence: float = 0.0
    # curriculum baseline
    curriculum_switch_step: int | None = None  # None: total_steps // 2
    curriculum_threshold: int = 4
    # prioritized baseline
    prioritized_initial_weight: float = 1.0
    # dynamic baseline
    dynamic_retry_cap: int = 10
    dynamic_oversample_factor: float = 1.0
    # output (not part of the experiment identity)
    out_dir: str | None = None

    def validate(self) -> None:
        for name, value in vars(self).items():
            # By exact type: bool is an int subclass, and a JSON config can
            # hold a string or a fraction where a number or a flag belongs.
            if type(value) not in _FIELD_TYPES[name]:
                raise ConfigError(
                    f"{name}: must be of type {self.__annotations__[name]}, got {value!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy: must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.n_problems < 1:
            raise ConfigError(f"n_problems: must be >= 1, got {self.n_problems}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.bank_path is None and self.batch_size > self.n_problems:
            raise ConfigError(
                f"batch_size: must not exceed n_problems "
                f"({self.batch_size} > {self.n_problems})"
            )
        if self.strategy == CdasSampler.strategy and self.symmetric and self.batch_size % 2 != 0:
            raise ConfigError(
                f"batch_size: symmetric mode needs an even batch, got {self.batch_size}"
            )
        if self.rollouts < 2:
            raise ConfigError(f"rollouts: must be >= 2, got {self.rollouts}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps: must be >= 1, got {self.total_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.discrimination <= 0.0:
            raise ConfigError(f"discrimination: must be > 0, got {self.discrimination}")
        if self.learn_rate < 0.0:
            raise ConfigError(f"learn_rate: must be >= 0, got {self.learn_rate}")
        if self.bank_mode not in BANK_MODES:
            raise ConfigError(f"bank_mode: must be one of {BANK_MODES}, got {self.bank_mode!r}")
        if self.bank_scale <= 0.0:
            raise ConfigError(f"bank_scale: must be > 0, got {self.bank_scale}")
        if self.bank_level_spread <= 0.0:
            raise ConfigError(
                f"bank_level_spread: must be > 0, got {self.bank_level_spread}"
            )
        if self.curriculum_switch_step is not None and self.curriculum_switch_step < 0:
            raise ConfigError(
                f"curriculum_switch_step: must be >= 0, got {self.curriculum_switch_step}"
            )
        if self.curriculum_threshold not in (1, 2, 3, 4, 5):
            raise ConfigError(
                f"curriculum_threshold: must be in 1..5, got {self.curriculum_threshold}"
            )
        if not (0.0 <= self.prioritized_initial_weight <= 1.0):
            raise ConfigError(
                f"prioritized_initial_weight: must be in [0, 1], "
                f"got {self.prioritized_initial_weight}"
            )
        if self.dynamic_retry_cap < 1:
            raise ConfigError(
                f"dynamic_retry_cap: must be >= 1, got {self.dynamic_retry_cap}"
            )
        if self.dynamic_oversample_factor < 1.0:
            raise ConfigError(
                f"dynamic_oversample_factor: must be >= 1, "
                f"got {self.dynamic_oversample_factor}"
            )

    @property
    def resolved_curriculum_switch_step(self) -> int:
        if self.curriculum_switch_step is not None:
            return self.curriculum_switch_step
        return self.total_steps // 2

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
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigError(f"unknown config field {unknown[0]!r}")
        return dataclasses.replace(self, **changes)

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
