"""Exception types shared across the package, and the range rule of each config field."""

from __future__ import annotations

import sys
from collections.abc import Callable

BANK_MODES = ("normal", "levels")


class ConfigError(ValueError):
    """Invalid configuration or invalid arguments derived from configuration."""


class ConsistencyError(RuntimeError):
    """Reported data contradicts sampler state (unknown ids, stale batches, ...)."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget before reaching tolerance.

    Carries the iterate trajectory recorded so far in ``trajectory``.
    """

    def __init__(self, message: str, trajectory: list | None = None):
        super().__init__(message)
        self.trajectory = trajectory if trajectory is not None else []


class RolloutBudgetError(RuntimeError):
    """Dynamic filtering hit its retry cap without keeping a single problem."""


def _at_least(low: int) -> tuple[str, Callable]:
    return f">= {low}", lambda value: value >= low


# A float field is bounded by the largest float: that refuses NaN, the
# infinities and an int too large to become a float.
_MAX = sys.float_info.max
_FINITE = ("finite", lambda value: abs(value) <= _MAX)
_POSITIVE = ("finite and > 0", lambda value: 0.0 < value <= _MAX)

# Config field -> (requirement, predicate): the one statement of each field's
# range, checked by ExperimentConfig.validate.  Every object a run builds
# takes the whole config and validates it; only ProblemBank checks a field on
# its own, the mode a bank file names.
FIELD_RULES: dict[str, tuple[str, Callable]] = {
    "n_problems": _at_least(1),
    "batch_size": _at_least(1),
    "rollouts": _at_least(2),
    "total_steps": _at_least(1),
    "seed": _at_least(0),
    "discrimination": _POSITIVE,
    "learn_rate": ("finite and >= 0", lambda value: 0.0 <= value <= _MAX),
    "ability_init": _FINITE,
    "bank_mode": (f"one of {BANK_MODES}", BANK_MODES.__contains__),
    "bank_scale": _POSITIVE,
    "bank_level_spread": _POSITIVE,
}


def check_field(name: str, value) -> None:
    """Refuse ``value`` for config field ``name`` unless it meets the field's rule."""
    requirement, holds = FIELD_RULES[name]
    if not holds(value):
        raise ConfigError(f"{name}: must be {requirement}, got {value!r}")
