"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or invalid arguments derived from configuration."""


class ConsistencyError(RuntimeError):
    """Reported data contradicts sampler state (unknown ids, stale batches, ...)."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget before reaching tolerance.

    Carries the sup-norm step size of each iteration run so far in
    ``trajectory``.
    """

    def __init__(self, message: str, trajectory: list[float] | None = None):
        super().__init__(message)
        self.trajectory = trajectory if trajectory is not None else []


class RolloutBudgetError(RuntimeError):
    """Dynamic filtering hit its retry cap without keeping a single problem."""
