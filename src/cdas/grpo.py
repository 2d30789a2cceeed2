"""Group-relative advantage math for binary rule-based rewards."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class RolloutGroup:
    """Rewards for one problem's group of rollouts.

    Rewards are binary (1.0 pass, 0.0 fail) and the group must contain at
    least two rollouts for the advantage normalization to be defined.
    """

    problem_id: str
    rewards: tuple[float, ...]

    def __post_init__(self):
        if len(self.rewards) < 2:
            raise ValueError(
                f"group needs at least 2 rollouts, got {len(self.rewards)} for {self.problem_id}"
            )
        for r in self.rewards:
            if r != 0.0 and r != 1.0:
                raise ValueError(f"rewards must be 0 or 1, got {r} for {self.problem_id}")

    @property
    def pass_rate(self) -> float:
        return sum(self.rewards) / len(self.rewards)


def group_advantages(group: RolloutGroup) -> tuple[list[float], bool]:
    """Standardize rewards within the group.

    Returns ``(advantages, zero_gradient)`` where each advantage is
    (r - mean) / population_std.  When all rewards are equal the std is zero,
    the group carries no learning signal, and the advantages are all zero
    with ``zero_gradient`` set.
    """
    rewards = group.rewards
    n = len(rewards)
    mean = sum(rewards) / n
    variance = sum((r - mean) ** 2 for r in rewards) / n
    if variance == 0.0:
        return [0.0] * n, True
    std = math.sqrt(variance)
    return [(r - mean) / std for r in rewards], False


def pass_count_fault(values, group_size: int) -> str | None:
    """Why ``values`` are not integer pass counts in [0, ``group_size``], or None.

    ``values`` is a one-dimensional array or sequence.  A bool is refused
    by exact type, even among ints, where numpy would read it as 0 or 1.
    """
    counts = np.asarray(values)
    if counts.dtype.kind not in "iu":
        return f"{counts.dtype} pass counts, first {counts[0]}; counts must be integers"
    if counts is not values:
        for k, value in enumerate(values):
            if isinstance(value, (bool, np.bool_)):
                return f"bool pass count {value} for candidate {k}; counts must be integers"
    bad = (counts < 0) | (counts > group_size)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return f"pass count {counts[k]} for candidate {k}; counts must be in [0, {group_size}]"
