"""Scheduling math: sigmoid, difficulty estimates, competence.

Difficulty here is model-relative: the gap between the pass rate a problem
"should" have at the current competence and the pass rate actually observed.
Per-problem estimates are incremental means of those gaps, and competence is
the negated mean of all stored estimates.  All functions are pure; records
are immutable and replaced, never mutated.  These scalar functions are the
oracle the samplers' array paths are checked against; ``sigmoid_array`` is
the one array function here, equal to ``sigmoid`` bit for bit.  The
fixed-point solver (``cdas.fixed_point.iterate_once``) takes its logistic
unclamped, one exp pass per cache-sized block, on a thread per usable CPU and
with identical results for any worker count: it is within machine epsilon of
``sigmoid`` but not bit-exact with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Saturation guard: beyond this logit the true sigmoid is closer to 0/1 than
# one double-precision ulp, so clamp instead of returning an exact endpoint.
MAX_LOGIT = 40.0
_SIGMOID_CEIL = 1.0 - sys.float_info.epsilon
_SIGMOID_FLOOR = sys.float_info.epsilon

LEVEL_TAGS = (1, 2, 3, 4, 5)


@dataclass(frozen=True, slots=True)
class ProblemRecord:
    """One problem's scheduling state.

    ``id`` names the problem; its level tag and latent difficulty live only in
    the ``ProblemBank``.  ``t`` counts recorded observations and
    ``difficulty`` is the running mean of instantaneous difficulties.
    """

    id: str
    t: int = 0
    difficulty: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if not math.isfinite(self.difficulty):
            raise ValueError(f"difficulty must be finite, got {self.difficulty}")


def sigmoid(z: float) -> float:
    """Logistic function with output clamped to the open interval (0, 1).

    Negative inputs are evaluated as 1 - sigmoid(-z); because 1 - p is exact
    for p in [0.5, 1], sigmoid(z) + sigmoid(-z) == 1.0 holds exactly.
    """
    if not math.isfinite(z):
        raise ValueError(f"sigmoid input must be finite, got {z}")
    if z < 0.0:
        return 1.0 - sigmoid(-z)
    if z > MAX_LOGIT:
        return _SIGMOID_CEIL
    value = 1.0 / (1.0 + math.exp(-z))
    return min(value, _SIGMOID_CEIL)


def sigmoid_array(z) -> np.ndarray:
    """Elementwise ``sigmoid``, bit for bit.

    ``np.exp`` rounds differently from ``math.exp``, so the exponentials are
    taken with ``math.exp`` over the values; every other operation is a
    correctly rounded IEEE operation that numpy and Python share.

    Raises:
        ValueError: an input is nan or infinite.
    """
    z = np.asarray(z, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"sigmoid input must be finite, got {z.flat[bad[0]]}")
    magnitude = np.abs(z)
    e = np.fromiter(map(math.exp, (-magnitude).ravel().tolist()), np.float64, z.size)
    # Past MAX_LOGIT, e < 2**-57 and 1 + e rounds to 1.0, so the minimum
    # already gives the clamp the scalar sigmoid takes there.
    value = np.minimum(1.0 / (1.0 + e.reshape(z.shape)), _SIGMOID_CEIL)
    return np.where(z < 0.0, 1.0 - value, value)


def expected_performance(competence: float, difficulty: float) -> float:
    """Pass rate predicted at the given competence: sigmoid(competence - difficulty)."""
    if not math.isfinite(competence):
        raise ValueError(f"competence must be finite, got {competence}")
    if not math.isfinite(difficulty):
        raise ValueError(f"difficulty must be finite, got {difficulty}")
    return sigmoid(competence - difficulty)


def instantaneous_difficulty(competence: float, difficulty: float, pass_rate: float) -> float:
    """Gap between predicted and observed pass rate, in (-1, 1)."""
    if not (0.0 <= pass_rate <= 1.0):
        raise ValueError(f"pass_rate must be in [0, 1], got {pass_rate}")
    return expected_performance(competence, difficulty) - pass_rate


def update_difficulty(record: ProblemRecord, d_new: float) -> ProblemRecord:
    """Fold one instantaneous difficulty into the record's running mean.

    With t prior observations the stored mean D becomes
    (t / (t + 1)) * D + d_new / (t + 1), and t increments.
    """
    if not (-1.0 <= d_new <= 1.0):
        raise ValueError(f"instantaneous difficulty must be in [-1, 1], got {d_new}")
    count = record.t + 1
    mean = (record.t / count) * record.difficulty + d_new / count
    return ProblemRecord(id=record.id, t=count, difficulty=mean)


def update_competence(records) -> float:
    """Negated mean of stored difficulties over every record, sampled or not.

    Summation is plain left-to-right so that the negation of the result is
    exactly the mean as any caller would compute it in the same order.
    """
    total = 0.0
    count = 0
    for record in records:
        total += record.difficulty
        count += 1
    if count == 0:
        raise ValueError("update_competence requires at least one record")
    return -(total / count)


def alignment(competence: float, difficulty: float) -> float:
    """Absolute competence-difficulty gap; smaller is better aligned."""
    return abs(competence - difficulty)
