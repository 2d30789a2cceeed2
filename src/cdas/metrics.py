"""Per-step metrics and the metrics CSV schema."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConsistencyError

METRICS_COLUMNS = [
    "step",
    "strategy",
    "seed",
    "mean_reward",
    "zero_gradient_fraction",
    "rollout_batches_consumed",
    "competence",
    "mean_sampled_difficulty",
    "learner_ability",
]


@dataclass(frozen=True, slots=True)
class StepMetrics:
    """One scheduler step's aggregates.

    ``competence`` and ``mean_sampled_difficulty`` are None for strategies
    that do not model difficulty; ``learner_ability`` is the simulated
    learner's ability after the step's update.
    """

    step: int
    mean_reward: float
    zero_gradient_fraction: float
    rollout_batches_consumed: int
    competence: float | None
    mean_sampled_difficulty: float | None
    learner_ability: float


def summarize_step(batch, sampler, learner, rollout_batches_consumed: int) -> StepMetrics:
    """Aggregate one completed step, after ``report`` and ``learn_step``.

    Pass rates, competence and difficulty are read from the sampler, ability
    from the learner.  ``batch`` holds the bank indices of the problems trained
    on; ``rollout_batches_consumed`` is the number of rollout groups the step
    spent, filtered ones included.  A group at pass rate 0 or 1 has zero
    gradient.  An empty batch raises ValueError, and a batch still pending
    (its rates are stale) ConsistencyError.
    """
    n = len(batch)
    if not n:
        raise ValueError("summarize_step requires at least one rollout group")
    if sampler.pending is not None:
        raise ConsistencyError("summarize_step called with a batch still pending")
    rates = sampler.last_pass_rates[batch]
    competence = sampler.competence_value
    if competence is None:
        mean_difficulty = None
    else:
        # Python's left-to-right sum: np.sum pairs terms and rounds differently.
        mean_difficulty = sum(sampler.estimates[batch].tolist()) / n
    return StepMetrics(
        step=sampler.step,
        mean_reward=sum(rates.tolist()) / n,
        zero_gradient_fraction=int(np.count_nonzero((rates == 0) | (rates == 1))) / n,
        rollout_batches_consumed=rollout_batches_consumed,
        competence=competence,
        mean_sampled_difficulty=mean_difficulty,
        learner_ability=learner.ability,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_metrics_row(row: StepMetrics, strategy: str, seed: int) -> list[str]:
    """The cells of ``METRICS_COLUMNS``: the step, the run's strategy and seed, then the rest."""
    values = (row.step, strategy, seed, *(getattr(row, name) for name in METRICS_COLUMNS[3:]))
    return [_cell(value) for value in values]


def write_metrics_csv(path: str | Path, rows: list[StepMetrics], strategy: str, seed: int) -> None:
    """Write the per-step metrics CSV; floats use shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(format_metrics_row(row, strategy, seed))


def read_metrics_csv(path: str | Path) -> list[dict]:
    """Parse a metrics CSV back into dicts with typed fields ('' -> None)."""
    out = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            out.append(
                {
                    "step": int(raw["step"]),
                    "strategy": raw["strategy"],
                    "seed": int(raw["seed"]),
                    "mean_reward": float(raw["mean_reward"]),
                    "zero_gradient_fraction": float(raw["zero_gradient_fraction"]),
                    "rollout_batches_consumed": int(raw["rollout_batches_consumed"]),
                    "competence": float(raw["competence"]) if raw["competence"] else None,
                    "mean_sampled_difficulty": (
                        float(raw["mean_sampled_difficulty"])
                        if raw["mean_sampled_difficulty"]
                        else None
                    ),
                    "learner_ability": float(raw["learner_ability"]),
                }
            )
    return out
