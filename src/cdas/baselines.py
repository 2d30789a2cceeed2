"""Baseline problem-selection strategies.

All baselines follow the select/report contract of ``sampling.Sampler``: pick
a batch of ids, then report the observed pass rates for that batch.  None of
them maintain a competence or difficulty model.  Only prioritized sampling
reads a per-problem history, the latest pass rate; the others keep no
per-problem state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ConsistencyError, RolloutBudgetError
from .sampling import Sampler


class BaselineSampler(Sampler):
    """A sampler that, unless a subclass says otherwise, keeps no per-problem state."""

    def _uniform_batch(self, batch_size: int) -> list[str]:
        chosen = self._rng.choice(len(self.bank), size=batch_size, replace=False)
        return [self.bank.ids[i] for i in chosen]

    def _fold(self, outcomes: list) -> None:
        pass


class RandomSampler(BaselineSampler):
    """Uniform sampling without replacement within each batch."""

    strategy = "random"

    def _choose(self, batch_size: int) -> list[str]:
        return self._uniform_batch(batch_size)


class CurriculumSampler(BaselineSampler):
    """Uniform sampling that switches to high-level problems at a fixed step."""

    strategy = "curriculum"

    def __init__(self, bank, rng: np.random.Generator, switch_step: int, threshold: int = 4):
        super().__init__(bank, rng)
        if switch_step < 0:
            raise ConfigError(f"curriculum_switch_step: must be >= 0, got {switch_step}")
        if threshold not in (1, 2, 3, 4, 5):
            raise ConfigError(f"curriculum_threshold: must be in 1..5, got {threshold}")
        tagged = list(zip(bank.ids, bank.level_tags))
        untagged = [pid for pid, tag in tagged if tag is None]
        if untagged:
            raise ConfigError(
                f"curriculum needs level tags on every problem; missing on {untagged[0]} "
                f"and {len(untagged) - 1} others"
            )
        self.switch_step = switch_step
        self.threshold = threshold
        self._eligible = [pid for pid, tag in tagged if tag >= threshold]

    @classmethod
    def from_config(cls, config, bank, rng: np.random.Generator) -> "CurriculumSampler":
        return cls(
            bank,
            rng=rng,
            switch_step=config.resolved_curriculum_switch_step,
            threshold=config.curriculum_threshold,
        )

    def _choose(self, batch_size: int) -> list[str]:
        if self._step < self.switch_step:
            return self._uniform_batch(batch_size)
        if batch_size > len(self._eligible):
            raise ConfigError(
                f"batch_size: only {len(self._eligible)} problems at level >= "
                f"{self.threshold}, need {batch_size}"
            )
        chosen = self._rng.choice(len(self._eligible), size=batch_size, replace=False)
        return [self._eligible[i] for i in chosen]


class PrioritizedSampler(BaselineSampler):
    """Weighted sampling by failure rate: weight 1 - latest pass rate.

    Unseen problems carry ``initial_weight``.  Batches are drawn sequentially
    without replacement, renormalizing after each draw, so a zero-weight
    problem is never taken while positive-weight problems remain.  If no
    positive weight remains the rest of the batch falls back to uniform and
    the ``uniform_fallbacks`` counter increments.
    """

    strategy = "prioritized"
    state_fields = (*BaselineSampler.state_fields, "last_pass_rate", "uniform_fallbacks")

    def __init__(self, bank, rng: np.random.Generator, initial_weight: float = 1.0):
        super().__init__(bank, rng)
        if not (0.0 <= initial_weight <= 1.0):
            raise ConfigError(
                f"prioritized_initial_weight: must be in [0, 1], got {initial_weight}"
            )
        self.initial_weight = initial_weight
        self.last_pass_rate: dict[str, float] = {}
        self.uniform_fallbacks = 0

    @classmethod
    def from_config(cls, config, bank, rng: np.random.Generator) -> "PrioritizedSampler":
        return cls(bank, rng=rng, initial_weight=config.prioritized_initial_weight)

    def _weight(self, problem_id: str) -> float:
        rate = self.last_pass_rate.get(problem_id)
        if rate is None:
            return self.initial_weight
        return 1.0 - rate

    def _choose(self, batch_size: int) -> list[str]:
        remaining = list(range(len(self.bank)))
        weights = np.array([self._weight(pid) for pid in self.bank.ids])
        picks: list[int] = []
        fell_back = False
        for _ in range(batch_size):
            total = float(weights.sum())
            if total <= 0.0:
                j = int(self._rng.integers(len(remaining)))
                fell_back = True
            else:
                j = int(self._rng.choice(len(remaining), p=weights / total))
            picks.append(remaining[j])
            remaining.pop(j)
            weights = np.delete(weights, j)
        if fell_back:
            self.uniform_fallbacks += 1
        return [self.bank.ids[i] for i in picks]

    def _fold(self, outcomes: list) -> None:
        for obs in outcomes:
            self.last_pass_rate[obs.problem_id] = obs.pass_rate

    def _state(self) -> dict:
        return {
            "last_pass_rate": dict(self.last_pass_rate),
            "uniform_fallbacks": self.uniform_fallbacks,
        }

    def _load_state(self, payload: dict) -> None:
        self._check_known(payload["last_pass_rate"], "last_pass_rate")
        self.last_pass_rate = dict(payload["last_pass_rate"])
        self.uniform_fallbacks = payload["uniform_fallbacks"]


class DynamicSampler(BaselineSampler):
    """Oversample-and-filter selection keeping only problems with interior pass rates.

    Candidates are drawn uniformly in rounds and rolled out one at a time;
    those with pass rate exactly 0 or 1 are discarded.  Drawing stops once the
    batch is full or ``retry_cap`` rounds are spent.  A capped batch is padded
    with the most recently filtered candidates so batch size is preserved.
    """

    strategy = "dynamic"

    def __init__(
        self,
        bank,
        rng: np.random.Generator,
        retry_cap: int = 10,
        oversample_factor: float = 1.0,
    ):
        super().__init__(bank, rng)
        if retry_cap < 1:
            raise ConfigError(f"dynamic_retry_cap: must be >= 1, got {retry_cap}")
        if oversample_factor < 1.0:
            raise ConfigError(
                f"dynamic_oversample_factor: must be >= 1, got {oversample_factor}"
            )
        self.retry_cap = retry_cap
        self.oversample_factor = oversample_factor

    @classmethod
    def from_config(cls, config, bank, rng: np.random.Generator) -> "DynamicSampler":
        return cls(
            bank,
            rng=rng,
            retry_cap=config.dynamic_retry_cap,
            oversample_factor=config.dynamic_oversample_factor,
        )

    def select_batch(self, batch_size: int) -> list[str]:
        raise ConsistencyError(
            "dynamic sampling rolls candidates out while it selects; call select_and_filter"
        )

    def select_and_filter(self, batch_size: int, rollout_fn) -> tuple[list[str], int]:
        """Build a batch of interior-pass-rate problems.

        ``rollout_fn`` maps a problem id to a PassRateObservation and is
        invoked once per candidate; the second return value counts those
        invocations (the rollout budget the batch consumed).  The returned
        batch is pending until its outcomes are reported.

        Raises:
            RolloutBudgetError: retry cap spent with nothing keepable at all.
        """
        self._check_batch_size(batch_size)
        round_size = max(batch_size, math.ceil(self.oversample_factor * batch_size))
        kept: list[str] = []
        filtered: list[str] = []
        tried: set[str] = set()
        consumed = 0
        rounds = 0
        while len(kept) < batch_size and rounds < self.retry_cap:
            pool = [pid for pid in self.bank.ids if pid not in tried]
            if not pool:
                break
            rounds += 1
            draw = self._rng.choice(len(pool), size=min(round_size, len(pool)), replace=False)
            for i in draw:
                pid = pool[i]
                tried.add(pid)
                obs = rollout_fn(pid)
                consumed += 1
                if obs.problem_id != pid:
                    raise ConsistencyError(
                        f"rollout_fn returned observation for {obs.problem_id}, expected {pid}"
                    )
                if 0.0 < obs.pass_rate < 1.0:
                    kept.append(pid)
                else:
                    filtered.append(pid)
                if len(kept) == batch_size:
                    break
        if len(kept) < batch_size:
            if not kept:
                raise RolloutBudgetError(
                    f"no problem with interior pass rate found in {rounds} rounds "
                    f"({consumed} rollouts)"
                )
            deficit = batch_size - len(kept)
            kept = kept + filtered[-deficit:]
        self._pending = list(kept)
        return kept, consumed
