"""Baseline problem-selection strategies.

All baselines follow the select/report contract of ``sampling.Sampler``: pick
a batch of ids, then report the observed pass rates for that batch.  None of
them maintain a competence or difficulty model.  Only prioritized sampling
reads a per-problem history: the latest pass rate, which every sampler keeps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ConsistencyError, RolloutBudgetError
from .sampling import Sampler, rolled_counts, smallest_by


class BaselineSampler(Sampler):
    """A sampler with no competence or difficulty model."""

    def _uniform_batch(self, batch_size: int) -> np.ndarray:
        return self._rng.choice(len(self.bank), size=batch_size, replace=False)


class RandomSampler(BaselineSampler):
    """Uniform sampling without replacement within each batch."""

    strategy = "random"

    def _choose(self, batch_size: int) -> np.ndarray:
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
        if None in bank.level_tags:
            untagged = [pid for pid, tag in zip(bank.ids, bank.level_tags) if tag is None]
            raise ConfigError(
                f"curriculum needs level tags on every problem; missing on {untagged[0]} "
                f"and {len(untagged) - 1} others"
            )
        self.switch_step = switch_step
        self.threshold = threshold
        # Bank indices of the problems at or above the threshold level.
        self._eligible = np.flatnonzero(np.array(bank.level_tags) >= threshold)

    @classmethod
    def from_config(cls, config, bank, rng: np.random.Generator) -> "CurriculumSampler":
        return cls(
            bank,
            rng=rng,
            switch_step=config.resolved_curriculum_switch_step,
            threshold=config.curriculum_threshold,
        )

    def _choose(self, batch_size: int) -> np.ndarray:
        if self._step < self.switch_step:
            return self._uniform_batch(batch_size)
        if batch_size > len(self._eligible):
            raise ConfigError(
                f"batch_size: only {len(self._eligible)} problems at level >= "
                f"{self.threshold}, need {batch_size}"
            )
        chosen = self._rng.choice(len(self._eligible), size=batch_size, replace=False)
        return self._eligible[chosen]


class PrioritizedSampler(BaselineSampler):
    """Weighted sampling by failure rate: weight 1 - latest pass rate.

    Unseen problems carry ``initial_weight``.  A batch has the distribution
    of sequential draws without replacement, each in proportion to the
    weights that remain, so a zero-weight problem is never taken while
    positive-weight problems remain.  It is drawn in one go: one exponential
    per problem and the batch's smallest keys (Efraimidis & Spirakis, 2006).
    If fewer positive weights than the batch holds remain, the rest of the
    batch is uniform over the zero-weight problems and the
    ``uniform_fallbacks`` counter increments.
    """

    strategy = "prioritized"
    state_fields = (*BaselineSampler.state_fields, "uniform_fallbacks")

    def __init__(self, bank, rng: np.random.Generator, initial_weight: float = 1.0):
        super().__init__(bank, rng)
        if not (0.0 <= initial_weight <= 1.0):
            raise ConfigError(
                f"prioritized_initial_weight: must be in [0, 1], got {initial_weight}"
            )
        self.initial_weight = initial_weight
        self.uniform_fallbacks = 0

    @classmethod
    def from_config(cls, config, bank, rng: np.random.Generator) -> "PrioritizedSampler":
        return cls(bank, rng=rng, initial_weight=config.prioritized_initial_weight)

    def _choose(self, batch_size: int) -> np.ndarray:
        # Efraimidis-Spirakis: the smallest keys E / w, E ~ Exp(1), are a
        # sequential weighted draw without replacement.  A zero weight keys
        # +inf and ranks after every positive one, even one whose key
        # overflows to +inf; E breaks the remaining ties at random.
        last = self._last_pass_rate
        weights = np.where(np.isnan(last), self.initial_weight, 1.0 - last)
        draws = self._rng.standard_exponential(len(self.bank))
        zero = weights == 0.0
        with np.errstate(over="ignore"):
            keys = np.divide(draws, weights, out=np.full(len(draws), np.inf), where=~zero)
        if len(draws) - np.count_nonzero(zero) < batch_size:
            self.uniform_fallbacks += 1
        return smallest_by(np.arange(len(draws)), batch_size, keys, zero, draws)

    def _state(self) -> dict:
        return {"uniform_fallbacks": self.uniform_fallbacks}

    def _load_state(self, payload: dict) -> None:
        fallbacks = payload["uniform_fallbacks"]
        if type(fallbacks) is not int or fallbacks < 0:
            raise ConfigError(
                f"sampler state: uniform_fallbacks must be an integer >= 0, got {fallbacks!r}"
            )
        self.uniform_fallbacks = fallbacks


class DynamicSampler(BaselineSampler):
    """Oversample-and-filter selection keeping only problems with interior pass rates.

    Candidates are drawn uniformly in rounds and rolled out in draw order;
    those with pass rate exactly 0 or 1 are discarded.  A round stops at the
    candidate that fills the batch, and drawing once ``retry_cap`` rounds are
    spent.  A capped batch is padded with the most recently filtered
    candidates so batch size is preserved.
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
            "dynamic sampling rolls candidates out while it selects; call select_and_roll"
        )

    def select_and_roll(
        self, batch_size: int, group_size: int, roll_round
    ) -> tuple[list[str], list[int], int]:
        """Build a batch of problems whose rollout groups are interior.

        A group of ``group_size`` rollouts is interior when it passes more
        than 0 and fewer than ``group_size`` times.  Each round draws its
        candidates uniformly from the problems not yet tried this step and
        calls ``roll_round(indices)`` with their bank indices, in draw order;
        it returns one pass count per candidate.  The round stops at the
        candidate that fills the batch: the counts after it are neither kept
        nor counted as consumed.  Returns the batch, its pass counts and the
        number of groups counted (the rollout budget the batch consumed).  The
        batch is pending until its outcomes are reported.

        Raises:
            ConsistencyError: ``roll_round`` did not return one integer count
                in [0, ``group_size``] per candidate; no batch is left pending.
            RolloutBudgetError: retry cap spent with nothing keepable at all.
        """
        self._check_batch_size(batch_size)
        round_size = max(batch_size, math.ceil(self.oversample_factor * batch_size))
        untried = np.ones(len(self.bank), dtype=bool)
        rolled: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        n_kept = 0
        rounds = 0
        while n_kept < batch_size and rounds < self.retry_cap:
            pool = np.flatnonzero(untried)
            if not pool.size:
                break
            rounds += 1
            draw = self._rng.choice(pool.size, size=min(round_size, pool.size), replace=False)
            candidates = pool[draw]
            round_counts = rolled_counts(roll_round, candidates, group_size)
            untried[candidates] = False
            interior = np.flatnonzero((round_counts > 0) & (round_counts < group_size))
            if interior.size >= batch_size - n_kept:
                stop = interior[batch_size - n_kept - 1] + 1
                candidates, round_counts = candidates[:stop], round_counts[:stop]
            rolled.append(candidates)
            counts.append(round_counts)
            n_kept += min(interior.size, batch_size - n_kept)
        indices, group_counts = np.concatenate(rolled), np.concatenate(counts)
        interior = (group_counts > 0) & (group_counts < group_size)
        batch = np.flatnonzero(interior)
        if batch.size < batch_size:
            if not batch.size:
                raise RolloutBudgetError(
                    f"no problem with interior pass rate found in {rounds} rounds "
                    f"({group_counts.size} rollouts)"
                )
            # Pad with the most recently filtered candidates.
            filtered = np.flatnonzero(~interior)
            batch = np.concatenate([batch, filtered[batch.size - batch_size :]])
        self._hold(indices[batch])
        return self._ids(self._pending), group_counts[batch].tolist(), int(group_counts.size)
