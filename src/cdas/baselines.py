"""Baseline problem-selection strategies.

All baselines follow the select/report contract of ``sampling.Sampler``: pick
a batch of ids, then report the observed pass rates for that batch.  Each is
built as ``cls(config, bank, rng)``; beyond the batch, the group size and the
run length the config sets, each runs at fixed settings: curriculum switches
to level ``CURRICULUM_LEVEL`` and above halfway through the run, prioritized
gives an unseen problem weight 1, and dynamic draws rounds of one batch, at
most ``RETRY_CAP`` of them per step.  None of them maintain a competence or
difficulty model.  Only prioritized sampling reads a per-problem history: the
latest pass rate, which every sampler keeps.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ConsistencyError, RolloutBudgetError
from .sampling import Sampler, rolled_counts, smallest_by

# The lowest level curriculum samples from after its switch.
CURRICULUM_LEVEL = 4
# The most rounds dynamic sampling draws for one batch.
RETRY_CAP = 10


class BaselineSampler(Sampler):
    """A sampler with no competence or difficulty model."""

    def _uniform_batch(self) -> np.ndarray:
        return self._rng.choice(len(self.bank), size=self.batch_size, replace=False)


class RandomSampler(BaselineSampler):
    """Uniform sampling without replacement within each batch."""

    strategy = "random"

    def _choose(self) -> np.ndarray:
        return self._uniform_batch()


class CurriculumSampler(BaselineSampler):
    """Uniform sampling that switches to high-level problems at a fixed step.

    From step ``config.total_steps // 2`` on, batches are drawn uniformly
    from the problems at level ``CURRICULUM_LEVEL`` or above.  The
    constructor refuses a bank with too few of them to fill a batch.
    """

    strategy = "curriculum"

    def __init__(self, config, bank, rng: np.random.Generator):
        super().__init__(config, bank, rng)
        if None in bank.level_tags:
            untagged = [pid for pid, tag in zip(bank.ids, bank.level_tags) if tag is None]
            raise ConfigError(
                f"curriculum needs level tags on every problem; missing on {untagged[0]} "
                f"and {len(untagged) - 1} others"
            )
        self.switch_step = config.total_steps // 2
        # Bank indices of the problems at or above the curriculum level.
        tags = np.fromiter(bank.level_tags, dtype=np.int64, count=len(bank))
        self._eligible = np.flatnonzero(tags >= CURRICULUM_LEVEL)
        if self.batch_size > len(self._eligible):
            raise ConfigError(
                f"batch_size: only {len(self._eligible)} problems at level >= "
                f"{CURRICULUM_LEVEL}, need {self.batch_size}"
            )

    def _choose(self) -> np.ndarray:
        if self._step < self.switch_step:
            return self._uniform_batch()
        chosen = self._rng.choice(len(self._eligible), size=self.batch_size, replace=False)
        return self._eligible[chosen]


class PrioritizedSampler(BaselineSampler):
    """Weighted sampling by failure rate: weight 1 - latest pass rate.

    Unseen problems carry weight 1.  A batch has the distribution of
    sequential draws without replacement, each in proportion to the weights
    that remain, so a zero-weight problem is never taken while
    positive-weight problems remain.  It is drawn in one go: one exponential
    per problem and the batch's smallest keys (Efraimidis & Spirakis, 2006).
    If fewer positive weights than the batch holds remain, the rest of the
    batch is uniform over the zero-weight problems and the
    ``uniform_fallbacks`` counter increments once that batch is held.
    """

    strategy = "prioritized"

    def __init__(self, config, bank, rng: np.random.Generator):
        super().__init__(config, bank, rng)
        self.uniform_fallbacks = 0
        self._falls_back = False

    def _choose(self) -> np.ndarray:
        # Efraimidis-Spirakis: the smallest keys E / w, E ~ Exp(1), are a
        # sequential weighted draw without replacement.  A zero weight keys
        # +inf and ranks after every positive one; E breaks the remaining
        # ties at random.  A positive weight is at least 2**-53, so every
        # such key is finite.
        last = self._last_pass_rate
        weights = np.where(np.isnan(last), 1.0, 1.0 - last)
        draws = self._rng.standard_exponential(len(self.bank))
        zero = weights == 0.0
        keys = np.divide(draws, weights, out=np.full(len(draws), np.inf), where=~zero)
        # Counted by _hold: a batch refused for its rollout counts is not held.
        self._falls_back = len(draws) - np.count_nonzero(zero) < self.batch_size
        return smallest_by(np.arange(len(draws)), self.batch_size, keys, draws)

    def _hold(self, indices: np.ndarray) -> None:
        super()._hold(indices)
        if self._falls_back:
            self.uniform_fallbacks += 1

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
    those with pass rate exactly 0 or 1 are discarded.  A round draws one
    batch's worth.  A round stops at the candidate that fills the batch, and
    drawing once ``RETRY_CAP`` rounds are spent.  A capped batch is padded
    with the most recently filtered candidates so batch size is preserved.
    """

    strategy = "dynamic"

    def select_batch(self) -> list[str]:
        raise ConsistencyError(
            "dynamic sampling rolls candidates out while it selects; call select_and_roll"
        )

    def select_and_roll(self, roll_round) -> tuple[np.ndarray, np.ndarray, int]:
        """Build a batch of problems whose rollout groups are interior.

        A group of ``group_size`` rollouts is interior when it passes more
        than 0 and fewer than ``group_size`` times.  Each round draws its
        candidates uniformly from the problems not yet tried this step and
        calls ``roll_round(indices)`` with their bank indices, in draw order;
        it returns one pass count per candidate.  The round stops at the
        candidate that fills the batch: the counts after it are neither kept
        nor counted as consumed.  Returns the batch as the read-only bank
        indices ``pending`` holds, its int64 pass counts and the number of
        groups counted (the rollout budget the batch consumed).  The batch is
        pending until its outcomes are reported.

        Raises:
            ConsistencyError: ``roll_round`` did not return one integer count
                in [0, ``group_size``] per candidate; no batch is left pending,
                but the sampler's generator has moved on, so discard it.
            RolloutBudgetError: retry cap spent with nothing keepable at all.
        """
        batch_size, group_size = self.batch_size, self.group_size
        untried = np.ones(len(self.bank), dtype=bool)
        rolled: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        n_kept = 0
        rounds = 0
        while n_kept < batch_size and rounds < RETRY_CAP:
            pool = np.flatnonzero(untried)
            if not pool.size:
                break
            rounds += 1
            draw = self._rng.choice(pool.size, size=min(batch_size, pool.size), replace=False)
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
        return self._pending, group_counts[batch], int(group_counts.size)
