"""The shared sampler contract and the competence-difficulty alignment sampler.

Every strategy is a ``Sampler`` built on a fixed ``ProblemBank``: it hands out
one batch at a time and accepts outcomes only for the batch it handed out.
Inside, a batch is an array of bank indices: strategies choose indices, and
the sampler holds the pending batch itself.  ``report`` takes one pass rate
per pending problem, in batch order.  ``select_and_roll`` picks a batch and
rolls it out in one call, the same call for every strategy.  Every sampler is
built as ``cls(config, bank, rng)`` from an ``ExperimentConfig``: the config
alone sets its parameters, its batch size and its rollout group size.  A
sampler's state is a function of its config, its bank, its generator's seed
and the pass counts its rollouts returned, so feeding the same counts to a
fresh sampler rebuilds it bit for bit.  A caller whose rollouts cannot be
drawn again logs the counts and rebuilds its sampler that way; the harness's
learner draws every rollout from a seed, so a harness resume runs the steps
again instead.

Alignment selection runs in two phases.  A warm-up phase walks a fixed random
permutation of the bank in batch-size chunks so every problem collects at
least one observation (the final chunk wraps around).  After warm-up each
batch is chosen by alignment |competence - difficulty|: in symmetric mode the
batch takes the best-aligned half from the problems estimated harder than the
current competence and the best-aligned half from the rest, falling back to
the other group when one side runs short; with symmetry off it simply takes
the globally best-aligned problems.  Ties go to the problem that comes first
in the bank.

Outcome reporting is batched: every outcome in a batch is scored against the
pre-batch competence, then competence is recomputed once over the whole bank,
including problems whose estimates are stale.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ProblemRecord, sigmoid_array
from .errors import ConfigError, ConsistencyError
from .grpo import pass_count_fault
from .learner import ProblemBank


def smallest_by(candidates: np.ndarray, k: int, *keys: np.ndarray) -> np.ndarray:
    """The ``k`` candidates smallest by ``keys``, compared in turn, in that order.

    Each key is a bank-order array.  Ties on every key go to the candidate
    that comes first.  Only the first key is partitioned on: every candidate
    tied with its k-th smallest value is kept so the later keys decide among
    them, and only those are sorted.
    """
    primary = keys[0][candidates]
    if k < len(candidates):
        keep = primary <= np.partition(primary, k - 1)[k - 1]
        candidates, primary = candidates[keep], primary[keep]
    order = np.lexsort([key[candidates] for key in reversed(keys[1:])] + [primary])
    return candidates[order[:k]]


def checked_counts(roll_round, indices: np.ndarray, group_size: int) -> np.ndarray:
    """``roll_round(indices)`` as int64 counts, one integer in [0, ``group_size``] per index.

    Raises ConsistencyError unless there is one count per index and
    ``pass_count_fault`` finds no fault in them.
    """
    returned = roll_round(indices)
    counts = np.asarray(returned)
    if counts.ndim != 1 or counts.size != indices.size:
        raise ConsistencyError(
            f"roll_round returned {counts.size} pass counts for {indices.size} problems"
        )
    fault = pass_count_fault(returned, group_size)
    if fault:
        raise ConsistencyError(f"roll_round returned {fault}")
    return counts.astype(np.int64, copy=False)


class Sampler:
    """Select/report contract shared by every strategy.

    A sampler is a single logical actor: interleave ``select_batch`` (or
    ``select_and_roll``) and ``report``, one batch at a time.  Every batch
    holds ``config.batch_size`` problems, and each gets a group of
    ``config.rollouts`` rollouts.  The constructor refuses a batch larger
    than the bank.
    Subclasses set ``strategy``, read their own fields from the config,
    choose the bank indices of a batch in ``_choose`` and fold validated
    outcomes into their own state in ``_fold``.  Every sampler keeps the
    pass rate each problem last reported, in bank order.  A sampler built
    again from the same config, bank and seed and given the same pass
    counts makes the same batches and ends in the same state, so a log of
    the counts is all a caller needs to rebuild it.
    """

    strategy: str
    competence_value: float | None = None

    def __init__(self, config, bank: ProblemBank, rng: np.random.Generator):
        if config.batch_size > len(bank):
            raise ConfigError(
                f"batch_size: must not exceed bank size ({config.batch_size} > {len(bank)})"
            )
        self.bank = bank
        self.batch_size = config.batch_size
        self.group_size = config.rollouts
        self._rng = rng
        self._step = 0
        self._pending: np.ndarray | None = None
        self._last_pass_rate = np.full(len(bank), np.nan)

    @property
    def step(self) -> int:
        return self._step

    @property
    def pending(self) -> np.ndarray | None:
        """Read-only bank indices of the batch awaiting outcomes, in batch order."""
        return self._pending

    @property
    def last_pass_rates(self) -> np.ndarray:
        """Read-only last reported pass rate of each problem, in bank order; NaN if none."""
        return _read_only(self._last_pass_rate)

    # -- selection --------------------------------------------------------

    def select_batch(self) -> list[str]:
        """Pick the next batch of problem ids; it stays pending until reported."""
        self._hold(self._choose())
        ids = self.bank.ids
        return [ids[i] for i in self._pending.tolist()]

    def select_and_roll(self, roll_round) -> tuple[np.ndarray, np.ndarray, int]:
        """Pick the next batch and roll it out with one ``roll_round(indices)``.

        ``roll_round`` gets the batch's bank indices and returns one pass
        count per problem, each out of ``group_size`` rollouts.  Returns the
        batch as the read-only bank indices ``pending`` holds, its int64 pass
        counts and the rollout groups consumed, one per problem.  The batch
        is pending until its outcomes are reported.

        Raises:
            ConsistencyError: ``roll_round`` did not return one integer count
                in [0, ``group_size``] per batch problem; no batch is left
                pending and no counter moves, but choosing the batch may
                have advanced the sampler's generator, so discard the sampler
                rather than retry with it.
        """
        indices = self._choose()
        counts = checked_counts(roll_round, indices, self.group_size)
        self._hold(indices)
        return indices, counts, self.batch_size

    def _choose(self) -> np.ndarray:
        raise NotImplementedError

    def _hold(self, indices: np.ndarray) -> None:
        """Make ``indices`` the pending batch."""
        indices.flags.writeable = False
        self._pending = indices

    # -- outcome reporting -------------------------------------------------

    def report(self, pass_rates) -> None:
        """Fold in one pass rate per pending problem, in batch order, and advance the step.

        Raises ConsistencyError when no batch is pending, and ValueError
        unless there is exactly one rate per pending problem, each a number
        in [0, 1] (a bool, str or bytes is not one); a bad rate is named by
        its problem.  A refusal leaves the sampler untouched.
        """
        if self._pending is None:
            raise ConsistencyError("report called with no batch outstanding")
        indices = self._pending
        rates = np.asarray(pass_rates)
        if rates.shape != indices.shape:
            raise ValueError(
                f"report needs one pass rate per pending problem ({indices.size}), "
                f"got shape {rates.shape}"
            )
        # By exact type: numpy reads True as 1.0 and "0.5" as 0.5.
        if rates is not pass_rates or rates.dtype.kind not in "fiu":
            for k, rate in enumerate(pass_rates):
                if isinstance(rate, (bool, np.bool_, str, bytes)):
                    name = self.bank.ids[indices[k]]
                    raise ValueError(f"pass_rate must be a number, got {rate!r} for {name}")
        rates = np.asarray(pass_rates, dtype=np.float64)
        bad_rate = ~((rates >= 0.0) & (rates <= 1.0))
        if bad_rate.any():
            k = int(np.argmax(bad_rate))
            name = self.bank.ids[indices[k]]
            raise ValueError(f"pass_rate must be in [0, 1], got {rates[k]} for {name}")
        self._fold(indices, rates)
        self._last_pass_rate[indices] = rates
        self._step += 1
        self._pending = None

    def _fold(self, indices: np.ndarray, rates: np.ndarray) -> None:
        """Fold a checked report into the strategy's own state; most keep none."""

    def state_arrays(self) -> dict:
        """Each per-problem column ``problems.csv`` writes, as a read-only bank-order array.

        The arrays are views of the sampler's own, so a later report changes
        what they show.
        """
        return {"last_pass_rate": self.last_pass_rates}


class CdasSampler(Sampler):
    """Stateful scheduler over a fixed problem bank.

    The batch size fixes the warm-up schedule: with ``config.warmup`` on,
    warm-up lasts ceil(N / batch_size) steps so the permutation covers the
    bank.  In symmetric mode the batch must be even.  Selection consumes no
    randomness.

    The per-problem estimates live in bank-order arrays: visit counts ``t``
    and difficulty estimates ``D``, all 0 at the start.  ``estimates`` is a
    read-only view of ``D``; ``records`` builds an id-keyed view of them on
    demand.  Competence is 0.0 until the first report and the negated mean
    estimate after it, so the state holds no copy of it.
    """

    strategy = "cdas"

    def __init__(self, config, bank: ProblemBank, rng: np.random.Generator):
        super().__init__(config, bank, rng)
        self.symmetric = config.symmetric
        # A rule of this sampler, not of the config: any strategy's config may hold an odd batch.
        if self.symmetric and self.batch_size % 2 != 0:
            raise ConfigError(
                f"batch_size: symmetric mode needs an even batch, got {self.batch_size}"
            )
        self._competence = 0.0
        n = len(bank)
        self._t = np.zeros(n, dtype=np.int64)
        self._D = np.zeros(n, dtype=np.float64)
        self._warmup_walk = rng.permutation(n)
        self.warmup_steps = math.ceil(n / self.batch_size) if config.warmup else 0

    @property
    def competence_value(self) -> float:
        return self._competence

    def in_warmup(self) -> bool:
        return self._step < self.warmup_steps

    # -- read-only views -------------------------------------------------

    @property
    def estimates(self) -> np.ndarray:
        """The difficulty estimates in bank order, as a read-only view."""
        return _read_only(self._D)

    @property
    def records(self) -> dict[str, ProblemRecord]:
        return {
            pid: ProblemRecord(id=pid, t=t, difficulty=d)
            for pid, t, d in zip(self.bank.ids, self._t.tolist(), self._D.tolist())
        }

    # -- selection --------------------------------------------------------

    def _choose(self) -> np.ndarray:
        n, batch_size = len(self.bank), self.batch_size
        if self.in_warmup():
            offsets = self._step * batch_size + np.arange(batch_size)
            return self._warmup_walk[offsets % n]
        gap = np.abs(self._competence - self._D)
        if self.symmetric:
            return self._select_symmetric(batch_size, gap)
        return smallest_by(np.arange(n), batch_size, gap)

    def _select_symmetric(self, batch_size: int, gap: np.ndarray) -> np.ndarray:
        harder_mask = self._D > self._competence
        easier = np.flatnonzero(~harder_mask)
        harder = np.flatnonzero(harder_mask)
        # Half from each side, a short side backfilled by the other's next best-aligned.
        half = batch_size // 2
        take_easier = min(len(easier), max(half, batch_size - len(harder)))
        take_harder = batch_size - take_easier
        return np.concatenate(
            [
                smallest_by(easier, take_easier, gap),
                smallest_by(harder, take_harder, gap),
            ]
        )

    # -- outcome reporting -------------------------------------------------

    def _fold(self, indices: np.ndarray, rates: np.ndarray) -> None:
        # Every observation is scored against the competence from before this
        # batch, so outcome order within the batch cannot matter.  Competence
        # is then recomputed once over all problems.  The arithmetic matches
        # core.instantaneous_difficulty and core.update_difficulty bit for bit.
        previous = self._D[indices]
        d_new = sigmoid_array(self._competence - previous) - rates
        counts = self._t[indices] + 1
        self._D[indices] = (self._t[indices] / counts) * previous + d_new / counts
        self._t[indices] = counts
        self._competence = _competence(self._D)

    def state_arrays(self) -> dict:
        return {**super().state_arrays(), "t": _read_only(self._t), "difficulty": self.estimates}


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _competence(difficulty: np.ndarray) -> float:
    """``core.update_competence`` over an estimate array, bit for bit.

    ``np.cumsum`` adds left to right like the scalar loop; ``np.sum`` pairs
    terms and rounds differently.  Adding 0.0 turns the -0.0 a bank of
    negative zeros sums to into the 0.0 the loop, which starts at 0.0, gives.
    """
    total = float(np.cumsum(difficulty)[-1]) + 0.0
    return -(total / difficulty.size)
