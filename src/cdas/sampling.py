"""The shared sampler contract and the competence-difficulty alignment sampler.

Every strategy is a ``Sampler`` built on a fixed ``ProblemBank``: it hands out
one batch at a time and accepts outcomes only for the batch it handed out.
Inside, a batch is an array of bank indices: strategies choose indices, and
the sampler holds the pending batch itself.  ``report`` takes one pass rate
per pending problem, in batch order.  ``select_and_roll`` picks a batch and
rolls it out in one call, the same call for every strategy.  Every sampler is
built as ``cls(config, bank, rng)`` from an ``ExperimentConfig``: the config
alone sets its parameters, its batch size and its rollout group size.  A
checkpoint holds only what changes while a run goes on, and never a batch in
flight; the rest is rebuilt by constructing the sampler again from its config
and bank.

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
from .files import decode_array, encode_array, require
from .grpo import pass_count_fault
from .learner import ProblemBank, check_rng_state

# The byte layout ``state_dict`` stores each per-problem column in.
COLUMN_TYPES = {"last_pass_rate": "<f8", "t": "<i8", "difficulty": "<f8"}


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


def rolled_counts(roll_round, indices: np.ndarray, group_size: int) -> np.ndarray:
    """``roll_round(indices)`` as int64 counts, one integer in [0, ``group_size``] per index.

    Raises ConsistencyError unless there is one count per index and
    ``pass_count_fault`` finds no fault in them.
    """
    counts = np.asarray(roll_round(indices))
    if counts.ndim != 1 or counts.size != indices.size:
        raise ConsistencyError(
            f"roll_round returned {counts.size} pass counts for {indices.size} problems"
        )
    fault = pass_count_fault(counts, group_size)
    if fault:
        raise ConsistencyError(f"roll_round returned {fault}")
    return counts.astype(np.int64, copy=False)


class Sampler:
    """Select/report contract shared by every strategy.

    A sampler is a single logical actor: interleave ``select_batch`` (or
    ``select_and_roll``) and ``report``, one batch at a time; ``state_dict``
    is taken between the two, never while a batch is pending.  Every batch
    holds ``config.batch_size`` problems, and each is rolled out
    ``config.rollouts`` times.  The constructor refuses a batch larger
    than the bank.
    Subclasses set ``strategy``, read their own fields from the config,
    choose the bank indices of a batch in ``_choose``, fold validated
    outcomes into their own state in ``_fold``
    and name that state in ``_state``/``_load_state``, giving per-problem
    state as bank-order arrays.  Every sampler keeps the pass rate each
    problem last reported, in bank order.
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
        counts = rolled_counts(roll_round, indices, self.group_size)
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
        unless there is exactly one rate per pending problem, each in
        [0, 1]; a bad rate is named by its problem.  A refusal leaves the
        sampler untouched.
        """
        if self._pending is None:
            raise ConsistencyError("report called with no batch outstanding")
        indices = self._pending
        rates = np.asarray(pass_rates, dtype=np.float64)
        if rates.shape != indices.shape:
            raise ValueError(
                f"report needs one pass rate per pending problem ({indices.size}), "
                f"got shape {rates.shape}"
            )
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

    # -- serialization ------------------------------------------------------

    def state_dict(self) -> dict:
        """The state a run changes; the constructor rebuilds everything else.

        Each per-problem column is the ``files.encode_array`` text of its
        little-endian bytes, named in ``COLUMN_TYPES``: NaN stands for a
        problem never reported.  So the dict is JSON-ready, and two compare
        equal with ``==`` when their columns match bit for bit.

        Raises:
            ConsistencyError: a batch is pending; its outcomes are not state
                a checkpoint can hold.
        """
        state = self.state_arrays()
        for key, dtype in COLUMN_TYPES.items():
            if key in state:
                state[key] = encode_array(state[key], dtype)
        return state

    def state_arrays(self) -> dict:
        """``state_dict`` with each per-problem column as a read-only bank-order array.

        The arrays are views of the sampler's own, so a later report or
        restore changes or replaces what they show.
        """
        if self._pending is not None:
            raise ConsistencyError("a batch is pending; report it before saving state")
        return {
            "strategy": self.strategy,
            "step": self._step,
            "rng": self._rng.bit_generator.state,
            "last_pass_rate": self.last_pass_rates,
            **self._state(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore ``state_dict`` output into a sampler built on the same bank.

        Raises:
            ConfigError: the payload is not a dict holding every key
                ``state_dict`` writes, belongs to another strategy, holds a
                column that does not decode to one value per problem of this
                sampler's bank, a step or pass rate that is out of range or
                of the wrong type, or an rng state that does not fit the bit
                generator; the sampler is left untouched.
        """
        keys = ("strategy", "step", "rng", "last_pass_rate", *self._state())
        require(payload, keys, "sampler state")
        if payload["strategy"] != self.strategy:
            raise ConfigError(
                f"sampler state: strategy {payload['strategy']!r} cannot restore "
                f"into a {self.strategy!r} sampler"
            )
        step = payload["step"]
        # By exact type: bool is an int subclass, and a float step would be
        # written back into metrics.csv as a float.
        if type(step) is not int or step < 0:
            raise ConfigError(f"sampler state: step must be an integer >= 0, got {step!r}")
        last_pass_rate = self._load_rates(payload["last_pass_rate"])
        check_rng_state(self._rng, payload["rng"], "sampler state")
        self._load_state(payload)
        self._step = step
        self._last_pass_rate = last_pass_rate
        self._pending = None
        self._rng.bit_generator.state = payload["rng"]

    def _load_rates(self, text) -> np.ndarray:
        """The ``last_pass_rate`` column a checkpointed text holds."""
        rates = self._load_column(text, "last_pass_rate")
        if not ((rates >= 0.0) & (rates <= 1.0) | np.isnan(rates)).all():
            raise ConfigError(
                "sampler state: every last_pass_rate must be NaN or a number in [0, 1]"
            )
        return rates

    def _load_column(self, text, key: str) -> np.ndarray:
        """The per-problem column ``key`` that ``state_dict`` wrote as ``text``."""
        return decode_array(text, COLUMN_TYPES[key], len(self.bank), f"sampler state: {key}")

    def _state(self) -> dict:
        return {}

    def _load_state(self, payload: dict) -> None:
        pass


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

    # -- serialization ------------------------------------------------------

    def _state(self) -> dict:
        return {"t": _read_only(self._t), "difficulty": self.estimates}

    def _load_state(self, payload: dict) -> None:
        t = self._load_column(payload["t"], "t")
        difficulty = self._load_column(payload["difficulty"], "difficulty")
        if (t < 0).any():
            raise ConfigError(f"sampler state: t must be >= 0, got {t.min()}")
        if not np.isfinite(difficulty).all():
            raise ConfigError("sampler state: every difficulty estimate must be finite")
        self._t, self._D = t, difficulty
        self._competence = _competence(difficulty) if payload["step"] > 0 else 0.0


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
