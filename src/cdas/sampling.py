"""The shared sampler contract and the competence-difficulty alignment sampler.

Every strategy is a ``Sampler`` built on a fixed ``ProblemBank``: it hands out
one batch of ids at a time and accepts outcomes only for the batch it handed
out.  A checkpoint holds only what changes while a run goes on; the rest is
rebuilt by constructing the sampler again from its config and bank.

Alignment selection runs in two phases.  A warm-up phase walks a fixed random
permutation of the bank in batch-size chunks so every problem collects at
least one observation (the final chunk wraps around).  After warm-up each
batch is chosen by alignment |competence - difficulty|: in symmetric mode the
batch takes the best-aligned half from the problems estimated harder than the
current competence and the best-aligned half from the rest, falling back to
the other group when one side runs short; with symmetry off it simply takes
the globally best-aligned problems.  Ties break on ascending problem id.

Outcome reporting is batched: every outcome in a batch is scored against the
pre-batch competence, then competence is recomputed once over the whole bank,
including problems whose estimates are stale.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CompetenceState, ProblemRecord, sigmoid, update_competence
from .errors import ConfigError, ConsistencyError
from .learner import ProblemBank


class Sampler:
    """Select/report contract shared by every strategy.

    A sampler is a single logical actor: interleave ``select_batch`` and
    ``report_outcomes``, one batch at a time.  Subclasses set ``strategy``,
    choose batches in ``_choose``, fold validated outcomes in ``_fold`` and
    name their own mutable state in ``_state``/``_load_state``.
    """

    strategy: str
    competence_value: float | None = None
    # The keys of ``state_dict``; subclasses add the ones ``_state`` returns.
    state_fields: tuple[str, ...] = ("strategy", "step", "pending", "rng")

    def __init__(self, bank: ProblemBank, rng: np.random.Generator):
        self.bank = bank
        self._rng = rng
        self._step = 0
        self._pending: list[str] | None = None

    @classmethod
    def from_config(cls, config, bank: ProblemBank, rng: np.random.Generator) -> "Sampler":
        """Build this strategy with the parameters ``config`` sets for it."""
        return cls(bank, rng=rng)

    @property
    def step(self) -> int:
        return self._step

    # -- selection --------------------------------------------------------

    def _check_batch_size(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {batch_size}")
        if batch_size > len(self.bank):
            raise ConfigError(
                f"batch_size: must not exceed bank size ({batch_size} > {len(self.bank)})"
            )

    def select_batch(self, batch_size: int) -> list[str]:
        """Pick the next batch of problem ids; it stays pending until reported."""
        self._check_batch_size(batch_size)
        batch = self._choose(batch_size)
        self._pending = list(batch)
        return batch

    def _choose(self, batch_size: int) -> list[str]:
        raise NotImplementedError

    # -- outcome reporting -------------------------------------------------

    def report_outcomes(self, outcomes) -> None:
        """Fold observations for the pending batch in and advance the step.

        Raises ConsistencyError, leaving the sampler untouched, when no batch
        is pending or an outcome names an unknown problem, a problem outside
        the pending batch, or a problem already reported in this call.
        """
        outcomes = list(outcomes)
        if self._pending is None:
            raise ConsistencyError("report_outcomes called with no batch outstanding")
        pending = set(self._pending)
        seen: set[str] = set()
        for obs in outcomes:
            if obs.problem_id not in self.bank.index:
                raise ConsistencyError(f"unknown problem id {obs.problem_id}")
            if obs.problem_id not in pending:
                raise ConsistencyError(
                    f"problem {obs.problem_id} was not in the most recent batch"
                )
            if obs.problem_id in seen:
                raise ConsistencyError(f"duplicate outcome for problem {obs.problem_id}")
            seen.add(obs.problem_id)
        self._fold(outcomes)
        self._step += 1
        self._pending = None

    def _fold(self, outcomes: list) -> None:
        raise NotImplementedError

    # -- serialization ------------------------------------------------------

    def state_dict(self) -> dict:
        """The state a run changes; the constructor rebuilds everything else."""
        return {
            "strategy": self.strategy,
            "step": self._step,
            "pending": list(self._pending) if self._pending is not None else None,
            "rng": self._rng.bit_generator.state,
            **self._state(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore ``state_dict`` output into a sampler built on the same bank.

        Raises:
            ConfigError: the payload belongs to another strategy or does not
                fit this sampler's bank; the sampler is left untouched.
        """
        if payload.get("strategy") != self.strategy:
            raise ConfigError(
                f"sampler state: strategy {payload.get('strategy')!r} cannot restore "
                f"into a {self.strategy!r} sampler"
            )
        pending = payload["pending"]
        if pending is not None:
            self._check_known(pending, "pending batch")
        self._load_state(payload)
        self._step = payload["step"]
        self._pending = list(pending) if pending is not None else None
        self._rng.bit_generator.state = payload["rng"]

    def _check_known(self, problem_ids, what: str) -> None:
        unknown = [pid for pid in problem_ids if pid not in self.bank.index]
        if unknown:
            raise ConfigError(
                f"sampler state: {what} names {len(unknown)} problem(s) outside the "
                f"bank, first {unknown[0]!r}"
            )

    def _state(self) -> dict:
        return {}

    def _load_state(self, payload: dict) -> None:
        pass


class CdasSampler(Sampler):
    """Stateful scheduler over a fixed problem bank.

    ``batch_size`` fixes the warm-up schedule: warm-up lasts
    ceil(N / batch_size) steps so the permutation covers the bank.  Selection
    consumes no randomness.

    The per-problem estimates live in bank-order arrays: visit counts ``t``,
    all 0 at the start, and difficulty estimates ``D``, all
    ``initial_difficulty``.  ``records`` and ``record()`` build
    ``ProblemRecord`` views of them on demand.
    """

    strategy = "cdas"
    state_fields = (*Sampler.state_fields, "competence", "t", "difficulty")

    def __init__(
        self,
        bank: ProblemBank,
        batch_size: int,
        rng: np.random.Generator,
        symmetric: bool = True,
        warmup: bool = True,
        initial_competence: float = 0.0,
        initial_difficulty: float = 0.0,
    ):
        super().__init__(bank, rng)
        self.symmetric = bool(symmetric)
        self.batch_size = int(batch_size)
        self._check_batch_size(self.batch_size)
        if not math.isfinite(initial_difficulty):
            raise ConfigError(f"initial_difficulty: must be finite, got {initial_difficulty}")
        n = len(bank)
        self._t = np.zeros(n, dtype=np.int64)
        self._D = np.full(n, initial_difficulty, dtype=np.float64)
        # Each id's position in ascending id order: the alignment tie-break.
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[sorted(range(n), key=bank.ids.__getitem__)] = np.arange(n)
        self._warmup_order = rng.permutation(n)
        self.warmup_steps = math.ceil(n / self.batch_size) if warmup else 0
        # CompetenceState refuses a non-finite start.
        self._competence = CompetenceState(competence=initial_competence).competence

    @classmethod
    def from_config(cls, config, bank: ProblemBank, rng: np.random.Generator) -> "CdasSampler":
        return cls(
            bank,
            batch_size=config.batch_size,
            rng=rng,
            symmetric=config.symmetric,
            warmup=config.warmup,
            initial_competence=config.initial_competence,
            initial_difficulty=config.initial_difficulty,
        )

    @property
    def competence_value(self) -> float:
        return self._competence

    @property
    def competence_state(self) -> CompetenceState:
        return CompetenceState(competence=self._competence, step=self._step)

    def in_warmup(self) -> bool:
        return self._step < self.warmup_steps

    @property
    def warmup_order(self) -> tuple[str, ...]:
        """The permutation of problem ids the warm-up batches walk."""
        return tuple(self.bank.ids[i] for i in self._warmup_order.tolist())

    # -- read-only views -------------------------------------------------

    def _views(self, counts, estimates) -> list[ProblemRecord]:
        bank = self.bank
        return [
            ProblemRecord(id=pid, level_tag=tag, true_difficulty=latent, t=t, difficulty=d)
            for pid, tag, latent, t, d in zip(
                bank.ids, bank.level_tags, bank.latent.tolist(), counts, estimates
            )
        ]

    @property
    def records(self) -> dict[str, ProblemRecord]:
        return {r.id: r for r in self._views(self._t.tolist(), self._D.tolist())}

    def record(self, problem_id: str) -> ProblemRecord:
        i = self.bank.index[problem_id]
        return ProblemRecord(
            id=problem_id,
            level_tag=self.bank.level_tags[i],
            true_difficulty=self.bank.latent[i].item(),
            t=self._t[i].item(),
            difficulty=self._D[i].item(),
        )

    def difficulties(self, problem_ids) -> list[float]:
        """Current difficulty estimates of ``problem_ids``, in the order given."""
        return self._D[[self.bank.index[pid] for pid in problem_ids]].tolist()

    # -- selection --------------------------------------------------------

    def _check_batch_size(self, batch_size: int) -> None:
        super()._check_batch_size(batch_size)
        if self.symmetric and batch_size % 2 != 0:
            raise ConfigError(
                f"batch_size: symmetric mode needs an even batch, got {batch_size}"
            )

    def _choose(self, batch_size: int) -> list[str]:
        ids = self.bank.ids
        if self.in_warmup():
            offsets = self._step * batch_size + np.arange(batch_size)
            return [ids[i] for i in self._warmup_order[offsets % len(ids)].tolist()]
        gap = np.abs(self._competence - self._D)
        if self.symmetric:
            chosen = self._select_symmetric(batch_size, gap)
        else:
            chosen = self._best_aligned(np.arange(len(ids)), gap, batch_size)
        return [ids[i] for i in chosen.tolist()]

    def _select_symmetric(self, batch_size: int, gap: np.ndarray) -> np.ndarray:
        harder_mask = self._D > self._competence
        easier = np.flatnonzero(~harder_mask)
        harder = np.flatnonzero(harder_mask)
        half = batch_size // 2
        take_easier = min(half, len(easier))
        take_harder = min(half, len(harder))
        # One group short: backfill with the other group's next best-aligned.
        if take_easier < half:
            take_harder = min(batch_size - take_easier, len(harder))
        elif take_harder < half:
            take_easier = min(batch_size - take_harder, len(easier))
        return np.concatenate(
            [
                self._best_aligned(easier, gap, take_easier),
                self._best_aligned(harder, gap, take_harder),
            ]
        )

    def _best_aligned(self, candidates: np.ndarray, gap: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` candidates smallest by (gap, id), in that order."""
        if k == 0:
            return candidates[:0]
        side_gap = gap[candidates]
        if k < len(candidates):
            # Keep every candidate tied with the k-th gap so the id tie-break
            # decides among them.
            kth = np.partition(side_gap, k - 1)[k - 1]
            keep = side_gap <= kth
            candidates, side_gap = candidates[keep], side_gap[keep]
        order = np.lexsort((self._rank[candidates], side_gap))
        return candidates[order[:k]]

    # -- outcome reporting -------------------------------------------------

    def _fold(self, outcomes: list) -> None:
        # Every observation is scored against the competence from before this
        # batch, so outcome order within the batch cannot matter.  Competence
        # is then recomputed once over all problems.  The arithmetic matches
        # core.instantaneous_difficulty and core.update_difficulty bit for
        # bit; the sigmoid stays scalar because np.exp rounds differently
        # from math.exp.
        index = np.array([self.bank.index[obs.problem_id] for obs in outcomes], dtype=np.intp)
        rates = np.array([obs.pass_rate for obs in outcomes], dtype=np.float64)
        previous = self._D[index]
        expected = [sigmoid(z) for z in (self._competence - previous).tolist()]
        d_new = np.array(expected, dtype=np.float64) - rates
        counts = self._t[index] + 1
        self._D[index] = (self._t[index] / counts) * previous + d_new / counts
        self._t[index] = counts
        self._competence = _competence(self._D)

    # -- serialization ------------------------------------------------------

    def _state(self) -> dict:
        return {
            "competence": self._competence,
            "t": self._t.tolist(),
            "difficulty": self._D.tolist(),
        }

    def _load_state(self, payload: dict) -> None:
        counts, estimates = payload["t"], payload["difficulty"]
        if not len(counts) == len(estimates) == len(self.bank):
            raise ConfigError(
                f"sampler state: {len(counts)} counts and {len(estimates)} difficulty "
                f"estimates for a bank of {len(self.bank)} problems"
            )
        try:
            views = self._views(counts, estimates)
        except ValueError as err:  # a negative count or a non-finite estimate
            raise ConfigError(f"sampler state: {err}") from err
        competence = payload["competence"]
        if payload["step"] > 0 and competence != update_competence(views):
            raise ConfigError(
                f"sampler state: competence {competence!r} is not the one its "
                f"difficulty estimates give"
            )
        self._t = np.array(counts, dtype=np.int64)
        self._D = np.array(estimates, dtype=np.float64)
        self._competence = competence


def _competence(difficulty: np.ndarray) -> float:
    """``core.update_competence`` over an estimate array, bit for bit.

    ``np.cumsum`` adds left to right like the scalar loop; ``np.sum`` pairs
    terms and rounds differently.  Adding 0.0 turns the -0.0 a bank of
    negative zeros sums to into the 0.0 the loop, which starts at 0.0, gives.
    """
    total = float(np.cumsum(difficulty)[-1]) + 0.0
    return -(total / difficulty.size)
