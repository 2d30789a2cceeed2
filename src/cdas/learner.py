"""Synthetic learner and problem bank for closed-loop scheduling experiments.

The learner follows a one-parameter item-response model: its chance of
solving a problem with latent difficulty b is sigmoid(a * (ability - b)).
Ability only ever moves up, by the configured rate times the fraction of the
batch that produced a usable gradient signal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PassRateObservation, ProblemRecord, sigmoid
from .errors import ConfigError
from .grpo import RolloutGroup

BANK_FORMAT_VERSION = 1


class SyntheticLearner:
    def __init__(
        self,
        ability: float,
        rng: np.random.Generator,
        discrimination: float = 1.0,
        learn_rate: float = 0.05,
        rollouts: int = 8,
    ):
        if discrimination <= 0.0:
            raise ConfigError(f"discrimination: must be > 0, got {discrimination}")
        if learn_rate < 0.0:
            raise ConfigError(f"learn_rate: must be >= 0, got {learn_rate}")
        if rollouts < 2:
            raise ConfigError(f"rollouts: must be >= 2, got {rollouts}")
        self.ability = float(ability)
        self.discrimination = float(discrimination)
        self.learn_rate = float(learn_rate)
        self.rollouts = int(rollouts)
        self._rng = rng

    def success_probability(self, problem: ProblemRecord) -> float:
        if problem.true_difficulty is None:
            raise ValueError(f"problem {problem.id} has no true_difficulty to roll out against")
        return sigmoid(self.discrimination * (self.ability - problem.true_difficulty))

    def rollout_group(self, problem: ProblemRecord) -> RolloutGroup:
        """Draw one group of Bernoulli rollouts against the problem."""
        p = self.success_probability(problem)
        draws = self._rng.random(self.rollouts) < p
        return RolloutGroup(
            problem_id=problem.id,
            rewards=tuple(1.0 if hit else 0.0 for hit in draws),
        )

    def pass_counts(self, problems) -> list[int]:
        """Roll out a group per problem; return each group's number of passes.

        One ``random((B, G))`` draw yields the same bits, and leaves the
        generator in the same state, as B calls of ``rollout_group``.
        """
        probabilities = np.array([self.success_probability(p) for p in problems])
        draws = self._rng.random((len(probabilities), self.rollouts))
        return (draws < probabilities[:, None]).sum(axis=1).tolist()

    def rollout(self, problem: ProblemRecord, step: int = 0) -> PassRateObservation:
        group = self.rollout_group(problem)
        return PassRateObservation(problem_id=problem.id, pass_rate=group.pass_rate, step=step)

    def learn_step(self, batch_outcomes) -> None:
        """Raise ability by learn_rate times the batch's useful-gradient fraction.

        ``batch_outcomes`` is a collection of (pass_rate, zero_gradient) pairs;
        only the flags matter here.  Ability never decreases.
        """
        outcomes = list(batch_outcomes)
        if not outcomes:
            raise ValueError("learn_step requires a non-empty batch")
        useful = sum(1 for _, zero_gradient in outcomes if not zero_gradient)
        self.ability += self.learn_rate * (useful / len(outcomes))

    def state_dict(self) -> dict:
        """The state a run changes; the constructor rebuilds the parameters."""
        return {"ability": self.ability, "rng": self._rng.bit_generator.state}

    def load_state_dict(self, payload: dict) -> None:
        self.ability = float(payload["ability"])
        self._rng.bit_generator.state = payload["rng"]


@dataclass(frozen=True)
class ProblemBank:
    """Immutable collection of problems with latent difficulties and level tags."""

    records: tuple[ProblemRecord, ...]
    mode: str = "normal"

    def __post_init__(self):
        lookup = {}
        for record in self.records:
            if record.id in lookup:
                raise ConfigError(f"duplicate problem id {record.id} in bank")
            if record.true_difficulty is None:
                raise ConfigError(f"bank problem {record.id} is missing true_difficulty")
            lookup[record.id] = record
        object.__setattr__(self, "_lookup", lookup)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def ids(self) -> list[str]:
        return [record.id for record in self.records]

    def problem(self, problem_id: str) -> ProblemRecord:
        return self._lookup[problem_id]

    def true_difficulties(self) -> np.ndarray:
        return np.array([record.true_difficulty for record in self.records])

    def content_hash(self) -> str:
        """Digest of ids, level tags and latent difficulties; ignores scheduler state."""
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(
                f"{record.id},{record.level_tag},{record.true_difficulty!r}\n".encode()
            )
        return digest.hexdigest()


def _quintile_tags(values: np.ndarray) -> np.ndarray:
    n = values.size
    tags = np.empty(n, dtype=int)
    tags[np.argsort(values, kind="stable")] = 1 + (np.arange(n) * 5) // n
    return tags


def generate_bank(
    n: int,
    rng: np.random.Generator,
    mode: str = "normal",
    scale: float = 1.0,
    level_spread: float = 2.0,
    initial_difficulty: float = 0.0,
) -> ProblemBank:
    """Draw a problem bank.

    ``normal`` mode draws latent difficulties from N(0, scale^2) and tags each
    problem with its difficulty quintile (1 easiest .. 5 hardest).  ``levels``
    mode draws tags uniformly and maps them to five equally spaced latent
    values in [-level_spread, +level_spread].
    """
    if n < 1:
        raise ConfigError(f"n_problems: must be >= 1, got {n}")
    width = max(5, len(str(n - 1)))
    if mode == "normal":
        if scale <= 0.0:
            raise ConfigError(f"bank_scale: must be > 0, got {scale}")
        latent = rng.normal(0.0, scale, size=n)
        tags = _quintile_tags(latent)
    elif mode == "levels":
        if level_spread <= 0.0:
            raise ConfigError(f"bank_level_spread: must be > 0, got {level_spread}")
        tags = rng.integers(1, 6, size=n)
        latent = (tags - 3) * (level_spread / 2.0)
    else:
        raise ConfigError(f"bank_mode: unknown mode {mode!r}")
    records = tuple(
        ProblemRecord(
            id=f"p{i:0{width}d}",
            level_tag=tag,
            true_difficulty=value,
            t=0,
            difficulty=initial_difficulty,
        )
        for i, (tag, value) in enumerate(zip(tags.tolist(), latent.tolist()))
    )
    return ProblemBank(records=records, mode=mode)


def default_ability(bank: ProblemBank, percentile: float = 5.0) -> float:
    """Starting ability: a low percentile of the bank's latent difficulties."""
    return float(np.percentile(bank.true_difficulties(), percentile))


def save_bank(bank: ProblemBank, path: str | Path) -> None:
    payload = {
        "format_version": BANK_FORMAT_VERSION,
        "mode": bank.mode,
        "hash": bank.content_hash(),
        "records": [
            {
                "id": record.id,
                "level_tag": record.level_tag,
                "true_difficulty": record.true_difficulty,
            }
            for record in bank.records
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_bank(path: str | Path, initial_difficulty: float = 0.0) -> ProblemBank:
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != BANK_FORMAT_VERSION:
        raise ConfigError(f"bank file {path}: unsupported format_version {version!r}")
    records = tuple(
        ProblemRecord(
            id=entry["id"],
            level_tag=entry["level_tag"],
            true_difficulty=entry["true_difficulty"],
            t=0,
            difficulty=initial_difficulty,
        )
        for entry in payload["records"]
    )
    bank = ProblemBank(records=records, mode=payload.get("mode", "normal"))
    stored = payload.get("hash")
    if stored is not None and stored != bank.content_hash():
        raise ConfigError(f"bank file {path}: content hash mismatch (file edited?)")
    return bank
