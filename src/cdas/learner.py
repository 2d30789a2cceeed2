"""Synthetic learner and problem bank for closed-loop scheduling experiments.

The learner follows a one-parameter item-response model: its chance of
solving a problem with latent difficulty b is sigmoid(a * (ability - b)).
Ability only ever moves up, by the configured rate times the fraction of the
batch that produced a usable gradient signal.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .core import LEVEL_TAGS, sigmoid, sigmoid_array
from .errors import ConfigError
from .files import read_json, replacing
from .grpo import RolloutGroup

BANK_FORMAT_VERSION = 1

# Rows formatted and joined at a time when the bank is written out as text.
BLOCK_ROWS = 8192

# Characters a problem id may not hold: cells are written unquoted, and
# batches.csv joins a batch's ids with ";".
_ID_FORBIDDEN = ',;"\r\n'


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

    def success_probability(self, latent: float) -> float:
        return sigmoid(self.discrimination * (self.ability - latent))

    def rollout_group(self, problem_id: str, latent: float) -> RolloutGroup:
        """Draw one group of Bernoulli rollouts against a problem of difficulty ``latent``."""
        p = self.success_probability(latent)
        draws = self._rng.random(self.rollouts) < p
        return RolloutGroup(
            problem_id=problem_id,
            rewards=tuple(1.0 if hit else 0.0 for hit in draws),
        )

    def pass_counts(self, latents) -> list[int]:
        """Roll out a group per latent difficulty; return each group's number of passes.

        ``latents`` is an array (or sequence) of latent difficulties.  One
        ``random((B, G))`` draw yields the same bits, and leaves the generator
        in the same state, as B calls of ``rollout_group``.
        """
        latents = np.asarray(latents, dtype=np.float64)
        probabilities = sigmoid_array(self.discrimination * (self.ability - latents))
        draws = self._rng.random((len(probabilities), self.rollouts))
        return (draws < probabilities[:, None]).sum(axis=1).tolist()

    def learn_step(self, zero_gradient) -> None:
        """Raise ability by learn_rate times the batch's useful-gradient fraction.

        ``zero_gradient`` holds one flag per batch problem, true where its
        group had no gradient signal.  Ability never decreases.
        """
        flags = list(zero_gradient)
        if not flags:
            raise ValueError("learn_step requires a non-empty batch")
        useful = sum(not flag for flag in flags)
        self.ability += self.learn_rate * (useful / len(flags))

    def state_dict(self) -> dict:
        """The state a run changes; the constructor rebuilds the parameters."""
        return {"ability": self.ability, "rng": self._rng.bit_generator.state}

    def load_state_dict(self, payload: dict) -> None:
        """Restore ``state_dict`` output.

        Raises:
            ConfigError: the ability is not a finite number, or the rng state
                does not fit this learner's bit generator; the learner is left
                untouched.
        """
        ability = payload["ability"]
        # By exact type: bool is an int subclass, and float() would parse a
        # string.  The bound refuses NaN, infinities and ints too large for a float.
        if type(ability) not in (int, float) or not abs(ability) <= sys.float_info.max:
            raise ConfigError(f"learner state: ability must be a finite number, got {ability!r}")
        check_rng_state(self._rng, payload["rng"], "learner state")
        self.ability = float(ability)
        self._rng.bit_generator.state = payload["rng"]


def check_rng_state(generator: np.random.Generator, state, what: str) -> None:
    """Refuse, with ConfigError, a ``state`` that ``generator`` would not restore as given.

    The state is tried on a scratch bit generator of the same kind, so
    ``generator`` is left alone either way.
    """
    scratch = type(generator.bit_generator)(0)
    try:
        scratch.state = state
        restored = scratch.state == state
    except (TypeError, ValueError, KeyError, OverflowError):
        restored = False
    if not restored:
        raise ConfigError(f"{what}: rng must be a {type(scratch).__name__} bit generator state")


class ProblemBank:
    """The fixed problem set, held as columns in bank order.

    ``ids`` names each problem, ``level_tags`` holds its level (an int in
    1..5, or None when untagged) and ``latent`` its hidden latent difficulty,
    which only the learner reads.  ``index`` maps each id to its position.  An
    id is a non-empty str with no comma, semicolon, double quote or line
    break, so it can stand unquoted in every output file.  Nothing here
    changes during a run; scheduler state lives in the samplers.
    """

    def __init__(self, ids, level_tags, latent, mode: str = "normal"):
        self.ids = tuple(ids)
        self.level_tags = tuple(level_tags)
        self.latent = np.array(latent, dtype=np.float64)
        self.latent.flags.writeable = False
        self.mode = mode
        if not self.ids:
            raise ConfigError("n_problems: a bank needs at least one problem")
        if not len(self.level_tags) == len(self.latent) == len(self.ids):
            raise ConfigError(
                f"bank columns disagree: {len(self.ids)} ids, {len(self.level_tags)} "
                f"level tags, {len(self.latent)} latent difficulties"
            )
        # Whole-column checks first; the slow search only names the culprit.
        if (
            set(map(type, self.ids)) != {str}
            or not all(self.ids)
            or any(char in "".join(self.ids) for char in _ID_FORBIDDEN)
        ):
            bad = next(pid for pid in self.ids if not _plain_id(pid))
            raise ConfigError(
                f"problem id: must be a non-empty str without a comma, semicolon, "
                f"double quote or line break, got {bad!r}"
            )
        self.index = dict(zip(self.ids, range(len(self.ids))))
        if len(self.index) < len(self.ids):
            duplicate = next(pid for i, pid in enumerate(self.ids) if self.index[pid] != i)
            raise ConfigError(f"duplicate problem id {duplicate} in bank")
        tag_types = set(map(type, self.level_tags))
        if not tag_types <= {int, type(None)} or not set(self.level_tags) <= {None, *LEVEL_TAGS}:
            bad = next(tag for tag in self.level_tags if not _plain_tag(tag))
            raise ConfigError(f"level_tag: must be in 1..5 or None, got {bad!r}")
        missing = np.flatnonzero(~np.isfinite(self.latent))
        if missing.size:
            raise ConfigError(
                f"bank problem {self.ids[missing[0]]} has no finite latent difficulty"
            )
        self._hash: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def text_blocks(self, untagged: str, *columns) -> Iterator[str]:
        """The bank as comma-separated text, ``BLOCK_ROWS`` rows per block.

        Row i is ``id,tag,repr(latent)`` and then one cell from each of
        ``columns``, ended by a newline.  A tag is written as its digit and a
        missing one as ``untagged``.  Each column is a function ``(start,
        stop)`` giving the cells of rows ``start`` to ``stop - 1`` as strings.
        Cells are not quoted, so none may hold a comma, a double quote or a
        line break; the bank refuses such ids.
        """
        tag_text = {None: untagged, **{tag: str(tag) for tag in LEVEL_TAGS}}.__getitem__
        n = len(self.ids)
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            cells = [
                self.ids[start:stop],
                map(tag_text, self.level_tags[start:stop]),
                map(repr, self.latent[start:stop].tolist()),
                *(column(start, stop) for column in columns),
            ]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    def content_hash(self) -> str:
        """Digest of ids, level tags and latent difficulties, one line per problem.

        The lines are ``f"{id},{tag},{latent!r}\\n"`` in bank order, fed to the
        digest a block at a time.  The bank never changes, so the digest is
        computed on first use and kept.
        """
        if self._hash is None:
            digest = hashlib.sha256()
            for block in self.text_blocks("None"):
                digest.update(block.encode())
            self._hash = digest.hexdigest()
        return self._hash


def _plain_id(pid) -> bool:
    return type(pid) is str and pid != "" and not any(char in pid for char in _ID_FORBIDDEN)


def _plain_tag(tag) -> bool:
    return tag is None or (type(tag) is int and tag in LEVEL_TAGS)


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
) -> ProblemBank:
    """Draw a problem bank.

    ``normal`` mode draws latent difficulties from N(0, scale^2) and tags each
    problem with its difficulty quintile (1 easiest .. 5 hardest).  ``levels``
    mode draws tags uniformly and maps them to five equally spaced latent
    values in [-level_spread, +level_spread].
    """
    if n < 1:
        raise ConfigError(f"n_problems: must be >= 1, got {n}")
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"bank_scale: must be finite and > 0, got {scale}")
    if not 0.0 < level_spread < math.inf:
        raise ConfigError(f"bank_level_spread: must be finite and > 0, got {level_spread}")
    width = max(5, len(str(n - 1)))
    if mode == "normal":
        latent = rng.normal(0.0, scale, size=n)
        tags = _quintile_tags(latent)
    elif mode == "levels":
        tags = rng.integers(1, 6, size=n)
        latent = (tags - 3) * (level_spread / 2.0)
    else:
        raise ConfigError(f"bank_mode: unknown mode {mode!r}")
    ids = map(f"p%0{width}d".__mod__, range(n))
    return ProblemBank(ids, tags.tolist(), latent, mode=mode)


def default_ability(bank: ProblemBank, percentile: float = 5.0) -> float:
    """Starting ability: a low percentile of the bank's latent difficulties."""
    return float(np.percentile(bank.latent, percentile))


def save_bank(bank: ProblemBank, path: str | Path) -> None:
    payload = {
        "format_version": BANK_FORMAT_VERSION,
        "mode": bank.mode,
        "hash": bank.content_hash(),
        "records": [
            {"id": pid, "level_tag": tag, "true_difficulty": latent}
            for pid, tag, latent in zip(bank.ids, bank.level_tags, bank.latent.tolist())
        ],
    }
    with replacing(path) as tmp:
        tmp.write_text(json.dumps(payload, indent=2) + "\n")


def load_bank(path: str | Path) -> ProblemBank:
    """Read a bank written by ``save_bank``, refusing one whose records are malformed."""
    payload = read_json(path, "bank file")
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != BANK_FORMAT_VERSION:
        raise ConfigError(f"bank file {path}: unsupported format_version {version!r}")
    entries = payload.get("records")
    if not isinstance(entries, list):
        raise ConfigError(f"bank file {path}: 'records' must be a list")
    fields = ("id", "level_tag", "true_difficulty")
    for position, entry in enumerate(entries):
        missing = [name for name in fields if not isinstance(entry, dict) or name not in entry]
        if missing:
            raise ConfigError(f"bank file {path}: record {position} has no {missing[0]!r}")
    try:
        bank = ProblemBank(
            [entry["id"] for entry in entries],
            [entry["level_tag"] for entry in entries],
            [entry["true_difficulty"] for entry in entries],
            mode=payload.get("mode", "normal"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bank file {path}: {err}") from err
    stored = payload.get("hash")
    if stored is not None and stored != bank.content_hash():
        raise ConfigError(f"bank file {path}: content hash mismatch (file edited?)")
    return bank
