"""Synthetic learner and problem bank for closed-loop scheduling experiments.

The learner follows a one-parameter item-response model: its chance of
solving a problem with latent difficulty b is sigmoid(a * (ability - b)).
Ability only ever moves up, by the configured rate times the share of the
batch's groups that are mixed: some of their rollouts pass and some fail.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .core import LEVEL_TAGS, MAX_LOGIT, sigmoid, sigmoid_array
from .errors import ConfigError
from .files import read_json, replacing, require
from .grpo import RolloutGroup, pass_count_fault

BANK_FORMAT_VERSION = 2

# Characters a problem id may not hold: cells are written unquoted, and
# batches.csv joins a batch's ids with ";".
_ID_FORBIDDEN = ',;"\r\n'

# The sigmoid is constant beyond MAX_LOGIT, so this cap on the learner's logit
# changes no probability; it keeps a logit that overflowed to ±inf out of it.
_LOGIT_CAP = 2 * MAX_LOGIT


class SyntheticLearner:
    """Built as ``SyntheticLearner(config, bank, rng)`` from an ``ExperimentConfig``.

    The constructor refuses a config that ``validate`` refuses.  The config
    sets the rollouts per group, the discrimination and the learn rate.  The
    starting ability is ``config.ability_init``, or ``default_ability(bank)``
    when that is None.  It reads the bank's latents itself.
    """

    def __init__(self, config, bank: ProblemBank, rng: np.random.Generator):
        config.validate()
        ability = config.ability_init
        self.ability = float(default_ability(bank) if ability is None else ability)
        self.discrimination = float(config.discrimination)
        self.learn_rate = float(config.learn_rate)
        self.rollouts = config.rollouts
        self._latent = bank.latent
        self._rng = rng

    def success_probability(self, latent: float) -> float:
        logit = self.discrimination * (self.ability - latent)
        return sigmoid(min(max(logit, -_LOGIT_CAP), _LOGIT_CAP))

    def rollout_group(self, problem_id: str, latent: float) -> RolloutGroup:
        """Draw one group of Bernoulli rollouts against a problem of difficulty ``latent``."""
        p = self.success_probability(latent)
        draws = self._rng.random(self.rollouts) < p
        return RolloutGroup(
            problem_id=problem_id,
            rewards=tuple(1.0 if hit else 0.0 for hit in draws),
        )

    def pass_counts(self, indices) -> np.ndarray:
        """Roll out a group per bank index; return each group's passes as an int64 array.

        One ``random((B, G))`` draw yields the same bits, and leaves the
        generator in the same state, as B calls of ``rollout_group``.
        """
        with np.errstate(over="ignore"):
            logits = self.discrimination * (self.ability - self._latent[indices])
        # In place: np.clip costs about twice as much on a batch of latents.
        np.minimum(logits, _LOGIT_CAP, out=logits)
        probabilities = sigmoid_array(np.maximum(logits, -_LOGIT_CAP, out=logits))
        draws = self._rng.random((len(probabilities), self.rollouts))
        return (draws < probabilities[:, None]).sum(axis=1)

    def learn_step(self, counts) -> None:
        """Raise ability by learn_rate times the share of mixed groups, 0 < passes < rollouts.

        ``counts`` holds each batch group's passes.  Ability never decreases.
        An empty batch, or a count ``pass_count_fault`` refuses, raises
        ValueError and leaves the learner untouched.
        """
        counts = np.asarray(counts)
        if counts.ndim != 1 or not counts.size:
            raise ValueError("learn_step requires a non-empty batch of pass counts")
        fault = pass_count_fault(counts, self.rollouts)
        if fault:
            raise ValueError(f"learn_step got {fault}")
        mixed = int(np.count_nonzero((counts > 0) & (counts < self.rollouts)))
        self.ability += self.learn_rate * (mixed / counts.size)

    def state_dict(self) -> dict:
        """The state a run changes; the constructor rebuilds the parameters."""
        return {"ability": self.ability, "rng": self._rng.bit_generator.state}

    def load_state_dict(self, payload: dict) -> None:
        """Restore ``state_dict`` output.

        Raises:
            ConfigError: the payload is not a dict holding ``ability`` and
                ``rng``, the ability is not a finite number, or the rng state
                does not fit this learner's bit generator; the learner is left
                untouched.
        """
        require(payload, ("ability", "rng"), "learner state")
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
    which in a run only the learner and ``problems.csv``'s writer read.  Inside
    the library a problem is its position in these columns, and its id only
    names it.  An id is a non-empty str of UTF-8 text with no comma,
    semicolon, double quote or line break, so it can stand unquoted in every
    output file.  Nothing here
    changes during a run; scheduler state lives in the samplers.
    """

    def __init__(self, ids, level_tags, latent):
        self.ids = tuple(ids)
        self.level_tags = tuple(level_tags)
        self.latent = np.array(latent, dtype=np.float64)
        self.latent.flags.writeable = False
        if not self.ids:
            raise ConfigError("n_problems: a bank needs at least one problem")
        if not len(self.level_tags) == len(self.latent) == len(self.ids):
            raise ConfigError(
                f"bank columns disagree: {len(self.ids)} ids, {len(self.level_tags)} "
                f"level tags, {len(self.latent)} latent difficulties"
            )
        # Whole-column checks first; the slow search only names the culprit.
        # The ids are all str by then, so one join serves every character check.
        if (
            set(map(type, self.ids)) != {str}
            or not all(self.ids)
            or not _plain_id("".join(self.ids))
        ):
            bad = next(pid for pid in self.ids if not _plain_id(pid))
            raise ConfigError(
                f"problem id: must be a non-empty str of UTF-8 text without a comma, "
                f"semicolon, double quote or line break, got {bad!r}"
            )
        if len(set(self.ids)) < len(self.ids):
            seen = set()
            duplicate = next(pid for pid in self.ids if pid in seen or seen.add(pid))
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

    def content_hash(self) -> str:
        """Digest of ids, level tags and latent difficulties, as bytes in bank order.

        The digest reads the problem count and a newline, each id and a
        newline as UTF-8, one byte per level tag (0 for None), then the
        latents as little-endian float64.  No id is empty or holds a line
        break, so the id text splits one way only.  The bank never changes,
        so the digest is kept once known.
        """
        if self._hash is None:
            digest = hashlib.sha256("\n".join((str(len(self.ids)), *self.ids, "")).encode())
            digest.update(bytes([tag or 0 for tag in self.level_tags]))
            digest.update(self.latent.astype("<f8").tobytes())
            self._hash = digest.hexdigest()
        return self._hash


def _plain_id(pid) -> bool:
    """A non-empty str, with no forbidden character, that encodes as UTF-8 (no lone surrogate)."""
    if type(pid) is not str or not pid or any(map(pid.__contains__, _ID_FORBIDDEN)):
        return False
    try:
        pid.encode()
    except UnicodeEncodeError:
        return False
    return True


def _plain_tag(tag) -> bool:
    return tag is None or (type(tag) is int and tag in LEVEL_TAGS)


def _quintile_tags(values: np.ndarray) -> np.ndarray:
    """Each value's quintile, 1..5: rank r of n in a stable sort gets ``1 + 5r // n``.

    A rank reaches quintile boundary q when it is at least ``ceil(q·n/5)``, so
    only those four ranks matter, and one partition finds their values.  A
    value above a boundary's value reaches it, one below does not, and of the
    values equal to it the first ``boundary − count(below)`` in bank order
    (as a stable sort ranks them) do not.
    """
    n = values.size
    tags = np.ones(n, dtype=np.int64)
    boundaries = [b for b in (-(-q * n // 5) for q in range(1, 5)) if b < n]
    if not boundaries:
        return tags
    parted = np.partition(values, boundaries)
    for boundary in boundaries:
        value = parted[boundary]
        tags += values > value
        equal = np.flatnonzero(values == value)
        tags[equal[boundary - np.count_nonzero(values < value) :]] += 1
    return tags


def _padded_ids(n: int, width: int) -> list[str]:
    """``"p%0{width}d" % i`` for every i in range(n), as one byte array's text.

    Row i holds ``p``, then the digits of i and a newline; the digits are
    filled one column at a time from the last.  ``width`` must hold n - 1.
    """
    rows = np.empty((n, width + 2), dtype=np.uint8)
    rows[:, 0] = ord("p")
    rows[:, -1] = ord("\n")
    number, digit = np.arange(n), np.empty(n, dtype=np.int64)
    for column in range(width, 0, -1):
        np.divmod(number, 10, out=(number, digit))
        rows[:, column] = digit
    rows[:, 1:-1] += ord("0")
    return str(rows, "ascii").splitlines()


def generate_bank(config, rng: np.random.Generator) -> ProblemBank:
    """Draw a bank of ``config.n_problems`` problems, refusing a config ``validate`` refuses.

    ``normal`` mode (``config.bank_mode``) draws latent difficulties from
    N(0, bank_scale^2) and tags each problem with its difficulty quintile
    (1 easiest .. 5 hardest).  ``levels`` mode draws tags uniformly and maps
    tag k to the latent ``(k - 3) * bank_scale``.
    """
    config.validate()
    n = config.n_problems
    width = max(5, len(str(n - 1)))
    if config.bank_mode == "normal":
        latent = rng.normal(0.0, config.bank_scale, size=n)
        tags = _quintile_tags(latent)
    else:
        tags = rng.integers(1, 6, size=n)
        # A scale past half the largest float overflows; ProblemBank refuses the inf.
        with np.errstate(over="ignore"):
            latent = (tags - 3) * config.bank_scale
    return ProblemBank(_padded_ids(n, width), tags.tolist(), latent)


def default_ability(bank: ProblemBank) -> float:
    """Starting ability: the 5th percentile of the bank's latent difficulties."""
    return float(np.percentile(bank.latent, 5.0))


def save_bank(bank: ProblemBank, path: str | Path) -> None:
    payload = {
        "format_version": BANK_FORMAT_VERSION,
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
    latent = [entry["true_difficulty"] for entry in entries]
    # By exact type, as ids and tags are: numpy would parse "0.5" and True.
    if not set(map(type, latent)) <= {int, float}:
        position = next(i for i, value in enumerate(latent) if type(value) not in (int, float))
        raise ConfigError(
            f"bank file {path}: record {position} has a true_difficulty that is not "
            f"a number, {latent[position]!r}"
        )
    try:
        bank = ProblemBank(
            [entry["id"] for entry in entries],
            [entry["level_tag"] for entry in entries],
            latent,
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bank file {path}: {err}") from err
    stored = payload.get("hash")
    if stored is not None and stored != bank.content_hash():
        raise ConfigError(f"bank file {path}: content hash mismatch (file edited?)")
    return bank
