"""Synthetic learner and problem bank for closed-loop scheduling experiments.

The learner follows a one-parameter item-response model: its chance of
solving a problem with latent difficulty b is sigmoid(a * (ability - b)).
Ability only ever moves up, by the configured rate times the share of the
batch's groups that are mixed: some of their rollouts pass and some fail.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import LEVEL_TAGS, MAX_LOGIT, sigmoid, sigmoid_array
from .errors import ConfigError
from .files import decode_array, encode_array, read_json, replacing, require
from .grpo import RolloutGroup, pass_count_fault

BANK_FORMAT_VERSION = 3

# Characters a problem id may not hold: cells are written unquoted, and
# batches.csv joins a batch's ids with ";".
_ID_FORBIDDEN = ',;"\r\n'

# The sigmoid is constant beyond MAX_LOGIT, so this cap on the learner's logit
# changes no probability; it keeps a logit that overflowed to ±inf out of it.
_LOGIT_CAP = 2 * MAX_LOGIT


class SyntheticLearner:
    """Built as ``SyntheticLearner(config, bank, rng)`` from an ``ExperimentConfig``.

    The config sets the rollouts per group, the discrimination and the learn
    rate.  The starting ability is ``config.ability_init``, or
    ``default_ability(bank)`` when that is None.  It reads the bank's latents
    itself.  Its generator ``rng`` draws every rollout and ability follows
    from the pass counts, so a learner built from the same config, bank and
    generator seed and run the same steps ends in the same state: a
    checkpoint stores none of it.
    """

    def __init__(self, config, bank: ProblemBank, rng: np.random.Generator):
        ability = config.ability_init
        self.ability = float(default_ability(bank) if ability is None else ability)
        self.discrimination = float(config.discrimination)
        self.learn_rate = float(config.learn_rate)
        self.rollouts = config.rollouts
        self._latent = bank.latent
        self.rng = rng

    def success_probability(self, latent: float) -> float:
        logit = self.discrimination * (self.ability - latent)
        return sigmoid(min(max(logit, -_LOGIT_CAP), _LOGIT_CAP))

    def rollout_group(self, problem_id: str, latent: float) -> RolloutGroup:
        """Draw one group of Bernoulli rollouts against a problem of difficulty ``latent``."""
        p = self.success_probability(latent)
        draws = self.rng.random(self.rollouts) < p
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
        draws = self.rng.random((len(probabilities), self.rollouts))
        return (draws < probabilities[:, None]).sum(axis=1)

    def learn_step(self, counts) -> None:
        """Raise ability by learn_rate times the share of mixed groups, 0 < passes < rollouts.

        ``counts`` holds each batch group's passes.  Ability never decreases.
        An empty batch, or a count ``pass_count_fault`` refuses, raises
        ValueError and leaves the learner untouched.
        """
        passes = np.asarray(counts)
        if passes.ndim != 1 or not passes.size:
            raise ValueError("learn_step requires a non-empty batch of pass counts")
        fault = pass_count_fault(counts, self.rollouts)
        if fault:
            raise ValueError(f"learn_step got {fault}")
        mixed = int(np.count_nonzero((passes > 0) & (passes < self.rollouts)))
        self.ability += self.learn_rate * (mixed / passes.size)


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
    """Draw a bank of ``config.n_problems`` problems.

    ``normal`` mode (``config.bank_mode``) draws latent difficulties from
    N(0, bank_scale^2) and tags each problem with its difficulty quintile
    (1 easiest .. 5 hardest).  ``levels`` mode draws tags uniformly and maps
    tag k to the latent ``(k - 3) * bank_scale``.
    """
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
    """Write ``bank`` as its three columns, the latents as ``encode_array`` text."""
    payload = {
        "format_version": BANK_FORMAT_VERSION,
        "hash": bank.content_hash(),
        "ids": bank.ids,
        "level_tags": bank.level_tags,
        "true_difficulty": encode_array(bank.latent, "<f8"),
    }
    with replacing(path) as tmp:
        tmp.write_text(json.dumps(payload) + "\n")


def load_bank(path: str | Path) -> ProblemBank:
    """Read a bank written by ``save_bank``, refusing one whose columns or hash are off."""
    payload = read_json(path, "bank file")
    version = payload.get("format_version") if isinstance(payload, dict) else None
    # By exact type: 3.0 == 3 in Python.
    if type(version) is not int or version != BANK_FORMAT_VERSION:
        raise ConfigError(f"bank file {path}: unsupported format_version {version!r}")
    require(payload, ("hash", "ids", "level_tags", "true_difficulty"), f"bank file {path}")
    ids, tags = payload["ids"], payload["level_tags"]
    if not isinstance(ids, list) or not isinstance(tags, list):
        raise ConfigError(f"bank file {path}: 'ids' and 'level_tags' must be lists")
    try:
        latent = decode_array(payload["true_difficulty"], "<f8", len(ids), "true_difficulty")
        bank = ProblemBank(ids, tags, latent)
    except ConfigError as err:
        raise ConfigError(f"bank file {path}: {err}") from err
    if payload["hash"] != bank.content_hash():
        raise ConfigError(f"bank file {path}: content hash mismatch (file edited?)")
    return bank
