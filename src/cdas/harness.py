"""Closed-loop experiment driver: bank -> sampler -> learner -> metrics.

Each step selects a batch, rolls every batch problem out against the
synthetic learner, reports pass rates back to the sampler, applies the
learner update, and appends one metrics row.  Runs are deterministic given
the config: the master seed spawns independent streams for bank generation,
the sampler, and the learner, so changing the strategy never perturbs the
bank or the learner's initialization.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
import typing
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .baselines import PrioritizedSampler
from .config import SAMPLERS, ExperimentConfig
from .core import LEVEL_TAGS
from .errors import ConfigError
from .files import decode_array, encode_array, read_json, replacing, require
from .learner import ProblemBank, SyntheticLearner, generate_bank, load_bank
from .metrics import (
    METRICS_COLUMNS,
    StepMetrics,
    _cell,
    format_metrics_row,
    summarize_step,
    write_metrics_csv,
)
from .sampling import Sampler

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 8

METRICS_FILE = "metrics.csv"
SUMMARY_FILE = "summary.json"
CHECKPOINT_FILE = "checkpoint.json"
PROBLEMS_FILE = "problems.csv"
BATCHES_FILE = "batches.csv"

# Rows formatted and joined at a time when problems.csv is written.
BLOCK_ROWS = 8192

# The stages of a run that RunResult.stage_seconds times.
STAGES = ("select", "rollout", "report", "learn", "summarize", "write")


@dataclass
class RunResult:
    """A run as it goes on: its bank, sampler, learner and what each step recorded.

    ``batches`` holds each step's batch as a read-only array of bank
    indices, in batch order; ``bank.ids`` names them.

    ``stage_seconds`` adds up the wall-clock seconds this process spent in
    each of ``STAGES``: choosing batches (``select``), the learner's rollout
    rounds within them (``rollout``), reporting pass rates, the learner
    update, the metrics row, and writing the output files.  It is kept in
    memory only, out of every output file and the checkpoint, so a resumed
    run counts from zero.
    """

    config: ExperimentConfig
    bank: ProblemBank
    sampler: Sampler
    learner: SyntheticLearner
    rows: list[StepMetrics] = field(default_factory=list)
    batches: list[np.ndarray] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))

    @property
    def bank_hash(self) -> str:
        """The bank's content hash, computed by the bank on first use."""
        return self.bank.content_hash()

    @property
    def n_problems(self) -> int:
        return len(self.bank)

    @property
    def completed(self) -> bool:
        return len(self.rows) >= self.config.total_steps

    @property
    def warmup_window(self) -> int:
        """Steps treated as warm-up when summarizing (fixed by bank and batch size)."""
        return math.ceil(self.n_problems / self.config.batch_size)

    def summary(self) -> dict:
        post = [r.zero_gradient_fraction for r in self.rows if r.step > self.warmup_window]
        consumed = sum(r.rollout_batches_consumed for r in self.rows)
        out = {
            "strategy": self.config.strategy,
            "seed": self.config.seed,
            "config_hash": self.config.content_hash(),
            "bank_hash": self.bank_hash,
            "n_problems": self.n_problems,
            "completed_steps": len(self.rows),
            "total_steps": self.config.total_steps,
            "completed": self.completed,
            "warmup_window": self.warmup_window,
            "final_ability": self.learner.ability,
            "final_mean_reward": self.rows[-1].mean_reward if self.rows else None,
            "mean_zero_gradient_fraction": (
                sum(r.zero_gradient_fraction for r in self.rows) / len(self.rows)
                if self.rows
                else None
            ),
            "post_warmup_zero_gradient_mean": sum(post) / len(post) if post else None,
            "cumulative_rollout_batches": consumed,
        }
        if isinstance(self.sampler, PrioritizedSampler):
            out["uniform_fallbacks"] = self.sampler.uniform_fallbacks
        return out


@dataclass
class ComparisonResult:
    results: list[RunResult] = field(default_factory=list)

    def summary_rows(self) -> list[dict]:
        return [result.summary() for result in self.results]


def _spawned_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    bank_ss, sampler_ss, learner_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(bank_ss),
        np.random.default_rng(sampler_ss),
        np.random.default_rng(learner_ss),
    )


def _start(
    config: ExperimentConfig,
) -> tuple[ProblemBank, np.random.Generator, SyntheticLearner]:
    """The bank, the sampler's random stream and a fresh learner."""
    bank_rng, sampler_rng, learner_rng = _spawned_rngs(config.seed)
    if config.bank_path is not None:
        bank = load_bank(config.bank_path)
    else:
        bank = generate_bank(config, bank_rng)
    return bank, sampler_rng, SyntheticLearner(config, bank, learner_rng)


def make_sampler(config: ExperimentConfig, bank: ProblemBank, rng: np.random.Generator) -> Sampler:
    """The sampler of ``config.strategy``, built from ``config``."""
    return SAMPLERS[config.strategy](config, bank, rng)


def sampler_from_state(
    config: ExperimentConfig, bank: ProblemBank, rng: np.random.Generator, state: dict
) -> Sampler:
    """Rebuild the configured sampler on ``bank`` and restore its checkpointed state."""
    sampler = make_sampler(config, bank, rng)
    sampler.load_state_dict(state)
    return sampler


def _advance(run: RunResult, target_step: int) -> None:
    """Run steps up to ``target_step``, carrying each batch as bank indices."""
    sampler = run.sampler
    seconds, clock = run.stage_seconds, time.perf_counter
    rolling = 0.0

    def roll_round(indices):
        nonlocal rolling
        began = clock()
        counts = run.learner.pass_counts(indices)
        rolling += clock() - began
        return counts

    while sampler.step < target_step:
        began, rolling = clock(), 0.0
        batch, counts, consumed = sampler.select_and_roll(roll_round)
        selected = clock()
        sampler.report(counts / run.learner.rollouts)
        reported = clock()
        run.learner.learn_step(counts)
        learned = clock()
        run.rows.append(
            summarize_step(batch, sampler, run.learner, rollout_batches_consumed=consumed)
        )
        run.batches.append(batch)
        summarized = clock()
        seconds["select"] += selected - began - rolling
        seconds["rollout"] += rolling
        seconds["report"] += reported - selected
        seconds["learn"] += learned - reported
        seconds["summarize"] += summarized - learned


def _target_step(config: ExperimentConfig, stop_after: int | None) -> int:
    if stop_after is not None and stop_after < 1:
        raise ConfigError(f"stop_after: must be >= 1, got {stop_after}")
    return config.total_steps if stop_after is None else min(stop_after, config.total_steps)


def _finish(run: RunResult, target_step: int) -> RunResult:
    _advance(run, target_step)
    if run.config.out_dir is not None:
        began = time.perf_counter()
        write_outputs(run, run.config.out_dir)
        run.stage_seconds["write"] += time.perf_counter() - began
    return run


def run_experiment(config: ExperimentConfig, stop_after: int | None = None) -> RunResult:
    """Run an experiment from scratch; writes outputs when config.out_dir is set.

    ``stop_after`` truncates the run after that step (checkpoint included), so
    a later ``resume_experiment`` can pick it up.
    """
    config.validate()
    target = _target_step(config, stop_after)
    bank, sampler_rng, learner = _start(config)
    sampler = make_sampler(config, bank, sampler_rng)
    return _finish(RunResult(config, bank, sampler, learner), target)


# -- checkpointing ----------------------------------------------------------


def _checkpoint_payload(result: RunResult) -> dict:
    """The checkpoint: ``batches`` is the ``encode_array`` text of the bank indices."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": result.config.to_dict(),
        "config_hash": result.config.content_hash(),
        "bank_hash": result.bank_hash,
        "sampler": result.sampler.state_dict(),
        "learner": result.learner.state_dict(),
        "metrics_rows": [
            {name: getattr(row, name) for name in _METRICS_TYPES} for row in result.rows
        ],
        "batches": encode_array(result.batches, "<i8"),
    }


_CHECKPOINT_FIELDS = (
    "format_version", "config", "config_hash", "bank_hash",
    "sampler", "learner", "metrics_rows", "batches",
)
# Each metrics field's allowed JSON value types, by exact type: an int where a
# float belongs would be written back into metrics.csv without its ".0".
_METRICS_TYPES = {
    name: set(typing.get_args(hint) or (hint,))
    for name, hint in typing.get_type_hints(StepMetrics).items()
}


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint, refusing one whose version, shape or config hash is off."""
    payload = read_json(path, "checkpoint")
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {path}: unsupported format_version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        require(payload, _CHECKPOINT_FIELDS, "checkpoint")
        require(payload["config"], (), "config")
        config = ExperimentConfig.from_dict(payload["config"])
        config.validate()
        rows = payload["metrics_rows"]
        if not isinstance(rows, list) or any(
            not isinstance(row, dict) or set(row) != set(_METRICS_TYPES) for row in rows
        ):
            raise ConfigError(
                f"metrics rows must each hold exactly the fields {sorted(_METRICS_TYPES)}"
            )
        for step, row in enumerate(rows, start=1):
            bad = [name for name, types in _METRICS_TYPES.items() if type(row[name]) not in types]
            if bad:
                raise ConfigError(f"metrics row {step}: {bad[0]} has a wrong type, {row[bad[0]]!r}")
            # Python's json module reads NaN and Infinity.
            bad = [k for k, v in row.items() if type(v) is float and not math.isfinite(v)]
            if bad:
                raise ConfigError(f"metrics row {step}: {bad[0]} must be finite, got {row[bad[0]]}")
            if row["step"] != step:
                raise ConfigError(f"metrics row {step} has step {row['step']}")
    except ConfigError as err:
        raise ConfigError(f"checkpoint {path}: {err}") from err
    if config.content_hash() != payload.get("config_hash"):
        raise ConfigError(
            f"checkpoint {path}: config hash mismatch; the checkpoint or its "
            f"embedded config was edited"
        )
    return payload


def resume_experiment(
    checkpoint_path: str | Path,
    out_dir: str | Path | None = None,
    stop_after: int | None = None,
) -> RunResult:
    """Continue a checkpointed run to completion (or to ``stop_after``).

    The sampler and the learner are rebuilt from the checkpoint's config and
    bank, then their checkpointed state is restored.  Refuses checkpoints
    whose config hash does not match their embedded config, whose bank no
    longer reproduces, or whose sampler or learner state or batches do not
    fit the bank or the recorded steps.  A checkpoint already at the target step (the run's end
    or ``stop_after``) is left alone: the call logs a notice and writes nothing.
    """
    payload = load_checkpoint(checkpoint_path)
    config = ExperimentConfig.from_dict(payload["config"])
    if out_dir is not None:
        config = config.with_overrides(out_dir=str(out_dir))
    config.validate()
    target = _target_step(config, stop_after)

    bank, sampler_rng, learner = _start(config)
    if bank.content_hash() != payload["bank_hash"]:
        raise ConfigError(
            f"checkpoint {checkpoint_path}: bank hash mismatch; the configured "
            f"bank no longer reproduces the checkpointed one"
        )
    rows = [StepMetrics(**row) for row in payload["metrics_rows"]]
    try:
        sampler = sampler_from_state(config, bank, sampler_rng, payload["sampler"])
        learner.load_state_dict(payload["learner"])
        if sampler.step != len(rows):
            raise ConfigError(
                f"sampler is at step {sampler.step} but {len(rows)} steps are recorded"
            )
        batches = _batch_indices(payload["batches"], sampler.step, config.batch_size, len(bank))
    except ConfigError as err:
        raise ConfigError(f"checkpoint {checkpoint_path}: {err}") from err
    run = RunResult(config, bank, sampler, learner, rows=rows, batches=batches)
    # The run now holds all it needs; the parsed checkpoint's column and
    # batch texts need not live through the steps and the write.
    del payload
    if target <= sampler.step:
        logger.info(
            "checkpoint %s is already at step %d of %d; nothing to resume up to step %d",
            checkpoint_path,
            sampler.step,
            config.total_steps,
            target,
        )
        return run
    return _finish(run, target)


def _batch_indices(text, steps: int, batch_size: int, n: int) -> list[np.ndarray]:
    """Checkpointed ``batches`` as read-only bank-index arrays, one per step.

    Raises:
        ConfigError: ``text`` does not decode to ``steps`` rows of
            ``batch_size`` distinct indices into a bank of ``n`` problems.
    """
    indices = decode_array(text, "<i8", steps * batch_size, "batches").reshape(steps, batch_size)
    if ((indices < 0) | (indices >= n)).any():
        raise ConfigError(f"batches: every index must be in [0, {n})")
    ordered = np.sort(indices, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise ConfigError(f"batches: step {int(np.argmax(repeats)) + 1} repeats a problem")
    indices.flags.writeable = False
    return list(indices)


# -- output files -------------------------------------------------------------


def _distinct_text(values: np.ndarray) -> list[str]:
    """The problems.csv cells of ``values``.

    Each distinct bit pattern is formatted once, which keeps -0.0 apart
    from 0.0.  A number is written by ``repr``, as ``csv.writer`` writes
    ints and floats; NaN, a problem never reported, is an empty cell.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    cells = ["" if v != v else repr(v) for v in bits.view(values.dtype).tolist()]
    return np.array(cells, dtype=object).take(inverse).tolist()


_CSV_TAG_TEXT = {None: "", **{tag: str(tag) for tag in LEVEL_TAGS}}.__getitem__


def write_outputs(result: RunResult, out_dir: str | Path) -> None:
    """Write the five output files, each atomically, the checkpoint last."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / METRICS_FILE) as tmp:
        write_metrics_csv(tmp, result.rows, result.config.strategy, result.config.seed)
    bank, ids = result.bank, result.bank.ids
    # No id needs quoting, so this is the text csv.writer would write.
    with replacing(out / BATCHES_FILE) as tmp, open(tmp, "w", newline="") as fh:
        fh.write("step,problem_ids\n")
        fh.writelines(
            f"{step},{';'.join(map(ids.__getitem__, batch.tolist()))}\n"
            for step, batch in enumerate(result.batches, start=1)
        )
    state = result.sampler.state_arrays()
    with replacing(out / PROBLEMS_FILE) as tmp, open(tmp, "w", newline="") as fh:
        fh.write("id,level_tag,true_difficulty,t,difficulty,final_pass_rate\n")
        for start in range(0, len(bank), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(bank))
            tags = map(_CSV_TAG_TEXT, bank.level_tags[start:stop])
            latent = map(repr, bank.latent[start:stop].tolist())
            if "t" in state:
                t = _distinct_text(state["t"][start:stop])
                difficulty = _distinct_text(state["difficulty"][start:stop])
            else:
                # Strategies without estimates write every problem as never visited.
                t, difficulty = repeat("0"), repeat("0.0")
            rates = _distinct_text(state["last_pass_rate"][start:stop])
            rows = zip(ids[start:stop], tags, latent, t, difficulty, rates)
            fh.write("\n".join(map(",".join, rows)) + "\n")
    with replacing(out / SUMMARY_FILE) as tmp, open(tmp, "w") as fh:
        fh.write(json.dumps(result.summary(), indent=2, sort_keys=True) + "\n")
    with replacing(out / CHECKPOINT_FILE) as tmp, open(tmp, "w") as fh:
        json.dump(_checkpoint_payload(result), fh)
        fh.write("\n")


# -- comparisons ---------------------------------------------------------------


def compare_strategies(
    config: ExperimentConfig,
    strategies: list[str],
    seeds: list[int] | None = None,
    out_dir: str | Path | None = None,
) -> ComparisonResult:
    """Cross product of strategies and seeds on per-seed identical banks.

    Writes each run under ``<out_dir>/<strategy>_seed<seed>/`` plus a combined
    ``comparison.csv`` (all per-step rows) and ``comparison_summary.csv``
    (one row per run) when there is an ``out_dir``: the argument, or else
    ``config.out_dir``.
    """
    if out_dir is None:
        out_dir = config.out_dir
    if not strategies:
        raise ConfigError("strategies: need at least one")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies: duplicates in {strategies}")
    if seeds is None:
        seeds = [config.seed]
    if not seeds:
        raise ConfigError("seeds: need at least one")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds: duplicates in {seeds}")
    combined = ComparisonResult()
    for seed in seeds:
        for strategy in strategies:
            run_dir = (
                str(Path(out_dir) / f"{strategy}_seed{seed}") if out_dir is not None else None
            )
            run = replace(config, strategy=strategy, seed=seed, out_dir=run_dir)
            combined.results.append(run_experiment(run))
    if out_dir is not None:
        _write_comparison(combined, Path(out_dir))
    return combined


def _write_comparison(comparison: ComparisonResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / "comparison.csv") as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for result in comparison.results:
            for row in result.rows:
                writer.writerow(
                    format_metrics_row(row, result.config.strategy, result.config.seed)
                )
    summary_rows = comparison.summary_rows()
    columns = sorted({key for row in summary_rows for key in row})
    lead = [c for c in ("strategy", "seed") if c in columns]
    columns = lead + [c for c in columns if c not in lead]
    with replacing(out / "comparison_summary.csv") as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in summary_rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
