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
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .baselines import PrioritizedSampler
from .config import SAMPLERS, ExperimentConfig
from .core import LEVEL_TAGS
from .errors import ConfigError
from .files import read_json, replacing, require
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

CHECKPOINT_VERSION = 11

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
    indices, in batch order; ``bank.ids`` names them.  Every rollout is
    drawn by the learner's generator, spawned from the config's seed, so the
    run's state is a function of its config and its step count, and those
    are all a checkpoint keeps.

    ``stage_seconds`` adds up the wall-clock seconds this process spent in
    each of ``STAGES``: choosing batches (``select``), the learner's rollout
    rounds within them (``rollout``), reporting pass rates, the learner
    update, the metrics row, and writing the output files.  It is kept in
    memory only, out of every output file and the checkpoint.  A resumed run
    counts from zero, and the steps it runs again up to its checkpoint count
    as well, rollouts included.
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
    def completed(self) -> bool:
        return len(self.rows) >= self.config.total_steps

    @property
    def warmup_window(self) -> int:
        """Steps treated as warm-up when summarizing (fixed by bank and batch size)."""
        return math.ceil(len(self.bank) / self.config.batch_size)

    def summary(self) -> dict:
        post = [r.zero_gradient_fraction for r in self.rows if r.step > self.warmup_window]
        consumed = sum(r.rollout_batches_consumed for r in self.rows)
        out = {
            "strategy": self.config.strategy,
            "seed": self.config.seed,
            "config_hash": self.config.content_hash(),
            "bank_hash": self.bank_hash,
            "n_problems": len(self.bank),
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


def _spawned_rngs(seed: int) -> list[np.random.Generator]:
    """The bank's, the sampler's and the learner's generators, spawned from ``seed``."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)]


def draw_bank(config: ExperimentConfig) -> ProblemBank:
    """The bank a run of ``config`` draws from its seed when it has no ``bank_path``."""
    return generate_bank(config, _spawned_rngs(config.seed)[0])


def _start(config: ExperimentConfig) -> RunResult:
    """A run of ``config`` at step 0: its bank, its strategy's sampler and a fresh learner."""
    bank_rng, sampler_rng, rollout_rng = _spawned_rngs(config.seed)
    path = config.bank_path
    bank = generate_bank(config, bank_rng) if path is None else load_bank(path)
    learner = SyntheticLearner(config, bank, rollout_rng)
    return RunResult(config, bank, SAMPLERS[config.strategy](config, bank, sampler_rng), learner)


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
    if stop_after is None:
        return config.total_steps
    # By exact type: bool is an int subclass.
    if type(stop_after) is not int or stop_after < 1:
        raise ConfigError(f"stop_after: must be an integer >= 1, got {stop_after!r}")
    return min(stop_after, config.total_steps)


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
    target = _target_step(config, stop_after)
    return _finish(_start(config), target)


# -- checkpointing ----------------------------------------------------------


def _checkpoint_payload(result: RunResult) -> dict:
    """The checkpoint: the experiment's config fields and the steps run, which fix all the rest."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": result.config.experiment_fields(),
        "config_hash": result.config.content_hash(),
        "bank_hash": result.bank_hash,
        "steps": result.sampler.step,
    }


_CHECKPOINT_FIELDS = ("format_version", "config", "config_hash", "bank_hash", "steps")


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint and return its fields, ``config`` built as an ``ExperimentConfig``.

    Refuses one whose version (by exact type), fields, config hash or steps are off.
    """
    payload = read_json(path, "checkpoint")
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {path}: unsupported format_version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        require(payload, _CHECKPOINT_FIELDS, "checkpoint")
        require(payload["config"], (), "config")
        config = ExperimentConfig.from_dict(payload["config"])
    except ConfigError as err:
        raise ConfigError(f"checkpoint {path}: {err}") from err
    if config.content_hash() != payload.get("config_hash"):
        raise ConfigError(
            f"checkpoint {path}: config hash mismatch; the checkpoint or its "
            f"embedded config was edited"
        )
    steps = payload["steps"]
    # By exact type: bool is an int subclass.
    if type(steps) is not int or not 0 <= steps <= config.total_steps:
        raise ConfigError(
            f"checkpoint {path}: steps: must be an integer in "
            f"[0, {config.total_steps}], got {steps!r}"
        )
    return {**payload, "config": config}


def resume_experiment(
    checkpoint_path: str | Path,
    out_dir: str | Path | None = None,
    stop_after: int | None = None,
) -> RunResult:
    """Continue a checkpointed run to completion (or to ``stop_after``).

    The run is built from the checkpoint's config as ``run_experiment``
    builds it, and the checkpointed steps run again through the same step
    loop, rollouts included.  Every draw follows from the config's seed, so
    they end where the checkpointed run stopped.  The outputs go to
    ``out_dir``, or else beside the checkpoint.  Refuses what
    ``load_checkpoint`` refuses, and a bank that no longer reproduces.  A
    checkpoint already at the target step (the run's end or ``stop_after``)
    is left alone: the call logs a notice and writes nothing.
    """
    payload = load_checkpoint(checkpoint_path)
    where = Path(checkpoint_path).parent if out_dir is None else out_dir
    config = replace(payload["config"], out_dir=str(where))
    target, steps = _target_step(config, stop_after), payload["steps"]
    run = _start(config)
    if run.bank_hash != payload["bank_hash"]:
        raise ConfigError(
            f"checkpoint {checkpoint_path}: bank hash mismatch; the configured "
            f"bank no longer reproduces the checkpointed one"
        )
    _advance(run, steps)
    if target <= steps:
        logger.info(
            "checkpoint %s is already at step %d of %d; nothing to resume up to step %d",
            checkpoint_path,
            steps,
            config.total_steps,
            target,
        )
        return run
    return _finish(run, target)


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
    if seeds is None:
        seeds = [config.seed]
    for name, values in (("strategies", strategies), ("seeds", seeds)):
        if not values:
            raise ConfigError(f"{name}: need at least one")
        if len(set(values)) != len(values):
            raise ConfigError(f"{name}: duplicates in {values}")
    combined = ComparisonResult()
    for seed in seeds:
        for strategy in strategies:
            run_dir = None if out_dir is None else str(Path(out_dir) / f"{strategy}_seed{seed}")
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
    lead = ["strategy", "seed"]
    columns = lead + sorted({key for row in summary_rows for key in row} - set(lead))
    with replacing(out / "comparison_summary.csv") as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in summary_rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
