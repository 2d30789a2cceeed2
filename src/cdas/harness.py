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
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .baselines import PrioritizedSampler
from .config import SAMPLERS, ExperimentConfig
from .errors import ConfigError
from .files import read_json, replacing
from .learner import ProblemBank, SyntheticLearner, default_ability, generate_bank, load_bank
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

CHECKPOINT_VERSION = 4

METRICS_FILE = "metrics.csv"
SUMMARY_FILE = "summary.json"
CHECKPOINT_FILE = "checkpoint.json"
PROBLEMS_FILE = "problems.csv"
BATCHES_FILE = "batches.csv"

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
        """The bank's content hash; writing problems.csv computes it on the way."""
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
        bank = generate_bank(
            config.n_problems,
            bank_rng,
            mode=config.bank_mode,
            scale=config.bank_scale,
            level_spread=config.bank_level_spread,
        )
    ability = config.ability_init if config.ability_init is not None else default_ability(bank)
    learner = SyntheticLearner(
        ability=ability,
        rng=learner_rng,
        discrimination=config.discrimination,
        learn_rate=config.learn_rate,
        rollouts=config.rollouts,
    )
    return bank, sampler_rng, learner


def make_sampler(config: ExperimentConfig, bank: ProblemBank, rng: np.random.Generator) -> Sampler:
    """The configured strategy's sampler; ``config`` has been validated."""
    return SAMPLERS[config.strategy].from_config(config, bank, rng)


def sampler_from_state(
    config: ExperimentConfig, bank: ProblemBank, rng: np.random.Generator, state: dict
) -> Sampler:
    """Rebuild the configured sampler on ``bank`` and restore its checkpointed state."""
    sampler = make_sampler(config, bank, rng)
    sampler.load_state_dict(state)
    return sampler


def _advance(run: RunResult, target_step: int) -> None:
    """Run steps up to ``target_step``, carrying each batch as bank indices."""
    config, sampler = run.config, run.sampler
    rollouts = run.learner.rollouts
    latent = run.bank.latent
    seconds, clock = run.stage_seconds, time.perf_counter
    rolling = 0.0

    def roll_round(indices):
        nonlocal rolling
        began = clock()
        counts = run.learner.pass_counts(latent[indices])
        rolling += clock() - began
        return counts

    while sampler.step < target_step:
        began, rolling = clock(), 0.0
        batch, counts, consumed = sampler.select_and_roll(config.batch_size, rollouts, roll_round)
        selected = clock()
        counts = np.array(counts)
        pass_rates = counts / rollouts
        # A group whose rollouts all agree has zero advantage everywhere.
        zero_gradient = (counts == 0) | (counts == rollouts)
        sampler.report(pass_rates)
        rates, flags = pass_rates.tolist(), zero_gradient.tolist()
        reported = clock()
        run.learner.learn_step(flags)
        learned = clock()
        run.rows.append(
            summarize_step(
                batch, rates, flags, sampler, run.learner, rollout_batches_consumed=consumed
            )
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


def _checkpoint_payload(result: RunResult, sampler_state: dict) -> dict:
    """The checkpoint, but for ``batches``, whose JSON text is written from batches.csv's."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": result.config.to_dict(),
        "config_hash": result.config.content_hash(),
        "bank_hash": result.bank_hash,
        "sampler": sampler_state,
        "learner": result.learner.state_dict(),
        "metrics_rows": [
            {name: getattr(row, name) for name in _METRICS_TYPES} for row in result.rows
        ],
        "batches": None,
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


def _require(value, fields, what: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    missing = [name for name in fields if name not in value]
    if missing:
        raise ConfigError(f"{what}: missing field {missing[0]!r}")


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
        _require(payload, _CHECKPOINT_FIELDS, "checkpoint")
        _require(payload["config"], (), "config")
        config = ExperimentConfig.from_dict(payload["config"])
        config.validate()
        sampler_cls = SAMPLERS[config.strategy]
        _require(payload["sampler"], sampler_cls.state_fields, "sampler state")
        _require(payload["learner"], ("ability", "rng"), "learner state")
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
    try:
        sampler = sampler_from_state(config, bank, sampler_rng, payload["sampler"])
        learner.load_state_dict(payload["learner"])
    except ConfigError as err:
        raise ConfigError(f"checkpoint {checkpoint_path}: {err}") from err
    rows = [StepMetrics(**row) for row in payload["metrics_rows"]]
    if sampler.step != len(rows):
        raise ConfigError(
            f"checkpoint {checkpoint_path}: sampler is at step {sampler.step} but "
            f"{len(rows)} steps are recorded"
        )
    batches = _batch_indices(payload["batches"], sampler.step, config.batch_size, bank)
    if batches is None:
        raise ConfigError(
            f"checkpoint {checkpoint_path}: batches must be {sampler.step} lists of "
            f"{config.batch_size} distinct problem ids from the bank, one per recorded step"
        )
    run = RunResult(config, bank, sampler, learner, rows=rows, batches=batches)
    # The run now holds all it needs; the parsed checkpoint's per-problem
    # lists and batch ids need not live through the steps and the write.
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


def _batch_indices(
    batches, steps: int, batch_size: int, bank: ProblemBank
) -> list[np.ndarray] | None:
    """Checkpointed ``batches`` as read-only bank-index arrays, checked as they go.

    None unless ``batches`` is ``steps`` lists of ``batch_size`` distinct
    str ids in ``bank``.
    """
    if not isinstance(batches, list) or len(batches) != steps:
        return None
    arrays = []
    for batch in batches:
        if not isinstance(batch, list) or len(batch) != batch_size:
            return None
        if set(map(type, batch)) != {str}:
            return None
        positions = list(map(bank.index.get, batch))
        if None in positions or len(set(positions)) != batch_size:
            return None
        indices = np.array(positions, dtype=np.intp)
        indices.flags.writeable = False
        arrays.append(indices)
    return arrays


# -- output files -------------------------------------------------------------


def _distinct_text(values: np.ndarray) -> tuple[list[str], str]:
    """The problems.csv cells of ``values`` and the JSON text of their list's items.

    Each distinct bit pattern is formatted once, which keeps -0.0 apart
    from 0.0.  A number is written by ``repr``, as ``csv.writer`` and
    ``json.dumps`` write ints and floats; NaN, a problem never reported, is
    an empty cell and ``null``.  No value is infinite: the two would spell
    an infinity differently.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(values.dtype).tolist()
    cells = ["" if v != v else repr(v) for v in distinct]
    items = [cell or "null" for cell in cells]
    return (
        np.array(cells, dtype=object).take(inverse).tolist(),
        ", ".join(np.array(items, dtype=object).take(inverse).tolist()),
    )


def _final_state_columns(result: RunResult, state: dict) -> tuple[list, dict[str, list[str]]]:
    """Cell functions for the t, difficulty and final_pass_rate columns of problems.csv.

    ``state`` is the sampler's ``state_arrays()``.  Each function takes
    ``(start, stop)`` and gives the cells of those bank rows, in the text
    ``csv.writer`` would write: ints by ``str``, floats by ``repr`` and
    nothing for a problem never reported.

    A function for a per-problem array also appends the JSON text of the
    same items to that key's blocks in the dict returned beside the
    functions, so once problems.csv is written the dict holds the
    checkpoint's text of each.
    """
    blocks: dict[str, list[str]] = {}

    def formatted(key):
        values = state[key]
        texts = blocks[key] = []

        def cells(start, stop):
            block_cells, text = _distinct_text(values[start:stop])
            texts.append(text)
            return block_cells

        return cells

    if "t" in state:
        columns = [formatted("t"), formatted("difficulty")]
    else:
        # Strategies without estimates write every problem as never visited.
        unvisited = repr(result.config.initial_difficulty)
        columns = [
            lambda start, stop: repeat("0", stop - start),
            lambda start, stop: repeat(unvisited, stop - start),
        ]
    columns.append(formatted("last_pass_rate"))
    return columns, blocks


def _batches_json(texts: list[str]) -> str:
    """``json.dumps`` of the batches whose ids, joined by ``;``, are ``texts``.

    ``json.dumps`` leaves a ``;`` as it is and no id holds one, so each
    ``;`` in a batch's dumped text is where one id's text ends and the next
    begins.
    """
    items = ("[" + json.dumps(text).replace(";", '", "') + "]" for text in texts)
    return "[" + ", ".join(items) + "]"


def _checkpoint_text(payload: dict, lists: dict[str, list[str]], batches: str) -> Iterator[str]:
    """``json.dumps(payload) + "\\n"`` in pieces, never as one string.

    Each sampler state list named in ``lists`` is written from its JSON text
    blocks, and ``batches`` is the JSON text of the batches; their values in
    ``payload`` are not read.  Every other value goes through ``json.dumps``
    on its own, which writes it as the whole payload's dump would.
    """

    def object_text(obj: dict, value_text) -> Iterator[str]:
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from value_text(key, value)
        yield "}"

    def list_text(texts: list[str]) -> Iterator[str]:
        yield "["
        for i, text in enumerate(texts):
            yield f", {text}" if i else text
        yield "]"

    sampler = object_text(
        payload["sampler"],
        lambda key, value: list_text(lists[key]) if key in lists else (json.dumps(value),),
    )

    def top_level(key, value):
        if key == "sampler":
            return sampler
        return (batches,) if key == "batches" else (json.dumps(value),)

    yield from object_text(payload, top_level)
    yield "\n"


def write_outputs(result: RunResult, out_dir: str | Path) -> None:
    """Write the five output files, each atomically.

    problems.csv is written first of the files that need the bank hash
    or the sampler's per-problem lists: its pass formats every value the
    checkpoint repeats and, on a run that has not hashed its bank yet, the
    bank hash.  Each batch's ids are joined once, for batches.csv, and the
    checkpoint's batches are written from that text.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / METRICS_FILE) as tmp:
        write_metrics_csv(tmp, result.rows, result.config.strategy, result.config.seed)
    ids = result.bank.ids
    batch_texts = [";".join(map(ids.__getitem__, batch.tolist())) for batch in result.batches]
    # No id needs quoting, so this is the text csv.writer would write.
    with replacing(out / BATCHES_FILE) as tmp, open(tmp, "w", newline="") as fh:
        fh.write("step,problem_ids\n")
        fh.writelines(f"{step},{text}\n" for step, text in enumerate(batch_texts, start=1))
    state = result.sampler.state_arrays()
    columns, lists = _final_state_columns(result, state)
    with replacing(out / PROBLEMS_FILE) as tmp, open(tmp, "w", newline="") as fh:
        fh.write("id,level_tag,true_difficulty,t,difficulty,final_pass_rate\n")
        fh.writelines(result.bank.text_blocks("", *columns))
    with replacing(out / SUMMARY_FILE) as tmp, open(tmp, "w") as fh:
        fh.write(json.dumps(result.summary(), indent=2, sort_keys=True) + "\n")
    with replacing(out / CHECKPOINT_FILE) as tmp, open(tmp, "w") as fh:
        payload = _checkpoint_payload(result, state)
        fh.writelines(_checkpoint_text(payload, lists, _batches_json(batch_texts)))


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
    (one row per run) when ``out_dir`` is given.
    """
    if not strategies:
        raise ConfigError("strategies: need at least one")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies: duplicates in {strategies}")
    if seeds is None:
        seeds = [config.seed]
    if not seeds:
        raise ConfigError("seeds: need at least one")
    combined = ComparisonResult()
    for seed in seeds:
        for strategy in strategies:
            run_dir = (
                str(Path(out_dir) / f"{strategy}_seed{seed}") if out_dir is not None else None
            )
            run = config.with_overrides(strategy=strategy, seed=seed, out_dir=run_dir)
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
