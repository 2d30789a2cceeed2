"""The four cdas benchmark workloads, their output checks and their metrics.

Every workload drives the library through its public entry points
(``compare_strategies``, ``run_experiment``, ``resume_experiment`` and
``fixed_point.solve``) from one thread in one process.  The loop is closed:
the harness calls the sampler and waits for each step.  A workload repeats
one *unit* of work until the measuring window is spent; end-to-end numbers
are medians over the untraced units, per-layer numbers come from traced
units (see ``tracing``).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cdas import ExperimentConfig, fixed_point, harness
from cdas.core import update_competence

from tracing import Tracer, instrument

STRATEGIES = ("cdas", "random", "curriculum", "prioritized", "dynamic")
ARTIFACTS = ("metrics.csv", "batches.csv", "problems.csv")
OUTPUT_FILES = ("metrics.csv", "batches.csv", "problems.csv", "summary.json")
CHECKPOINT = "checkpoint.json"

SIZES = {
    "desk-compare": {"n_problems": 2000, "batch_size": 128, "total_steps": 150},
    "cdas-large": {"n_problems": 100_000, "batch_size": 1024, "total_steps": 130},
    "resume-chain": {
        "n_problems": 100_000,
        "batch_size": 1024,
        "total_steps": 30,
        "resume_every": 10,
    },
    "fixed-point": {"n": 1_000_000},
}

# Each run times at least MIN_SETUPS set-ups, more while they are cheap, and
# reports their median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 1.0


@dataclass
class Unit:
    """What one repetition of a workload produced, reduced to what the metrics need."""

    steps: int
    digests: dict[str, str]
    failures: list[str]
    quality: dict[str, float] = field(default_factory=dict)
    zero_gradient: list[float] = field(default_factory=list)  # per step, all runs
    uniform_fallbacks: int = 0
    file_mb: dict[str, float] = field(default_factory=dict)
    solver: dict[str, float] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- output checks ------------------------------------------------------------


def check_batches(run_dir: Path, batch_size: int, total_steps: int) -> list[str]:
    """Every batch in batches.csv holds ``batch_size`` distinct ids known to the bank."""
    known = {
        line.split(",", 1)[0]
        for line in (run_dir / "problems.csv").read_text().splitlines()[1:]
    }
    lines = (run_dir / "batches.csv").read_text().splitlines()[1:]
    failures = []
    if len(lines) != total_steps:
        failures.append(f"{run_dir.name}: {len(lines)} batches, expected {total_steps}")
    for line in lines:
        step, _, ids = line.partition(",")
        batch = ids.split(";")
        if len(batch) != batch_size or len(set(batch)) != batch_size:
            failures.append(f"{run_dir.name}: step {step} batch is not {batch_size} distinct ids")
        elif not known.issuperset(batch):
            failures.append(f"{run_dir.name}: step {step} batch has ids outside the bank")
    return failures


def check_identical(run_dir: Path, reference_dir: Path) -> list[str]:
    """The run's artifacts match the reference run's byte for byte."""
    return [
        f"{run_dir.name}/{name} differs from the uninterrupted run"
        for name in ARTIFACTS
        if (run_dir / name).read_bytes() != (reference_dir / name).read_bytes()
    ]


def check_competence(result) -> list[str]:
    """Final competence equals the scalar oracle over the final records, bit for bit."""
    sampler = result.sampler
    oracle = update_competence(sampler.records.values())
    failures = []
    if sampler.competence_value != oracle:
        failures.append(f"competence {sampler.competence_value!r} != oracle {oracle!r}")
    if result.rows[-1].competence != oracle:
        failures.append(f"metrics competence {result.rows[-1].competence!r} != oracle {oracle!r}")
    return failures


def check_solution(solution, problem, tolerance: float) -> list[str]:
    failures = []
    residual = fixed_point.equation_residual(solution.d_star, solution.c_star, problem.s_star)
    if not residual <= 10.0 * tolerance:
        failures.append(f"equation residual {residual:.3e} > 10 x tolerance {tolerance:g}")
    worst = max(solution.contraction_ratios, default=0.0)
    if not worst <= 0.5:
        failures.append(f"contraction ratio {worst!r} > 0.5")
    return failures


def _run_outputs(run_dir: Path, label: str) -> tuple[dict[str, str], dict[str, float]]:
    digests = {f"{label}/{name}": sha256_file(run_dir / name) for name in ARTIFACTS}
    sizes = {
        "outputs": sum((run_dir / name).stat().st_size for name in OUTPUT_FILES) / 1e6,
        "checkpoint": (run_dir / CHECKPOINT).stat().st_size / 1e6,
    }
    return digests, sizes


def useful_rollout_frac(result) -> float:
    """Non-zero-gradient groups trained on over rollout groups consumed."""
    useful = sum(
        round((1.0 - row.zero_gradient_fraction) * len(batch))
        for row, batch in zip(result.rows, result.batches)
    )
    consumed = sum(row.rollout_batches_consumed for row in result.rows)
    return useful / consumed


def quality(results) -> dict[str, float]:
    out = {}
    for result in results:
        out[f"final_ability.{result.config.strategy}"] = result.learner.ability
        out[f"useful_rollout_frac.{result.config.strategy}"] = useful_rollout_frac(result)
    return out


def desk_quality(seed: int, desk: dict) -> dict[str, float]:
    """Learning quality of the five strategies at desk scale on this seed's bank."""
    config = ExperimentConfig(seed=seed, **desk)
    return quality(harness.compare_strategies(config, list(STRATEGIES)).results)


# -- workloads ----------------------------------------------------------------


class LoopWorkload:
    """Shared parts of the three workloads that run the scheduling loop."""

    strategies: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: dict, work_dir: Path):
        self.sizes = sizes[self.name]
        self.desk = sizes["desk-compare"]
        self.work_dir = work_dir
        self.config = ExperimentConfig(
            seed=seed,
            n_problems=self.sizes["n_problems"],
            batch_size=self.sizes["batch_size"],
            total_steps=self.sizes["total_steps"],
            strategy=self.strategies[0],
        )

    def setup(self) -> None:
        """Bank, learner and sampler construction plus the first step, per strategy."""
        for strategy in self.strategies:
            harness.run_experiment(self.config.with_overrides(strategy=strategy), stop_after=1)

    def prepare(self) -> None:
        pass

    def quality(self) -> dict[str, float] | None:
        return desk_quality(self.config.seed, self.desk)

    def run_dirs(self, results, out: Path) -> list[Path]:
        return [out]

    def checks(self, results, out: Path) -> list[str]:
        """Workload-specific output checks on top of the batch check."""
        return []

    def inspect(self, results, out: Path) -> Unit:
        """Check one unit's outputs and keep what the metrics need; not timed."""
        failures = self.checks(results, out)
        digests: dict[str, str] = {}
        sizes = {"outputs": 0.0, "checkpoint": 0.0}
        for result, run_dir in zip(results, self.run_dirs(results, out)):
            failures += check_batches(run_dir, self.config.batch_size, self.config.total_steps)
            run_digests, run_sizes = _run_outputs(run_dir, result.config.strategy)
            digests.update(run_digests)
            for key, value in run_sizes.items():
                sizes[key] += value / len(results)
        return Unit(
            steps=sum(len(result.rows) for result in results),
            digests=digests,
            failures=failures,
            quality=quality(results),
            zero_gradient=[row.zero_gradient_fraction for r in results for row in r.rows],
            uniform_fallbacks=sum(r.summary().get("uniform_fallbacks", 0) for r in results),
            file_mb=sizes,
        )


class DeskCompare(LoopWorkload):
    name = "desk-compare"
    strategies = STRATEGIES

    def quality(self) -> dict[str, float] | None:
        return None  # the timed units are the desk comparison itself

    def unit(self, out: Path) -> list:
        return harness.compare_strategies(self.config, list(self.strategies), out_dir=out).results

    def run_dirs(self, results, out: Path) -> list[Path]:
        return [out / f"{r.config.strategy}_seed{r.config.seed}" for r in results]


class CdasLarge(LoopWorkload):
    name = "cdas-large"
    strategies = ("cdas",)

    def unit(self, out: Path) -> list:
        return [harness.run_experiment(self.config.with_overrides(out_dir=str(out)))]

    def checks(self, results, out: Path) -> list[str]:
        return check_competence(results[0])


class ResumeChain(LoopWorkload):
    name = "resume-chain"
    strategies = ("curriculum",)

    def prepare(self) -> None:
        """One uninterrupted run of the same config, outside the timed region."""
        self.reference = self.work_dir / "reference"
        harness.run_experiment(self.config.with_overrides(out_dir=str(self.reference)))

    def unit(self, out: Path) -> list:
        every = self.sizes["resume_every"]
        config = self.config.with_overrides(out_dir=str(out))
        result = harness.run_experiment(config, stop_after=every)
        for stop in range(2 * every, self.config.total_steps + every, every):
            result = harness.resume_experiment(out / CHECKPOINT, stop_after=stop)
        return [result]

    def checks(self, results, out: Path) -> list[str]:
        return check_identical(out, self.reference)


class FixedPoint:
    name = "fixed-point"
    tolerance = 1e-10

    def __init__(self, seed: int, sizes: dict, work_dir: Path):
        n = sizes[self.name]["n"]
        self.seed = seed
        self.desk = sizes["desk-compare"]
        rng = np.random.default_rng(seed)
        self.s_star = rng.uniform(0.0, 1.0, n)
        self.init_d = rng.uniform(-5.0, 5.0, n)
        # Competence starts at the far corner of the box: a random start
        # there sets the iteration count, so every seed would solve a
        # different amount of work.
        self.init_c = 5.0

    def setup(self):
        """Build and validate the solver's input."""
        return fixed_point.EquilibriumProblem(
            s_star=self.s_star, init_d=self.init_d, init_c=self.init_c
        )

    def prepare(self) -> None:
        pass

    def quality(self) -> dict[str, float] | None:
        return desk_quality(self.seed, self.desk)

    def unit(self, out: Path):
        problem = self.setup()
        return problem, fixed_point.solve(problem, tolerance=self.tolerance)

    def inspect(self, solved, out: Path) -> Unit:
        problem, solution = solved
        digest = hashlib.sha256(solution.d_star.tobytes())
        digest.update(repr(solution.c_star).encode())
        return Unit(
            steps=solution.iterations,
            digests={"solution": digest.hexdigest()},
            failures=check_solution(solution, problem, self.tolerance),
            solver={
                "iterations": solution.iterations,
                "max_ratio": max(solution.contraction_ratios, default=0.0),
                "trajectory_mb": len(solution.trajectory) * self.s_star.size * 8 / 1e6,
            },
        )


WORKLOADS = {cls.name: cls for cls in (DeskCompare, CdasLarge, ResumeChain, FixedPoint)}


# -- measuring ----------------------------------------------------------------


class Attempts:
    """Counts library runs attempted and failed; a raise or a failed check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Time ``fn`` from a freshly collected heap; (None, seconds) if it raised."""
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        result = self.check(fn, *args)
        return result, perf_counter() - start

    def check(self, fn, *args):
        """Call ``fn`` within the current attempt; a raise fails the attempt."""
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)


@dataclass
class Measured:
    wall: float
    unit: Unit


def _units(workload, attempts, deadline: float, work_dir: Path, reference: dict | None):
    """Repeat units until ``deadline`` (at least one); stop at the first failure."""
    measured: list[Measured] = []
    while not measured or perf_counter() < deadline:
        out = work_dir / f"unit{attempts.attempted}"
        raw, wall = attempts.run(workload.unit, out)
        unit = attempts.check(workload.inspect, raw, out) if raw is not None else None
        del raw
        if unit is None:
            break
        if reference is not None and unit.digests != reference:
            unit.failures.append("artifacts differ from the first unit of the same seed")
        reference = reference if reference is not None else unit.digests
        shutil.rmtree(out, ignore_errors=True)
        if unit.failures:
            attempts.fail(unit.failures)
            break
        measured.append(Measured(wall, unit))
    return measured, reference


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    record: dict
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.metrics)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work_dir: Path, sizes: dict | None = None
) -> Outcome:
    """Measure one workload: end-to-end metrics untraced, or per-layer metrics traced.

    A traced run spends the first half of the window on untraced units and the
    second half on traced ones, so the tracing overhead is measured in-run.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    attempts = Attempts()
    workload = WORKLOADS[name](seed, sizes or SIZES, work_dir)

    setups, desk = [], None
    if not trace:
        while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S
        ):
            before = attempts.failed
            _, elapsed = attempts.run(workload.setup)
            if attempts.failed > before:
                break
            setups.append(elapsed)
        desk, _ = attempts.run(workload.quality)
    attempts.run(workload.prepare)

    window = seconds / 2 if trace else seconds
    plain, reference = _units(workload, attempts, perf_counter() + window, work_dir, None)
    tracer, traced = None, []
    if trace and plain:
        tracer = Tracer()
        with instrument(tracer):
            traced, _ = _units(workload, attempts, perf_counter() + window, work_dir, reference)

    record = {
        "artifact_sha256": reference,
        "setup_s": setups,
        "unit_wall_s": [m.wall for m in plain],
        "traced_unit_wall_s": [m.wall for m in traced],
    }
    if attempts.failed:
        return Outcome(attempts.attempted, attempts.failed, {}, record, tracer)
    if trace:
        metrics = layer_metrics(tracer, traced, plain)
        record["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end_metrics(plain, setups, desk or plain[0].unit.quality)
    return Outcome(attempts.attempted, attempts.failed, metrics, record, tracer)


def end_to_end_metrics(plain: list[Measured], setups: list[float], quality: dict) -> dict:
    wall = statistics.median(m.wall for m in plain)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "steps_per_s": plain[0].unit.steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }


def layer_metrics(tracer: Tracer, traced: list[Measured], plain: list[Measured]) -> dict:
    calls, seconds = tracer.calls, tracer.seconds
    units = len(traced)

    def per_call(name, scale, self_time=False):
        total = tracer.self_seconds[name] if self_time else seconds[name]
        return scale * total / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    steps = tracer.durations("harness.step")
    resumes = calls["harness.resume_experiment"]
    zero_gradient = [z for m in traced for z in m.unit.zero_gradient]
    solver = [m.unit.solver for m in traced if m.unit.solver]
    sizes = [m.unit.file_mb for m in traced if m.unit.file_mb]
    return {
        "sampling.select_ms.warmup": per_call("sampling.select.warmup", 1e3),
        "sampling.select_ms.post_warmup": per_call("sampling.select.post_warmup", 1e3),
        "sampling.report_ms": per_call("sampling.report", 1e3),
        "sampling.backfill_steps": calls["sampling.backfill"] / units,
        "core.update_competence_ms": per_call("core.update_competence", 1e3),
        "core.update_difficulty_calls": calls["core.update_difficulty"] / units,
        "core.instantaneous_difficulty_calls": calls["core.instantaneous_difficulty"] / units,
        "baselines.select_ms.random": per_call("baselines.select.random", 1e3),
        "baselines.select_ms.curriculum": per_call("baselines.select.curriculum", 1e3),
        "baselines.select_ms.prioritized": per_call("baselines.select.prioritized", 1e3),
        "baselines.report_ms": per_call("baselines.report", 1e3),
        "baselines.dynamic.filter_ms": per_call("baselines.dynamic.filter", 1e3, self_time=True),
        "baselines.dynamic.rollouts_per_step": ratio(
            calls["baselines.dynamic.rollouts"], calls["baselines.dynamic.filter"]
        ),
        "baselines.dynamic.keep_frac": ratio(
            calls["baselines.dynamic.interior"], calls["baselines.dynamic.rollouts"]
        ),
        "baselines.dynamic.padded_steps": calls["baselines.dynamic.padded"] / units,
        "baselines.prioritized.uniform_fallbacks": mean(m.unit.uniform_fallbacks for m in traced),
        "learner.rollout_us": per_call("learner.rollout", 1e6),
        "learner.rollout_calls": calls["learner.rollout"] / units,
        "learner.learn_ms": per_call("learner.learn", 1e3),
        "learner.generate_bank_s": per_call("learner.generate_bank", 1.0),
        "grpo.advantage_calls_per_step": ratio(calls["grpo.advantage"], len(steps)),
        "grpo.advantage_us": per_call("grpo.advantage", 1e6),
        "grpo.zero_gradient_frac": ratio(sum(zero_gradient), len(zero_gradient)),
        "metrics.summarize_ms": per_call("metrics.summarize", 1e3, self_time=True),
        "harness.step_ms.p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "harness.step_ms.p99": 1e3 * float(np.percentile(steps, 99)) if steps else 0.0,
        "harness.write_s": per_call("harness.write", 1.0),
        "harness.checkpoint_mb": mean(s["checkpoint"] for s in sizes),
        "harness.outputs_mb": mean(s["outputs"] for s in sizes),
        "harness.load_checkpoint_s": per_call("harness.load_checkpoint", 1.0),
        "harness.restore_s": ratio(seconds["harness.restore"], resumes),
        "harness.resume_bank_s": ratio(
            tracer.seconds_under(
                {"learner.generate_bank", "learner.bank_hash"}, "harness.resume_experiment"
            ),
            resumes,
        ),
        "fixed_point.iterations": mean(s["iterations"] for s in solver),
        "fixed_point.iterate_ms": per_call("fixed_point.iterate", 1e3),
        "fixed_point.max_ratio": max((s["max_ratio"] for s in solver), default=0.0),
        "fixed_point.trajectory_mb": mean(s["trajectory_mb"] for s in solver),
        "trace_overhead_frac": statistics.median(m.wall for m in traced)
        / statistics.median(m.wall for m in plain)
        - 1.0,
    }


def environment(root: Path) -> dict:
    return {
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None
