"""End-to-end acceptance gate.

Each numbered criterion prints exactly one PASS/FAIL line on the real
stdout (bypassing capture), then asserts.  Larger shared runs live in
module-scoped fixtures so the whole gate stays in the tens of seconds.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from cdas.cli import main as cli_main
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.core import (
    ProblemRecord,
    instantaneous_difficulty,
    update_difficulty,
)
from cdas.fixed_point import EquilibriumProblem, solve
from cdas.grpo import RolloutGroup, group_advantages
from cdas.harness import (
    BATCHES_FILE,
    CHECKPOINT_FILE,
    METRICS_FILE,
    compare_strategies,
    resume_experiment,
    run_experiment,
)
from cdas.learner import SyntheticLearner, generate_bank
from cdas.sampling import CdasSampler

CONTRACTION_BOUND = 0.5 + 1e-9


@contextmanager
def criterion(capsys, number, name):
    """Collects a verdict and prints the one-line summary whatever happens."""
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
    except BaseException as err:
        with capsys.disabled():
            print(f"criterion {number:2d} FAIL: {name} [{err!r}]", flush=True)
        raise
    verdict = "PASS" if outcome["ok"] else "FAIL"
    detail = f" [{outcome['detail']}]" if outcome["detail"] else ""
    with capsys.disabled():
        print(f"criterion {number:2d} {verdict}: {name}{detail}", flush=True)
    assert outcome["ok"], f"criterion {number} {name}{detail}"


# -- shared desk-scale runs ---------------------------------------------------


@pytest.fixture(scope="module")
def utility_comparison():
    """All five strategies on ten seeds at desk defaults (criteria 6, 8, 11 and 14)."""
    start = time.perf_counter()
    comparison = compare_strategies(ExperimentConfig(), list(STRATEGIES), seeds=list(range(10)))
    return comparison, time.perf_counter() - start


@pytest.fixture(scope="module")
def cost_comparison():
    """All five strategies on three seeds at desk defaults (criterion 7)."""
    return compare_strategies(ExperimentConfig(), list(STRATEGIES), seeds=[0, 1, 2])


# -- criteria -----------------------------------------------------------------


def test_criterion_01_fixed_point_contraction(capsys):
    with criterion(capsys, 1, "fixed-point contraction, convergence, uniqueness") as out:
        rng = np.random.default_rng(20240817)
        sizes = (1, 2, 10, 100, 1000)
        worst_ratio = 0.0
        worst_iterations = 0
        worst_spread = 0.0
        start = time.perf_counter()
        for index in range(100):
            n = sizes[index % len(sizes)]
            s_star = rng.uniform(0.0, 1.0, size=n)
            limits = []
            for _ in range(10):
                problem = EquilibriumProblem(
                    s_star=s_star,
                    init_d=rng.uniform(-5.0, 5.0, size=n),
                    init_c=float(rng.uniform(-5.0, 5.0)),
                )
                solution = solve(problem, tolerance=1e-10, max_iters=60)
                if solution.contraction_ratios:
                    worst_ratio = max(worst_ratio, max(solution.contraction_ratios))
                worst_iterations = max(worst_iterations, solution.iterations)
                limits.append((solution.d_star, solution.c_star))
            d0, c0 = limits[0]
            for d, c in limits[1:]:
                spread = max(float(np.max(np.abs(d - d0))), abs(c - c0))
                worst_spread = max(worst_spread, spread)
        elapsed = time.perf_counter() - start
        out["ok"] = (
            worst_ratio <= CONTRACTION_BOUND
            and worst_iterations <= 60
            and worst_spread <= 1e-8
            and elapsed < 10.0
        )
        out["detail"] = (
            f"max ratio {worst_ratio:.6f}, max iters {worst_iterations}, "
            f"init spread {worst_spread:.2e}, {elapsed:.1f}s"
        )


def test_criterion_02_analytic_fixed_points(capsys):
    with criterion(capsys, 2, "analytic fixed points") as out:
        balanced = solve(EquilibriumProblem(s_star=np.full(32, 0.5)), tolerance=1e-10)
        balanced_ok = (
            float(np.max(np.abs(balanced.d_star))) <= 1e-10
            and abs(balanced.c_star) <= 1e-10
        )

        # Independent oracle: at a single-problem equilibrium c = -d, so d is
        # the root of sigmoid(-2d) - 0.8 - d, bracketed in [-1, 0].
        def defect(d):
            return 1.0 / (1.0 + math.exp(2.0 * d)) - 0.8 - d

        lo, hi = -1.0, 0.0
        f_lo = defect(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = defect(mid)
            if f_lo * f_mid <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        root = 0.5 * (lo + hi)
        single = solve(EquilibriumProblem(s_star=np.array([0.8])), tolerance=1e-12)
        single_gap = abs(single.d_star[0] - root)
        out["ok"] = balanced_ok and single_gap <= 1e-8
        out["detail"] = (
            f"balanced residual {float(np.max(np.abs(balanced.d_star))):.2e}, "
            f"bisection gap {single_gap:.2e}"
        )


def test_criterion_03_incremental_mean_oracle(capsys):
    with criterion(capsys, 3, "incremental difficulty updates match batch means") as out:
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(1000):
            length = int(10 ** rng.uniform(0.0, 4.0))
            values = rng.uniform(-1.0, 1.0, size=length)
            record = ProblemRecord(id="q")
            for value in values:
                record = update_difficulty(record, float(value))
            worst = max(worst, abs(record.difficulty - float(np.mean(values))))
        out["ok"] = worst <= 1e-10
        out["detail"] = f"max |incremental - mean| = {worst:.2e} over 1000 sequences"


def test_criterion_04_grpo_group_statistics(capsys):
    with criterion(capsys, 4, "group advantage normalization and zero-gradient flag") as out:
        exact = group_advantages(
            RolloutGroup(problem_id="q", rewards=(1.0, 1.0, 0.0, 0.0))
        )
        exact_ok = exact == ([1.0, 1.0, -1.0, -1.0], False)

        rng = np.random.default_rng(404)
        worst_mean = 0.0
        worst_std = 0.0
        flag_mismatches = 0
        degenerate = 0
        for _ in range(10_000):
            size = int(rng.integers(2, 17))
            p = rng.random()
            rewards = tuple(1.0 if x < p else 0.0 for x in rng.random(size))
            advantages, zero = group_advantages(
                RolloutGroup(problem_id="q", rewards=rewards)
            )
            pass_rate = sum(rewards) / size
            if zero != (pass_rate in (0.0, 1.0)):
                flag_mismatches += 1
            if zero:
                degenerate += 1
                continue
            mean = sum(advantages) / size
            std = math.sqrt(sum((a - mean) ** 2 for a in advantages) / size)
            worst_mean = max(worst_mean, abs(mean))
            worst_std = max(worst_std, abs(std - 1.0))
        out["ok"] = (
            exact_ok
            and flag_mismatches == 0
            and worst_mean <= 1e-12
            and worst_std <= 1e-9
        )
        out["detail"] = (
            f"|mean| <= {worst_mean:.1e}, |std-1| <= {worst_std:.1e}, "
            f"{degenerate} degenerate groups, flag mismatches {flag_mismatches}"
        )


def test_criterion_05_symmetric_batch_law(capsys):
    with criterion(capsys, 5, "post-warm-up batches split evenly and take best alignments") as out:
        config = ExperimentConfig()
        bank_ss, sampler_ss, learner_ss = np.random.SeedSequence(config.seed).spawn(3)
        bank = generate_bank(config, np.random.default_rng(bank_ss))
        sampler = CdasSampler(config, bank, np.random.default_rng(sampler_ss))
        learner = SyntheticLearner(config, bank, np.random.default_rng(learner_ss))
        half = config.batch_size // 2
        checked = exact_splits = violations = 0
        for _ in range(config.total_steps):
            in_warmup = sampler.in_warmup()
            competence = sampler.competence_value
            difficulty = dict(zip(bank.ids, sampler.estimates.tolist()))
            batch = sampler.select_batch()
            if not in_warmup:
                checked += 1
                chosen = set(batch)
                harder_pool = [
                    (abs(competence - d), pid) for pid, d in difficulty.items() if d > competence
                ]
                easier_pool = [
                    (abs(competence - d), pid) for pid, d in difficulty.items() if d <= competence
                ]
                in_batch_harder = sum(1 for pid in batch if difficulty[pid] > competence)
                if len(harder_pool) >= half and len(easier_pool) >= half:
                    exact_splits += 1
                    if in_batch_harder != half:
                        violations += 1
                for pool in (harder_pool, easier_pool):
                    picked = [a for a, pid in pool if pid in chosen]
                    skipped = [a for a, pid in pool if pid not in chosen]
                    if picked and skipped and max(picked) > min(skipped):
                        violations += 1
            groups = [
                learner.rollout_group(pid, latent)
                for pid, latent in zip(batch, bank.latent[sampler.pending].tolist())
            ]
            sampler.report([g.pass_rate for g in groups])
            learner.learn_step([g.rewards.count(1.0) for g in groups])
        out["ok"] = violations == 0 and checked > 0 and exact_splits > 0
        out["detail"] = (
            f"{checked} post-warm-up steps checked, {exact_splits} with both pools "
            f"full, {violations} violations"
        )


def test_criterion_06_zero_gradient_utility(capsys, utility_comparison):
    with criterion(capsys, 6, "alignment sampling wastes fewer rollouts than random") as out:
        comparison, elapsed = utility_comparison
        by_key = {
            (r.config.strategy, r.config.seed): r.summary()[
                "post_warmup_zero_gradient_mean"
            ]
            for r in comparison.results
        }
        seeds = sorted({seed for _, seed in by_key})
        wins = sum(
            1 for seed in seeds if by_key[("cdas", seed)] < by_key[("random", seed)]
        )
        out["ok"] = wins >= 8 and elapsed < 300.0
        out["detail"] = f"cdas lower in {wins}/{len(seeds)} seeds, runs took {elapsed:.0f}s"


def test_criterion_07_dynamic_sampling_cost(capsys, cost_comparison):
    with criterion(capsys, 7, "dynamic sampling pays for its filtering") as out:
        config = ExperimentConfig()
        flat_cost = config.total_steps * config.batch_size
        consumed = {
            (r.config.strategy, r.config.seed): r.summary()["cumulative_rollout_batches"]
            for r in cost_comparison.results
        }
        seeds = sorted({seed for _, seed in consumed})
        flat_ok = all(
            consumed[(strategy, seed)] == flat_cost
            for strategy in STRATEGIES
            if strategy != "dynamic"
            for seed in seeds
        )
        triggered = 0
        cost_ok = True
        ratios = []
        for seed in seeds:
            dynamic_cost = consumed[("dynamic", seed)]
            # Candidates are uniform bank draws, so the filtered fraction of
            # the run's own candidates estimates the bank's zero-gradient rate.
            filtered_fraction = 1.0 - flat_cost / dynamic_cost
            ratios.append(dynamic_cost / flat_cost)
            if filtered_fraction >= 0.2:
                triggered += 1
                others = max(
                    consumed[(strategy, seed)]
                    for strategy in STRATEGIES
                    if strategy != "dynamic"
                )
                if dynamic_cost < 1.2 * others:
                    cost_ok = False
        out["ok"] = flat_ok and cost_ok and triggered > 0
        out["detail"] = (
            f"flat strategies at {flat_cost} exactly: {flat_ok}; dynamic/flat ratios "
            f"{', '.join(f'{r:.2f}' for r in ratios)}; condition met in "
            f"{triggered}/{len(seeds)} seeds"
        )


def test_criterion_08_history_sensitivity(capsys, utility_comparison):
    with criterion(capsys, 8, "difficulty remembers history beyond the last pass rate") as out:
        # Replay two constructed histories at fixed competence 0: A fails 24
        # times then passes; B passes from its first observation.
        slow = ProblemRecord(id="slow")
        for _ in range(24):
            slow = update_difficulty(
                slow, instantaneous_difficulty(0.0, slow.difficulty, 0.0)
            )
        slow = update_difficulty(slow, instantaneous_difficulty(0.0, slow.difficulty, 1.0))
        fast = ProblemRecord(id="fast")
        for _ in range(25):
            fast = update_difficulty(
                fast, instantaneous_difficulty(0.0, fast.difficulty, 1.0)
            )
        replay_ok = slow.difficulty > fast.difficulty

        comparison, _ = utility_comparison
        run = next(
            r
            for r in comparison.results
            if r.config.strategy == "cdas" and r.config.seed == 0
        )
        state = run.sampler.state_arrays()
        seen = state["t"] >= 1
        pairs = list(
            zip(state["difficulty"][seen].tolist(), state["last_pass_rate"][seen].tolist())
        )
        rho = spearmanr([d for d, _ in pairs], [s for _, s in pairs]).statistic
        out["ok"] = replay_ok and rho < 0.0
        out["detail"] = (
            f"replayed D_slow {slow.difficulty:.3f} > D_fast {fast.difficulty:.3f}: "
            f"{replay_ok}; spearman(D, final pass rate) = {rho:.3f} over {len(pairs)} problems"
        )


def test_criterion_09_determinism_and_resume(capsys, tmp_path):
    with criterion(capsys, 9, "byte-identical reruns and exact resume") as out:
        config = ExperimentConfig(total_steps=20)
        first = tmp_path / "first"
        second = tmp_path / "second"
        split = tmp_path / "split"
        run_experiment(config.with_overrides(out_dir=str(first)))
        run_experiment(config.with_overrides(out_dir=str(second)))
        rerun_ok = (first / METRICS_FILE).read_bytes() == (second / METRICS_FILE).read_bytes()

        run_experiment(config.with_overrides(out_dir=str(split)), stop_after=10)
        resume_experiment(split / CHECKPOINT_FILE)
        resume_ok = (split / METRICS_FILE).read_bytes() == (first / METRICS_FILE).read_bytes()
        batches_ok = (split / BATCHES_FILE).read_bytes() == (first / BATCHES_FILE).read_bytes()
        out["ok"] = rerun_ok and resume_ok and batches_ok
        out["detail"] = (
            f"rerun identical: {rerun_ok}; resumed metrics identical: {resume_ok}; "
            f"resumed batches identical: {batches_ok}"
        )


def test_criterion_10_ablation_flags(capsys, tmp_path):
    with criterion(capsys, 10, "symmetry and warm-up toggles change the schedule") as out:
        flags = [
            "--n-problems", "200",
            "--batch-size", "16",
            "--rollouts", "4",
            "--steps", "16",
            "--seed", "0",
        ]
        runs = {
            "default": [],
            "no_symmetric": ["--no-symmetric"],
            "no_warmup": ["--no-warmup"],
        }
        codes = {}
        batches = {}
        metrics = {}
        for name, extra in runs.items():
            out_dir = tmp_path / name
            codes[name] = cli_main(["run", *flags, *extra, "--out", str(out_dir)])
            lines = (out_dir / BATCHES_FILE).read_text().splitlines()[1:]
            batches[name] = [line.split(",", 1)[1].split(";") for line in lines]
            metrics[name] = (out_dir / METRICS_FILE).read_bytes()

        def diverges_after_step_one(name):
            return any(
                batches["default"][i] != batches[name][i]
                for i in range(1, len(batches[name]))
            )

        completed = all(code == 0 for code in codes.values())
        schedule_ok = diverges_after_step_one("no_symmetric") and diverges_after_step_one(
            "no_warmup"
        )
        metrics_ok = (
            metrics["default"] != metrics["no_symmetric"]
            and metrics["default"] != metrics["no_warmup"]
        )
        out["ok"] = completed and schedule_ok and metrics_ok
        out["detail"] = (
            f"exit codes {sorted(set(codes.values()))}; schedules diverge past step 1: "
            f"{schedule_ok}; metrics differ: {metrics_ok}"
        )


def test_criterion_11_estimates_track_latent_difficulty(capsys, utility_comparison):
    with criterion(capsys, 11, "difficulty estimates track the latent difficulty") as out:
        # Simulation only: the synthetic bank knows each problem's latent
        # difficulty, which a real training set does not.
        comparison, _ = utility_comparison
        rhos = []
        for run in comparison.results:
            if run.config.strategy != "cdas":
                continue
            state = run.sampler.state_arrays()
            visited = state["t"] >= 1
            seen = list(
                zip(state["difficulty"][visited].tolist(), run.bank.latent[visited].tolist())
            )
            rhos.append(
                spearmanr([d for d, _ in seen], [latent for _, latent in seen]).statistic
            )
        out["ok"] = len(rhos) == 10 and min(rhos) > 0.6
        out["detail"] = (
            f"spearman(D, latent difficulty) {min(rhos):.3f} to {max(rhos):.3f} "
            f"over {len(rhos)} cdas seeds"
        )


def test_criterion_14_cdas_estimates_beat_the_baselines_pass_rates(capsys, utility_comparison):
    name = "cdas estimates track latent difficulty better than any baseline's"
    with criterion(capsys, 14, name) as out:
        # The paper's estimation claim: aggregating historical discrepancies
        # estimates difficulty better than the last pass rate the baselines
        # schedule by.  Each run is scored over the problems it has seen:
        # t >= 1 for cdas, a reported pass rate for a baseline.  A last pass
        # rate takes at most G + 1 values, so ties are many; spearmanr gives
        # tied values their average rank.
        comparison, _ = utility_comparison
        rhos: dict[str, list[float]] = {}
        for run in comparison.results:
            state = run.sampler.state_arrays()
            if run.config.strategy == "cdas":
                seen = state["t"] >= 1
                estimate = state["difficulty"][seen]
            else:
                seen = ~np.isnan(state["last_pass_rate"])
                estimate = 1.0 - state["last_pass_rate"][seen]
            rho = spearmanr(estimate, run.bank.latent[seen]).statistic
            rhos.setdefault(run.config.strategy, []).append(float(rho))
        cdas = rhos.pop("cdas")
        best = max(max(values) for values in rhos.values())
        out["ok"] = len(cdas) == 10 and len(rhos) == 4 and min(cdas) > best
        ranges = "; ".join(
            f"{name} {min(values):.3f} to {max(values):.3f}" for name, values in rhos.items()
        )
        out["detail"] = (
            f"spearman with latent difficulty, ties at average ranks: cdas D {min(cdas):.3f} "
            f"to {max(cdas):.3f}; 1 - last pass rate: {ranges}; margin {min(cdas) - best:.3f}"
        )
