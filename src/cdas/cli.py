"""Command-line interface: run, compare, resume, fixed-point, bank."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from collections import Counter
from pathlib import Path

import numpy as np

from .config import BANK_MODES, STRATEGIES, ExperimentConfig
from .errors import ConfigError, ConsistencyError, ConvergenceError, RolloutBudgetError
from .files import read_json, replacing
from .fixed_point import EquilibriumProblem, solve, write_trajectory_csv
from .harness import compare_strategies, draw_bank, resume_experiment, run_experiment
from .learner import load_bank, save_bank

# Flags spelled other than their field, and fields restricted to fixed choices.
_FLAG_NAMES = {"total_steps": ("--steps", "--total-steps"), "out_dir": ("--out", "--out-dir")}
_FLAG_CHOICES = {"strategy": STRATEGIES, "bank_mode": BANK_MODES}
# The fields that decide the bank a run with the same values draws.
_BANK_FIELDS = ("n_problems", "seed", "bank_mode", "bank_scale")


def _add_config_flags(parser: argparse.ArgumentParser, fields=None) -> None:
    """A flag per ExperimentConfig field in ``fields`` (default all); unset, it keeps the value."""
    parser.add_argument("--config", metavar="PATH", help="JSON config file to start from")
    hints = typing.get_type_hints(ExperimentConfig)
    for field in dataclasses.fields(ExperimentConfig):
        if fields is not None and field.name not in fields:
            continue
        names = _FLAG_NAMES.get(field.name, ("--" + field.name.replace("_", "-"),))
        hint = hints[field.name]
        # An optional field parses as its non-None type.
        kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
        if kind is bool:
            parser.add_argument(
                *names, dest=field.name, action=argparse.BooleanOptionalAction, default=None
            )
        else:
            parser.add_argument(
                *names, dest=field.name, type=kind, choices=_FLAG_CHOICES.get(field.name)
            )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # A field without a flag on this command keeps the config's value too.
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(ExperimentConfig)}
    # The flags apply before the file's config is built, and so checked.
    if args.config:
        return ExperimentConfig.from_file(args.config, **flags)
    return ExperimentConfig().with_overrides(**flags)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config, stop_after=args.stop_after)
    summary = result.summary()
    print(
        f"{summary['strategy']} seed={summary['seed']}: "
        f"{summary['completed_steps']}/{summary['total_steps']} steps, "
        f"final ability {summary['final_ability']:.4f}, "
        f"rollout batches {summary['cumulative_rollout_batches']}"
    )
    if config.out_dir is not None:
        print(f"outputs in {config.out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as err:
            raise ConfigError(f"seeds: expected comma-separated integers ({err})") from err
    else:
        seeds = [config.seed]
    comparison = compare_strategies(config, strategies, seeds=seeds)
    for row in comparison.summary_rows():
        post = row["post_warmup_zero_gradient_mean"]
        post_text = f"{post:.4f}" if post is not None else "n/a"
        print(
            f"{row['strategy']:<12} seed={row['seed']:<4} "
            f"ability={row['final_ability']:.4f} "
            f"post_warmup_zero_grad={post_text} "
            f"rollout_batches={row['cumulative_rollout_batches']}"
        )
    if config.out_dir is not None:
        print(f"outputs in {config.out_dir}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    result = resume_experiment(args.checkpoint, out_dir=args.out_dir, stop_after=args.stop_after)
    summary = result.summary()
    print(
        f"{summary['strategy']} seed={summary['seed']}: "
        f"{summary['completed_steps']}/{summary['total_steps']} steps, "
        f"final ability {summary['final_ability']:.4f}"
    )
    print(f"outputs in {result.config.out_dir}")
    return 0


def _load_s_star(path: str) -> np.ndarray:
    if path.endswith(".json"):
        values = read_json(path, "s_star file")
        # By exact type: bool is an int subclass, and numpy would parse a string.
        if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
            raise ConfigError(f"s_star file {path}: expected a JSON list of numbers")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
            values = [float(line) for line in text.split() if line.strip()]
        except ValueError as err:  # UnicodeDecodeError among others
            raise ConfigError(f"s_star file {path}: {err}") from err
    if not values:
        raise ConfigError(f"s_star file {path}: no values found")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as err:
        raise ConfigError(f"s_star file {path}: {err}") from err


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    s_star = _load_s_star(args.s_star)
    try:
        if args.init_seed is not None:
            rng = np.random.default_rng(args.init_seed)
            problem = EquilibriumProblem(
                s_star=s_star,
                init_d=rng.uniform(-5.0, 5.0, size=s_star.size),
                init_c=float(rng.uniform(-5.0, 5.0)),
            )
        else:
            problem = EquilibriumProblem(s_star=s_star)
        solution = solve(problem, tolerance=args.tolerance, max_iters=args.max_iters)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    worst = max(solution.contraction_ratios, default=0.0)
    print(
        f"converged in {solution.iterations} iterations: "
        f"c*={solution.c_star!r}, residual={solution.final_residual:.3e}, "
        f"max contraction ratio={worst:.4f}"
    )
    if args.out is not None:
        payload = {
            "c_star": solution.c_star,
            "d_star": solution.d_star.tolist(),
            "iterations": solution.iterations,
            "final_residual": solution.final_residual,
            "contraction_ratios": solution.contraction_ratios,
        }
        with replacing(args.out) as tmp:
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"solution written to {args.out}")
    if args.trajectory_out is not None:
        write_trajectory_csv(solution.trajectory, args.trajectory_out)
        print(f"trajectory written to {args.trajectory_out}")
    return 0


def _cmd_bank_generate(args: argparse.Namespace) -> int:
    # A run's config, so that a bank written with seed k is the bank a run with seed k draws.
    bank = draw_bank(_config_from_args(args))
    save_bank(bank, args.out)
    print(f"bank of {len(bank)} problems written to {args.out} (hash {bank.content_hash()[:12]})")
    return 0


def _cmd_bank_inspect(args: argparse.Namespace) -> int:
    bank = load_bank(args.path)
    latent = bank.latent
    levels = Counter(bank.level_tags)
    print(f"bank {args.path}: {len(bank)} problems")
    print(f"hash: {bank.content_hash()}")
    print(
        f"true difficulty: min={latent.min():.4f} mean={latent.mean():.4f} "
        f"max={latent.max():.4f}"
    )
    # Untagged problems (tag None) are listed last.
    tags = sorted(levels, key=lambda tag: (tag is None, tag or 0))
    print("levels: " + ", ".join(f"{tag or 'untagged'}: {levels[tag]}" for tag in tags))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdas",
        description="Competence-difficulty alignment sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheduling experiment")
    _add_config_flags(run_p)
    run_p.add_argument(
        "--stop-after",
        type=int,
        help="stop after this step and checkpoint (resumable)",
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several strategies on identical banks")
    _add_config_flags(cmp_p)
    cmp_p.add_argument(
        "--strategies",
        default="cdas,random",
        help="comma-separated strategy names (default: cdas,random)",
    )
    cmp_p.add_argument("--seeds", help="comma-separated seeds (default: the single --seed)")
    cmp_p.set_defaults(func=_cmd_compare)

    res_p = sub.add_parser("resume", help="continue a checkpointed run")
    res_p.add_argument("checkpoint", help="path to checkpoint.json")
    res_p.add_argument("--out", "--out-dir", dest="out_dir", metavar="DIR")
    res_p.add_argument("--stop-after", type=int)
    res_p.set_defaults(func=_cmd_resume)

    fp_p = sub.add_parser("fixed-point", help="solve the difficulty/competence equilibrium")
    fp_p.add_argument("--s-star", required=True, help="pass-rate vector: .json list or one value per line")
    fp_p.add_argument("--tolerance", type=float, default=1e-10)
    fp_p.add_argument("--max-iters", type=int, default=200)
    fp_p.add_argument("--init-seed", type=int, help="random start in [-5, 5] instead of zeros")
    fp_p.add_argument("--out", metavar="PATH", help="write the solution as JSON")
    fp_p.add_argument("--trajectory-out", metavar="PATH", help="write per-iteration deltas as CSV")
    fp_p.set_defaults(func=_cmd_fixed_point)

    bank_p = sub.add_parser("bank", help="generate or inspect problem banks")
    bank_sub = bank_p.add_subparsers(dest="bank_command", required=True)
    gen_p = bank_sub.add_parser("generate", help="draw a bank and write it as JSON")
    _add_config_flags(gen_p, _BANK_FIELDS)
    gen_p.add_argument("--out", required=True, metavar="PATH", help="bank file to write")
    gen_p.set_defaults(func=_cmd_bank_generate)
    ins_p = bank_sub.add_parser("inspect", help="summarize a bank file")
    ins_p.add_argument("path")
    ins_p.set_defaults(func=_cmd_bank_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Library notices (such as a resume with nothing left to do) go to stderr.
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, RolloutBudgetError, ConsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        target = err.filename if err.filename else ""
        print(f"error: {target}: {err.strerror or err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
