#!/usr/bin/env python3
"""Run the benchmark in interleaved parent/change pairs and compare each metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload resume-chain --pairs 10 --seed-base 5000

PARENT and CHANGE are two source checkouts.  Both are first copied the same
way, side by side into one fresh temporary directory, leaving out ``SKIPPED``
(version control and run caches); where a tree sits, and what earlier runs
left in it, should not tell the two sides apart.  The copies are removed at
the end.  Pair i runs ``cdasbench/run.py`` with ``--seed SEED_BASE + i`` in
each copy, the parent first in even pairs and the change first in odd ones,
and reads each run's last JSON line.  For every end-to-end metric named in
the change's ``BENCHMARK.json`` it prints both sides' median and quartiles,
the change's median against the parent's, how many pairs the change won
(ties count for neither), the metric's bound, and whether a gain could be
claimed: a win in at least nine pairs in ten, and medians further apart than
the parent's interquartile range; a metric equal on both sides of every pair
reads ``identical``.  After the table comes one line per pair: its seed,
which side ran first, and each metric's parent and change values.  Runs that
failed their output checks are listed last.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Left out of the copies: version control, the benchmark's and hypothesis's
# caches, and compiled bytecode.
SKIPPED = (".git", ".cdasbench", ".hypothesis", "__pycache__")


def last_json(stdout: str) -> dict:
    """The last line of ``stdout`` that holds a JSON object."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the benchmark's output")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric that every run reported, in ``metrics`` order.

    ``pairs`` holds (parent, change) result lines as ``cdasbench/run.py``
    prints them; ``metrics`` holds the benchmark's end-to-end entries, each
    with a ``name``, ``better`` (``lower`` or ``higher``) and ``bound``.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        values = [tuple(side["metrics"][name]["value"] for side in pair) for pair in pairs]
        parent = quartiles([p for p, _ in values])
        change = quartiles([c for _, c in values])
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in values)
        gain = sign * (change[1] - parent[1])
        rows.append(
            {
                "name": name,
                "parent": parent,
                "change": change,
                "relative": (change[1] - parent[1]) / parent[1] if parent[1] else None,
                "wins": wins,
                "pairs": len(values),
                "bound": metric["bound"],
                "claimable": wins >= 0.9 * len(values) and gain > parent[2] - parent[0],
                "identical": all(p == c for p, c in values),
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<32} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
        f" {'change':>8} {'wins':>6} {'bound':>6}  gain"
    ]
    for row in rows:
        sides = (f"{m:.4g} [{lo:.4g}, {hi:.4g}]" for lo, m, hi in (row["parent"], row["change"]))
        relative = "n/a" if row["relative"] is None else f"{row['relative']:+.1%}"
        lines.append(
            f"{row['name']:<32} {next(sides):>32} {next(sides):>32} {relative:>8}"
            f" {row['wins']:>3}/{row['pairs']:<2} {row['bound']:>6}"
            f"  {'claimable' if row['claimable'] else 'identical' if row['identical'] else '-'}"
        )
    return "\n".join(lines)


def first_side(i: int) -> str:
    """The side that runs first in pair ``i``: the parent in even pairs, the change in odd ones."""
    return "parent" if i % 2 == 0 else "change"


def format_pairs(pairs: list[tuple[dict, dict]], seeds: list[int], rows: list[dict]) -> str:
    """One line per pair, for the metrics ``rows`` (from ``summarize``) hold."""
    lines = ["per pair, parent -> change:"]
    for i, (seed, pair) in enumerate(zip(seeds, pairs)):
        values = (
            f"{row['name']} {pair[0]['metrics'][row['name']]['value']:.4g}"
            f" -> {pair[1]['metrics'][row['name']]['value']:.4g}"
            for row in rows
        )
        lines.append(f"seed {seed}, {first_side(i)} first: " + "; ".join(values))
    return "\n".join(lines)


def copy_checkouts(checkouts: dict[str, Path], into: Path) -> dict[str, Path]:
    """Copy each checkout to ``into / side``, without ``SKIPPED``; return the copies by side."""
    ignore = shutil.ignore_patterns(*SKIPPED)
    return {
        side: Path(shutil.copytree(tree, into / side, ignore=ignore))
        for side, tree in checkouts.items()
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "cdasbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    try:
        return last_json(done.stdout)
    except ValueError as err:
        raise SystemExit(f"{checkout} seed {seed}: {err}\n{done.stderr}") from err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=None, help="window per run (default: BENCHMARK.json's)"
    )
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    seeds = [args.seed_base + i for i in range(args.pairs)]
    pairs, failed = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = copy_checkouts({"parent": args.parent, "change": args.change}, Path(scratch))
        for i, seed in enumerate(seeds):
            results = {}
            order = ("parent", "change") if first_side(i) == "parent" else ("change", "parent")
            for side in order:
                results[side] = run_once(checkouts[side], args.workload, seed, seconds)
                if not results[side]["correct"] or results[side]["failed"]:
                    failed.append(f"{side} seed {seed}: {results[side]['failed']} failed")
            pairs.append((results["parent"], results["change"]))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs of {seconds} s, seeds from {args.seed_base}")
    rows = summarize(pairs, spec["end_to_end"])
    print(format_rows(rows))
    print(format_pairs(pairs, seeds, rows))
    for line in failed:
        print(f"FAILED: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
