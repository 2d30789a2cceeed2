"""Run one cdas benchmark workload and print its metrics.

    python3 cdasbench/run.py --workload desk-compare --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output is a JSON object holding every
end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead.  The full record (artifact digests, the
machine and library versions) goes to ``.cdasbench/results/`` and, for a
traced run, the spans to ``.cdasbench/traces/``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".cdasbench"


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdas" / "__init__.py").is_file():
        print(f"cdas library not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    units = metric_units(bool(args.trace))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = sorted(set(units) - set(outcome.metrics))
    if outcome.metrics and missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
    correct = outcome.correct and not missing
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items()
        if name in outcome.metrics
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "environment": workloads.environment(ROOT),
        **outcome.record,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / "traces" / f"{tag}.jsonl")

    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed if correct else max(outcome.failed, 1),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
