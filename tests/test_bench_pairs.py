"""scripts/bench_pairs.py: the pair summary, on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "final_ability.cdas", "unit": "ability", "better": "higher", "bound": 0.1},
]


def _line(setup, steps):
    metrics = {"setup_s": {"value": setup, "unit": "s"}}
    metrics["steps_per_s"] = {"value": steps, "unit": "1/s"}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    return "setup_s = 0.1 s\n" + json.dumps(result) + "\n"


def _pairs(parent, change):
    return [
        (bench_pairs.last_json(_line(*p)), bench_pairs.last_json(_line(*c)))
        for p, c in zip(parent, change)
    ]


def test_last_json_reads_the_final_object_line():
    assert bench_pairs.last_json(_line(0.5, 20.0))["metrics"]["setup_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        bench_pairs.last_json("setup_s = 0.1 s\n")


def test_summary_counts_wins_by_direction_and_applies_the_claim_rule():
    parent = [(0.10, 10.0), (0.11, 10.0), (0.09, 10.0), (0.10, 10.0)]
    change = [(0.05, 10.0), (0.06, 11.0), (0.05, 9.0), (0.10, 10.0)]
    rows = {row["name"]: row for row in bench_pairs.summarize(_pairs(parent, change), METRICS)}
    # final_ability.cdas is in no result line, so it gets no row.
    assert list(rows) == ["setup_s", "steps_per_s"]
    setup = rows["setup_s"]
    assert setup["parent"] == pytest.approx((0.0975, 0.10, 0.1025))
    assert setup["change"] == pytest.approx((0.05, 0.055, 0.07))
    assert setup["relative"] == pytest.approx(-0.45)
    # The tie in the last pair counts for neither side: 3 wins of 4 is short of 9 in 10.
    assert (setup["wins"], setup["pairs"], setup["claimable"]) == (3, 4, False)
    steps = rows["steps_per_s"]
    assert (steps["wins"], steps["claimable"], steps["bound"]) == (1, False, 0.24)
    assert not steps["identical"]
    same = bench_pairs.summarize(_pairs(parent, parent), METRICS)
    assert [(row["wins"], row["identical"]) for row in same] == [(0, True), (0, True)]


def test_a_gain_is_claimable_only_beyond_the_parent_spread():
    parent = [(0.10 + 0.001 * i, 10.0) for i in range(10)]
    faster = [(0.05, 10.0)] * 10
    row = bench_pairs.summarize(_pairs(parent, faster), METRICS)[0]
    assert (row["wins"], row["claimable"]) == (10, True)
    # Every pair won, but the medians differ by less than the parent's quartile spread.
    barely = [(value - 0.001, steps) for value, steps in parent]
    row = bench_pairs.summarize(_pairs(parent, barely), METRICS)[0]
    assert (row["wins"], row["claimable"]) == (10, False)


def test_table_has_one_line_per_metric():
    parent, change = [(0.10, 10.0)], [(0.05, 12.0)]
    table = bench_pairs.format_rows(bench_pairs.summarize(_pairs(parent, change), METRICS))
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[1].split()[:2] == ["setup_s", "0.1"] and "-50.0%" in lines[1]
    assert "claimable" in lines[2] and "1/1" in lines[2]


def test_pair_lines_give_seed_order_and_both_values():
    parent, change = [(0.10, 10.0), (0.11, 9.5)], [(0.05, 12.0), (0.12, 9.0)]
    pairs = _pairs(parent, change)
    rows = bench_pairs.summarize(pairs, METRICS)
    lines = bench_pairs.format_pairs(pairs, [7000, 7001], rows).splitlines()
    assert lines == [
        "per pair, parent -> change:",
        "seed 7000, parent first: setup_s 0.1 -> 0.05; steps_per_s 10 -> 12",
        "seed 7001, change first: setup_s 0.11 -> 0.12; steps_per_s 9.5 -> 9",
    ]


def test_both_checkouts_are_copied_side_by_side_without_caches(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / f"{side}-checkout"
        skipped = (f"{name}/x" for name in bench_pairs.SKIPPED)
        for name in ("BENCHMARK.json", "src/cdas/core.py", *skipped):
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(f"{side} {name}")
        (tree / "src/cdas/__pycache__").mkdir()
        (tree / "src/cdas/__pycache__/core.pyc").write_text("bytecode")
        trees[side] = tree
    into = tmp_path / "copies"
    into.mkdir()
    copies = bench_pairs.copy_checkouts(trees, into)
    assert copies == {"parent": into / "parent", "change": into / "change"}
    for side, copy in copies.items():
        files = sorted(str(f.relative_to(copy)) for f in copy.rglob("*") if f.is_file())
        assert files == ["BENCHMARK.json", "src/cdas/core.py"]
        assert (copy / "src/cdas/core.py").read_text() == f"{side} src/cdas/core.py"
        # The source trees are left as they were.
        assert (trees[side] / ".git/x").exists()
