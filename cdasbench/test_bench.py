"""Self-test of the benchmark at toy sizes; it never gates on wall-clock time.

    python3 -m pytest cdasbench -q
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = json.loads((HERE / "metrics.json").read_text())
LAYERS = METRICS["per_layer"]

TOY = {
    "desk-compare": {"n_problems": 200, "batch_size": 16, "total_steps": 20},
    "cdas-large": {"n_problems": 400, "batch_size": 32, "total_steps": 20},
    "resume-chain": {"n_problems": 400, "batch_size": 32, "total_steps": 12, "resume_every": 4},
    "fixed-point": {"n": 1000},
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", TOY)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def _main(capsys, *argv):
    code = run.main(list(argv))
    return code, capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(toy, capsys, name, trace):
    code, lines = _main(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)
    )
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float | int)
    record = json.loads((toy / "out" / "results" / f"{name}-seed3-trace{trace}.json").read_text())
    assert record["artifact_sha256"]
    assert set(record["environment"]) == {"git_commit", "nproc", "cpu_model", "python", "numpy"}
    if trace:
        assert (toy / "out" / "traces" / f"{name}-seed3-trace1.jsonl").stat().st_size > 0


def test_layers_a_workload_does_not_run_report_zero(toy):
    outcome = workloads.run_workload("fixed-point", 0, 0.0, True, toy / "work", TOY)
    assert outcome.metrics["sampling.report_ms"] == 0.0
    assert outcome.metrics["learner.rollout_calls"] == 0.0
    assert outcome.metrics["fixed_point.iterations"] > 0


def test_quality_metrics_repeat_exactly_for_a_seed(toy):
    first = workloads.run_workload("desk-compare", 5, 0.0, False, toy / "a", TOY).metrics
    second = workloads.run_workload("desk-compare", 5, 0.0, False, toy / "b", TOY).metrics
    quality = [k for k in first if k.startswith(("final_ability.", "useful_rollout_frac."))]
    assert len(quality) == 10
    assert all(first[k] == second[k] for k in quality)


@pytest.mark.parametrize("artifact", workloads.ARTIFACTS)
def test_copied_artifact_with_one_flipped_byte_fails(tmp_path, artifact):
    workload = workloads.ResumeChain(1, TOY, tmp_path)
    workload.prepare()
    out = tmp_path / "unit"
    results = workload.unit(out)
    assert workload.inspect(results, out).failures == []

    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = bytearray((copy / artifact).read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / artifact).write_bytes(bytes(data))
    failures = workload.inspect(results, copy).failures
    assert any(artifact in failure for failure in failures)


def test_missing_library_exits_without_a_result(toy, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", toy / "no-src")
    code, lines = _main(capsys, "--workload", "desk-compare", "--seed", "0", "--seconds", "1")
    assert code != 0
    assert lines == []


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(METRICS["end_to_end"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYERS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in LAYERS.values():
        assert set(entry["moves"]) <= set(bounds)
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)
