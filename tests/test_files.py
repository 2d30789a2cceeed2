"""Every writer replaces its file atomically: a failed write keeps the old file.

Also the check each loader makes that a payload is an object holding its keys.
"""

import csv
import itertools
import json
import pathlib
import types

import numpy as np
import pytest

from cdas.cli import main
from cdas.config import ExperimentConfig
from cdas.errors import ConfigError
from cdas.files import replacing, require
from cdas.fixed_point import EquilibriumProblem, solve, write_trajectory_csv
from cdas.learner import generate_bank, load_bank, save_bank


def _half_then_fail(self, data, *args, **kwargs):
    """A ``Path.write_text`` that writes half of ``data`` and then fails."""
    with open(self, "w") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("disk full")


def _writer_failing_on_row(n):
    """A ``csv.writer`` whose ``n``-th row fails after the earlier ones are written."""
    real = csv.writer

    def make(fh, **kwargs):
        writer, rows = real(fh, **kwargs), itertools.count(1)

        def writerow(row):
            if next(rows) == n:
                raise OSError("disk full")
            return writer.writerow(row)

        return types.SimpleNamespace(writerow=writerow)

    return make


def _files(directory):
    return sorted(p.name for p in directory.iterdir())


def test_replacing_keeps_the_previous_file_when_the_block_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(OSError, match="disk full"):
        with replacing(path) as tmp:
            tmp.write_text("partial")
            raise OSError("disk full")
    assert path.read_text() == "old\n"
    assert _files(tmp_path) == ["out.txt"]
    with replacing(path) as tmp:
        tmp.write_text("new\n")
    assert path.read_text() == "new\n"
    assert _files(tmp_path) == ["out.txt"]


def test_failed_bank_write_keeps_the_previous_bank(tmp_path, monkeypatch):
    path = tmp_path / "bank.json"
    old = generate_bank(ExperimentConfig(n_problems=30), np.random.default_rng(1))
    save_bank(old, path)
    monkeypatch.setattr(pathlib.Path, "write_text", _half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_bank(generate_bank(ExperimentConfig(n_problems=40), np.random.default_rng(2)), path)
    monkeypatch.undo()
    assert load_bank(path).content_hash() == old.content_hash()
    assert _files(tmp_path) == ["bank.json"]


def test_failed_solution_write_keeps_the_previous_solution(tmp_path, monkeypatch, capsys):
    s_star = tmp_path / "s.json"
    s_star.write_text(json.dumps([0.2, 0.5, 0.9]))
    out = tmp_path / "solution.json"
    assert main(["fixed-point", "--s-star", str(s_star), "--out", str(out)]) == 0
    before = out.read_bytes()
    s_star.write_text(json.dumps([0.1, 0.3]))
    monkeypatch.setattr(pathlib.Path, "write_text", _half_then_fail)
    assert main(["fixed-point", "--s-star", str(s_star), "--out", str(out)]) == 3
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert _files(tmp_path) == ["s.json", "solution.json"]


def test_failed_trajectory_write_keeps_the_previous_trajectory(tmp_path, monkeypatch):
    solution = solve(EquilibriumProblem(s_star=np.array([0.2, 0.5, 0.9])))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(solution.trajectory, path)
    before = path.read_bytes()
    monkeypatch.setattr(csv, "writer", _writer_failing_on_row(3))
    with pytest.raises(OSError, match="disk full"):
        write_trajectory_csv(solution.trajectory[:4], path)
    assert path.read_bytes() == before
    assert _files(tmp_path) == ["trajectory.csv"]


@pytest.mark.parametrize("value", [[], "state", None, 3])
def test_require_refuses_a_value_that_is_not_an_object(value):
    with pytest.raises(ConfigError, match="^sampler state: expected a JSON object$"):
        require(value, (), "sampler state")


def test_require_names_the_first_missing_field_in_the_order_given():
    require({"step": 1, "rng": {}}, ("step", "rng"), "sampler state")
    with pytest.raises(ConfigError, match="^sampler state: missing field 'rng'$"):
        require({"step": 1}, ("step", "rng", "t"), "sampler state")
