"""Closed-loop experiment driver: determinism, outputs, checkpoint/resume."""

import csv
import dataclasses
import itertools
import json
import logging
import math
import shutil
import types
from pathlib import Path

import numpy as np
import pytest

from cdas import harness
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.errors import ConfigError
from cdas.harness import (
    BATCHES_FILE,
    CHECKPOINT_FILE,
    METRICS_FILE,
    PROBLEMS_FILE,
    SUMMARY_FILE,
    compare_strategies,
    load_checkpoint,
    resume_experiment,
    run_experiment,
)
from cdas.learner import generate_bank, save_bank
from cdas.metrics import read_metrics_csv

TINY = ExperimentConfig(n_problems=12, batch_size=4, rollouts=4, total_steps=6)

OUTPUT_FILES = [METRICS_FILE, BATCHES_FILE, PROBLEMS_FILE, SUMMARY_FILE, CHECKPOINT_FILE]

DATA = Path(__file__).resolve().parent / "data"


def _tiny(**overrides):
    return TINY.with_overrides(**overrides)


def _in_current_format(payload):
    """An older checkpoint relabelled as a current one of no steps, its config
    cut to today's fields."""
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    config = {name: value for name, value in payload["config"].items() if name in fields}
    return {
        "format_version": harness.CHECKPOINT_VERSION,
        "config": config,
        "config_hash": ExperimentConfig.from_dict(config).content_hash(),
        "bank_hash": payload["bank_hash"],
        "steps": 0,
    }


class TestRunExperiment:
    def test_step_count_and_batch_shape(self):
        result = run_experiment(_tiny())
        assert len(result.rows) == 6
        assert [row.step for row in result.rows] == [1, 2, 3, 4, 5, 6]
        assert result.completed
        for batch in result.batches:
            assert len(batch) == 4
            assert len(set(batch)) == 4

    def test_single_step_with_bank_sized_batch(self):
        result = run_experiment(_tiny(batch_size=12, total_steps=1))
        ids = [result.bank.ids[i] for i in result.batches[0]]
        assert sorted(ids) == sorted(result.bank.ids)
        assert result.sampler.state_arrays()["t"].tolist() == [1] * 12

    def test_same_config_is_deterministic(self):
        a = run_experiment(_tiny(seed=3))
        b = run_experiment(_tiny(seed=3))
        assert a.rows == b.rows
        assert [batch.tolist() for batch in a.batches] == [batch.tolist() for batch in b.batches]
        assert a.learner.ability == b.learner.ability

    def test_warmup_covers_the_bank(self):
        result = run_experiment(_tiny())
        assert result.warmup_window == 3
        assert result.sampler.state_arrays()["t"].min() >= 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stage_seconds_are_timed_in_memory_only(self, tmp_path, monkeypatch, strategy):
        config = _tiny(strategy=strategy)
        timed = run_experiment(config.with_overrides(out_dir=str(tmp_path / "timed")))
        assert list(timed.stage_seconds) == list(harness.STAGES) == [
            "select", "rollout", "report", "learn", "summarize", "write",
        ]
        assert all(type(value) is float and value >= 0.0 for value in timed.stage_seconds.values())
        assert run_experiment(config).stage_seconds["write"] == 0.0
        # A clock that ticks a quarter second per reading: every stage counts
        # time, and none of it reaches a file.
        ticks = itertools.count(0.0, 0.25)
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=ticks.__next__))
        ticked = run_experiment(config.with_overrides(out_dir=str(tmp_path / "ticked")))
        assert min(ticked.stage_seconds.values()) > 0.0
        for name in OUTPUT_FILES:
            assert (tmp_path / "ticked" / name).read_bytes() == (
                tmp_path / "timed" / name
            ).read_bytes(), name

    def test_strategies_share_bank_and_initial_ability(self):
        hashes = set()
        first_steps = []
        for strategy in ("cdas", "random", "curriculum", "prioritized", "dynamic"):
            result = run_experiment(_tiny(strategy=strategy, total_steps=1))
            hashes.add(result.bank_hash)
            first_steps.append(result.rows[0])
        assert len(hashes) == 1
        # The learner stream is independent of the sampler stream, so the
        # first batch's rollouts depend only on which problems were picked.
        abilities = {round(row.learner_ability, 12) for row in first_steps}
        assert len(abilities) >= 1

    def test_ability_never_decreases_over_the_run(self):
        result = run_experiment(_tiny(total_steps=10))
        abilities = [row.learner_ability for row in result.rows]
        assert all(b >= a for a, b in zip(abilities, abilities[1:]))

    def test_dynamic_consumption_at_least_batch_size(self):
        result = run_experiment(_tiny(strategy="dynamic", seed=5))
        for row in result.rows:
            assert row.rollout_batches_consumed >= 4

    def test_stop_after_truncates(self):
        result = run_experiment(_tiny(), stop_after=2)
        assert len(result.rows) == 2
        assert not result.completed

    def test_bad_stop_after(self, tmp_path):
        # By exact type, as a checkpoint's steps: a fraction or a bool is
        # refused, not rounded up or read as 1.
        bad = (0, -4, 2.5, True)
        for stop_after in bad:
            with pytest.raises(
                ConfigError, match=rf"^stop_after: must be an integer >= 1, got {stop_after}$"
            ):
                run_experiment(_tiny(out_dir=str(tmp_path / "fresh")), stop_after=stop_after)
        assert not (tmp_path / "fresh").exists()
        # Resume refuses it too, before rewriting any output.
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
        before = {name: (tmp_path / name).read_bytes() for name in OUTPUT_FILES}
        for stop_after in bad:
            with pytest.raises(ConfigError, match="stop_after: must be an integer >= 1"):
                resume_experiment(tmp_path / CHECKPOINT_FILE, stop_after=stop_after)
        assert {name: (tmp_path / name).read_bytes() for name in OUTPUT_FILES} == before

    def test_invalid_config_refused(self):
        with pytest.raises(ConfigError):
            run_experiment(_tiny(batch_size=13))

    def test_batch_cannot_exceed_generated_bank(self):
        with pytest.raises(ConfigError, match=r"batch_size: must not exceed bank size \(12 > 10\)"):
            run_experiment(_tiny(n_problems=10, batch_size=12))

    def test_batch_check_deferred_for_loaded_banks(self, tmp_path):
        # A loaded bank's size is known only once it is read; n_problems does not count.
        path = tmp_path / "bank.json"
        save_bank(generate_bank(ExperimentConfig(n_problems=10), np.random.default_rng(0)), path)
        result = run_experiment(_tiny(n_problems=4, batch_size=8, bank_path=str(path)))
        assert len(result.bank) == 10
        with pytest.raises(ConfigError, match=r"batch_size: must not exceed bank size \(12 > 10\)"):
            run_experiment(_tiny(n_problems=20, batch_size=12, bank_path=str(path)))

    def test_symmetric_batch_must_be_even(self):
        with pytest.raises(ConfigError, match="batch_size: symmetric mode needs an even batch"):
            run_experiment(_tiny(batch_size=3))
        run_experiment(_tiny(batch_size=3, symmetric=False))
        run_experiment(_tiny(batch_size=3, strategy="random"))


class TestSummary:
    def test_fields_and_aggregates(self):
        result = run_experiment(_tiny(seed=2))
        summary = result.summary()
        assert summary["strategy"] == "cdas"
        assert summary["seed"] == 2
        assert summary["completed_steps"] == 6
        assert summary["completed"] is True
        assert summary["warmup_window"] == 3
        assert summary["final_ability"] == result.learner.ability
        assert summary["final_mean_reward"] == result.rows[-1].mean_reward
        assert summary["cumulative_rollout_batches"] == sum(
            row.rollout_batches_consumed for row in result.rows
        )
        post = [
            row.zero_gradient_fraction for row in result.rows if row.step > 3
        ]
        assert summary["post_warmup_zero_gradient_mean"] == sum(post) / len(post)

    def test_prioritized_reports_fallbacks(self):
        result = run_experiment(_tiny(strategy="prioritized"))
        assert "uniform_fallbacks" in result.summary()
        assert "uniform_fallbacks" not in run_experiment(_tiny()).summary()


class TestOutputs:
    def test_all_files_written(self, tmp_path):
        run_experiment(_tiny(out_dir=str(tmp_path / "run")))
        for name in OUTPUT_FILES:
            assert (tmp_path / "run" / name).exists(), name

    def test_metrics_file_round_trips(self, tmp_path):
        result = run_experiment(_tiny(seed=7, out_dir=str(tmp_path / "run")))
        rows = read_metrics_csv(tmp_path / "run" / METRICS_FILE)
        assert len(rows) == 6
        for got, want in zip(rows, result.rows):
            assert got["step"] == want.step
            assert got["mean_reward"] == want.mean_reward
            assert got["competence"] == want.competence
            assert got["learner_ability"] == want.learner_ability

    def test_batches_file_lists_ids_per_step(self, tmp_path):
        result = run_experiment(_tiny(out_dir=str(tmp_path / "run")))
        lines = (tmp_path / "run" / BATCHES_FILE).read_text().splitlines()
        assert lines[0] == "step,problem_ids"
        assert len(lines) == 7
        first = lines[1].split(",", 1)
        assert first[0] == "1"
        assert first[1].split(";") == [result.bank.ids[i] for i in result.batches[0]]

    def test_problems_file_has_final_estimates(self, tmp_path):
        # Two warm-up steps of four leave four of the twelve problems unreported.
        result = run_experiment(_tiny(out_dir=str(tmp_path / "run")), stop_after=2)
        lines = (tmp_path / "run" / PROBLEMS_FILE).read_text().splitlines()
        assert lines[0] == "id,level_tag,true_difficulty,t,difficulty,final_pass_rate"
        assert len(lines) == 13
        cells = [line.split(",") for line in lines[1:]]
        assert [cell[0] for cell in cells] == list(result.bank.ids)
        rates = result.sampler.last_pass_rates.tolist()
        assert [cell[5] for cell in cells] == ["" if math.isnan(r) else repr(r) for r in rates]
        assert [cell[5] for cell in cells].count("") == 4

    def test_summary_file_matches_summary(self, tmp_path):
        result = run_experiment(_tiny(out_dir=str(tmp_path / "run")))
        on_disk = json.loads((tmp_path / "run" / SUMMARY_FILE).read_text())
        assert on_disk == result.summary()


def _edit_checkpoint(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class _DiskFull:
    """A text file that takes ``room`` characters, then raises OSError("disk full")."""

    def __init__(self, fh, room: int):
        self._fh, self._room = fh, room

    def write(self, text: str) -> int:
        if len(text) > self._room:
            self._fh.write(text[: self._room])
            raise OSError("disk full")
        self._room -= len(text)
        return self._fh.write(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _crash_a_resume_midway(tmp_path, monkeypatch, name):
    """Fill the disk halfway through ``name`` while a resumed run writes its outputs.

    The files not yet replaced keep their previous bytes, no temp file is
    left behind, and the checkpoint still resumes to the uninterrupted run.
    """
    config = _tiny(seed=6)
    straight = tmp_path / "straight"
    run = tmp_path / "run"
    run_experiment(config.with_overrides(out_dir=str(straight)))
    run_experiment(config.with_overrides(out_dir=str(run)), stop_after=2)
    later = OUTPUT_FILES[OUTPUT_FILES.index(name):]
    before = {other: (run / other).read_bytes() for other in later}
    room = len(before[name]) // 2

    def crashing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _DiskFull(fh, room) if Path(path).name == f"{name}.tmp" else fh

    with monkeypatch.context() as patch:
        patch.setattr(harness, "open", crashing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            resume_experiment(run / CHECKPOINT_FILE, stop_after=4)
    assert {other: (run / other).read_bytes() for other in later} == before
    assert load_checkpoint(run / CHECKPOINT_FILE)["steps"] == 2
    assert sorted(p.name for p in run.iterdir()) == sorted(OUTPUT_FILES)
    resume_experiment(run / CHECKPOINT_FILE)
    for other in OUTPUT_FILES:
        if other != CHECKPOINT_FILE:
            assert (run / other).read_bytes() == (straight / other).read_bytes(), other


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_resumed_run_is_byte_identical(self, tmp_path, strategy):
        # Every stop step k, so curriculum is resumed before, at and after its
        # switch step (total_steps // 2 = 3).
        config = _tiny(strategy=strategy, seed=11)
        straight = tmp_path / "straight"
        run_experiment(config.with_overrides(out_dir=str(straight)))
        for k in range(1, config.total_steps):
            split = tmp_path / f"split{k}"
            run_experiment(config.with_overrides(out_dir=str(split)), stop_after=k)
            resume_experiment(split / CHECKPOINT_FILE)
            for name in OUTPUT_FILES:
                assert (split / name).read_bytes() == (straight / name).read_bytes(), (k, name)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_checkpoint_holds_only_mutable_state(self, tmp_path, strategy):
        # No records, estimates, batches, metrics, pass counts or generator
        # state: resume rebuilds them all by running the steps again from the
        # config's seed.
        run_experiment(_tiny(strategy=strategy, out_dir=str(tmp_path)), stop_after=2)
        payload = load_checkpoint(tmp_path / CHECKPOINT_FILE)
        assert set(payload) == {"format_version", "config", "config_hash", "bank_hash", "steps"}
        assert payload["steps"] == 2

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_checkpoint_holds_no_json_array(self, tmp_path, strategy):
        # The checkpoint holds no sequence, so JSON never spells values out one by one.
        run_experiment(_tiny(strategy=strategy, out_dir=str(tmp_path)), stop_after=2)
        pending = [json.loads((tmp_path / CHECKPOINT_FILE).read_text())]
        while pending:
            value = pending.pop()
            assert not isinstance(value, list), value
            if isinstance(value, dict):
                pending.extend(value.values())

    def test_partial_checkpoint_records_progress(self, tmp_path):
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
        payload = load_checkpoint(tmp_path / CHECKPOINT_FILE)
        assert payload["steps"] == 2

    def test_resume_in_stages(self, tmp_path):
        config = _tiny(seed=4, out_dir=str(tmp_path / "run"))
        run_experiment(config, stop_after=2)
        resume_experiment(tmp_path / "run" / CHECKPOINT_FILE, stop_after=4)
        result = resume_experiment(tmp_path / "run" / CHECKPOINT_FILE)
        assert len(result.rows) == 6
        assert result.rows == run_experiment(_tiny(seed=4)).rows

    def test_resume_completed_run_is_a_noop(self, tmp_path, caplog):
        run_experiment(_tiny(out_dir=str(tmp_path / "run")))
        before = (tmp_path / "run" / CHECKPOINT_FILE).read_bytes()
        with caplog.at_level(logging.INFO, logger="cdas.harness"):
            result = resume_experiment(tmp_path / "run" / CHECKPOINT_FILE)
        assert "nothing to resume" in caplog.text
        assert result.completed
        assert (tmp_path / "run" / CHECKPOINT_FILE).read_bytes() == before

    @pytest.mark.parametrize("stop_after", [2, 4])
    def test_resume_stopping_at_or_before_the_checkpoint_is_a_noop(
        self, tmp_path, caplog, stop_after
    ):
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=4)
        before = {
            name: ((tmp_path / name).read_bytes(), (tmp_path / name).stat().st_mtime_ns)
            for name in OUTPUT_FILES
        }
        with caplog.at_level(logging.INFO, logger="cdas.harness"):
            result = resume_experiment(tmp_path / CHECKPOINT_FILE, stop_after=stop_after)
        assert "nothing to resume" in caplog.text
        assert len(result.rows) == 4
        after = {
            name: ((tmp_path / name).read_bytes(), (tmp_path / name).stat().st_mtime_ns)
            for name in OUTPUT_FILES
        }
        assert after == before

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.pop("steps"), "checkpoint: missing field 'steps'"),
            (lambda p: p.update(steps=2.0), r"steps: must be an integer in \[0, 6\], got 2.0"),
            (lambda p: p.update(steps=True), r"steps: must be an integer in \[0, 6\], got True"),
            (lambda p: p.update(steps=-2), r"steps: must be an integer in \[0, 6\], got -2"),
            (lambda p: p.update(steps=7), r"steps: must be an integer in \[0, 6\], got 7"),
            (
                lambda p: p.update(format_version=11.0),
                r"unsupported format_version 11.0 \(expected 11\)",
            ),
        ],
        ids=[
            "no-steps",
            "float-step",
            "bool-step",
            "negative-step",
            "step-past-the-run",
            "float-version",
        ],
    )
    def test_damaged_checkpoint_refused(self, tmp_path, edit, match):
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
        path = tmp_path / CHECKPOINT_FILE
        before = {name: (tmp_path / name).read_bytes() for name in OUTPUT_FILES}
        _edit_checkpoint(path, edit)
        with pytest.raises(ConfigError, match=f"^checkpoint {path}: {match}"):
            resume_experiment(path)
        before[CHECKPOINT_FILE] = path.read_bytes()
        assert {name: (tmp_path / name).read_bytes() for name in OUTPUT_FILES} == before

    def test_resume_with_new_out_dir(self, tmp_path):
        run_experiment(_tiny(out_dir=str(tmp_path / "a")), stop_after=3)
        resume_experiment(tmp_path / "a" / CHECKPOINT_FILE, out_dir=tmp_path / "b")
        assert (tmp_path / "b" / METRICS_FILE).exists()

    def test_resume_from_another_directory_writes_beside_the_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # The run is told a relative out_dir; the resume runs elsewhere.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        run_experiment(_tiny(out_dir="runs/p"), stop_after=3)
        monkeypatch.chdir(tmp_path / "b")
        resume_experiment(tmp_path / "a" / "runs" / "p" / CHECKPOINT_FILE)
        assert list((tmp_path / "b").iterdir()) == []
        assert load_checkpoint(tmp_path / "a" / "runs" / "p" / CHECKPOINT_FILE)["steps"] == 6

    @pytest.mark.parametrize("names_its_out_dir", [False, True])
    def test_resume_of_a_copied_run_writes_beside_the_copy(self, tmp_path, names_its_out_dir):
        config = _tiny(seed=9)
        run_experiment(config.with_overrides(out_dir=str(tmp_path / "straight")))
        run_experiment(config.with_overrides(out_dir=str(tmp_path / "run")), stop_after=2)
        shutil.copytree(tmp_path / "run", tmp_path / "copy")
        if names_its_out_dir:
            # As checkpoints of this format first did; the hash leaves out_dir out.
            _edit_checkpoint(
                tmp_path / "copy" / CHECKPOINT_FILE,
                lambda p: p["config"].update(out_dir=str(tmp_path / "run")),
            )
        before = {name: (tmp_path / "run" / name).read_bytes() for name in OUTPUT_FILES}
        resume_experiment(tmp_path / "copy" / CHECKPOINT_FILE)
        assert {name: (tmp_path / "run" / name).read_bytes() for name in OUTPUT_FILES} == before
        for name in OUTPUT_FILES:
            want = (tmp_path / "straight" / name).read_bytes()
            assert (tmp_path / "copy" / name).read_bytes() == want, name

    def test_edited_config_detected(self, tmp_path):
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
        path = tmp_path / CHECKPOINT_FILE
        payload = json.loads(path.read_text())
        payload["config"]["total_steps"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="config hash"):
            resume_experiment(path)

    def test_unsupported_version_detected(self, tmp_path):
        # Version 1 checkpoints carried whole sampler objects, version 2 a
        # pass-rate dict keyed by id, version 3 a pending batch, a stored
        # competence and a second step, version 4 per-problem lists and id
        # batches, version 5 a bank hash over text lines, version 6 seven
        # config fields since made constants, version 7 bank_level_spread,
        # version 8 the metrics as a list of JSON objects, version 9 the
        # sampler's and learner's state, the metrics and the batches, and
        # version 10 every pass count rolled out and the learner's generator
        # state, where today's holds the step count alone; all are refused.
        for version in (*range(1, 11), 99):
            run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
            path = tmp_path / CHECKPOINT_FILE
            _edit_checkpoint(path, lambda payload: payload.update(format_version=version))
            with pytest.raises(ConfigError, match="unsupported format_version"):
                resume_experiment(path)

    def test_format_5_checkpoint_refused_by_its_version(self, tmp_path):
        # Written by the format-5 code, which hashed the bank as repr text lines.
        old = DATA / "checkpoint_format5.json"
        with pytest.raises(ConfigError, match="unsupported format_version 5"):
            resume_experiment(old, out_dir=tmp_path / "run")
        # Read as the current format, with today's config fields, only its
        # bank hash gives it away.
        path = tmp_path / CHECKPOINT_FILE
        path.write_text(json.dumps(_in_current_format(json.loads(old.read_text()))))
        with pytest.raises(ConfigError, match="bank hash mismatch"):
            resume_experiment(path, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_format_6_checkpoint_refused_by_its_version(self, tmp_path):
        # Written by the format-6 code, whose config held eight more fields.
        old = DATA / "checkpoint_format6.json"
        with pytest.raises(ConfigError, match="unsupported format_version 6"):
            resume_experiment(old, out_dir=tmp_path / "run")
        payload = json.loads(old.read_text())
        path = tmp_path / CHECKPOINT_FILE
        # Relabelled, its config's old field gives it away.
        path.write_text(json.dumps({**_in_current_format(payload), "config": payload["config"]}))
        with pytest.raises(ConfigError, match="unknown config field 'bank_level_spread'"):
            resume_experiment(path, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()
        # Cut to today's fields, its config still draws its bank.
        path.write_text(json.dumps(_in_current_format(payload)))
        assert resume_experiment(path, out_dir=tmp_path / "run").bank_hash == payload["bank_hash"]

    def test_format_7_checkpoint_refused_by_its_version(self, tmp_path):
        # Written by the format-7 code for a levels bank with
        # bank_level_spread 3.0: the bank that bank_scale 1.5 draws now.
        old = DATA / "checkpoint_format7.json"
        with pytest.raises(ConfigError, match="unsupported format_version 7"):
            resume_experiment(old, out_dir=tmp_path / "run")
        payload = json.loads(old.read_text())
        path = tmp_path / CHECKPOINT_FILE
        # Relabelled, its config's old field gives it away.
        path.write_text(json.dumps({**_in_current_format(payload), "config": payload["config"]}))
        with pytest.raises(ConfigError, match="unknown config field 'bank_level_spread'"):
            resume_experiment(path, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()
        # With the spread folded into the scale, its bank hash holds.
        config = dict(payload["config"])
        config["bank_scale"] = config.pop("bank_level_spread") / 2
        path.write_text(json.dumps(_in_current_format({**payload, "config": config})))
        assert resume_experiment(path, out_dir=tmp_path / "run").bank_hash == payload["bank_hash"]

    def test_format_9_checkpoint_refused_by_its_version(self, tmp_path):
        # Written by the format-9 code: the sampler's and learner's state,
        # the metrics columns and the batches, but no rollout log.
        old = DATA / "checkpoint_format9.json"
        with pytest.raises(ConfigError, match="unsupported format_version 9"):
            resume_experiment(old, out_dir=tmp_path / "run")
        payload = json.loads(old.read_text())
        # Relabelled, it lacks the step count a resume runs again.
        path = tmp_path / CHECKPOINT_FILE
        path.write_text(json.dumps({**payload, "format_version": harness.CHECKPOINT_VERSION}))
        with pytest.raises(ConfigError, match="missing field 'steps'"):
            resume_experiment(path, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_format_10_checkpoint_refused_by_its_version(self, tmp_path):
        # Written by the format-10 code: every pass count rolled out and the
        # learner's generator state, beside the five fields kept today.
        old = DATA / "checkpoint_format10.json"
        with pytest.raises(ConfigError, match="unsupported format_version 10 "):
            resume_experiment(old, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()
        payload = json.loads(old.read_text())
        assert set(harness._CHECKPOINT_FIELDS) < set(payload)
        # Its five kept fields resume to the run it was written from: the
        # log and the generator state held nothing the seed does not fix.
        path = tmp_path / CHECKPOINT_FILE
        kept = {name: payload[name] for name in harness._CHECKPOINT_FIELDS}
        path.write_text(json.dumps({**kept, "format_version": harness.CHECKPOINT_VERSION}))
        config = ExperimentConfig.from_dict(payload["config"])
        straight = run_experiment(config.with_overrides(out_dir=str(tmp_path / "straight")))
        resumed = resume_experiment(path, out_dir=tmp_path / "run")
        assert resumed.rows == straight.rows
        for name in OUTPUT_FILES:
            if name != CHECKPOINT_FILE:
                want = (tmp_path / "straight" / name).read_bytes()
                assert (tmp_path / "run" / name).read_bytes() == want, name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_edited_steps_resume_the_uninterrupted_run(self, tmp_path, strategy):
        # The config fixes every step, so a checkpoint of any step count in
        # [0, total_steps] is one of the same run: an edited count, 0
        # included, resumes to the uninterrupted run's bytes.
        config = _tiny(strategy=strategy, seed=3)
        straight = run_experiment(config.with_overrides(out_dir=str(tmp_path / "straight")))
        run_experiment(config.with_overrides(out_dir=str(tmp_path / "split")), stop_after=2)
        for steps in range(config.total_steps + 1):
            path = tmp_path / f"edited{steps}.json"
            path.write_bytes((tmp_path / "split" / CHECKPOINT_FILE).read_bytes())
            _edit_checkpoint(path, lambda payload: payload.update(steps=steps))
            out = tmp_path / f"resumed{steps}"
            resumed = resume_experiment(path, out_dir=out)
            assert resumed.rows == straight.rows, steps
            if steps == config.total_steps:
                # Already at the end: nothing to write.
                assert not out.exists()
                continue
            for name in OUTPUT_FILES:
                want = (tmp_path / "straight" / name).read_bytes()
                assert (out / name).read_bytes() == want, (steps, name)

    def test_failed_checkpoint_write_keeps_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        _crash_a_resume_midway(tmp_path, monkeypatch, CHECKPOINT_FILE)

    def test_failed_problems_csv_write_keeps_the_previous_files(self, tmp_path, monkeypatch):
        _crash_a_resume_midway(tmp_path, monkeypatch, PROBLEMS_FILE)

    def test_unreproducible_bank_detected(self, tmp_path):
        run_experiment(_tiny(out_dir=str(tmp_path)), stop_after=2)
        path = tmp_path / CHECKPOINT_FILE
        payload = json.loads(path.read_text())
        # A consistently edited config (hash updated) still cannot resume if
        # the bank it generates no longer matches the checkpointed bank.
        payload["config"]["bank_scale"] = 2.0
        payload["config_hash"] = ExperimentConfig.from_dict(
            payload["config"]
        ).content_hash()
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="bank hash"):
            resume_experiment(path)


class TestComparisons:
    def test_strategy_cohort_shares_the_bank(self, tmp_path):
        comparison = compare_strategies(
            _tiny(), ["cdas", "random"], seeds=[0, 1], out_dir=tmp_path
        )
        assert len(comparison.results) == 4
        by_seed = {}
        for result in comparison.results:
            by_seed.setdefault(result.config.seed, set()).add(result.bank_hash)
        assert all(len(hashes) == 1 for hashes in by_seed.values())
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "comparison_summary.csv").exists()
        assert (tmp_path / "random_seed1" / METRICS_FILE).exists()

    def test_config_out_dir_holds_each_run_apart(self, tmp_path):
        compare_strategies(_tiny(out_dir=str(tmp_path)), ["cdas", "random"], seeds=[0, 1])
        runs = ["cdas_seed0", "cdas_seed1", "random_seed0", "random_seed1"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [*runs, "comparison.csv", "comparison_summary.csv"]
        )
        for run in runs:
            assert sorted(path.name for path in (tmp_path / run).iterdir()) == sorted(OUTPUT_FILES)
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 6

    def test_out_dir_argument_overrides_the_config(self, tmp_path):
        config = _tiny(out_dir=str(tmp_path / "config"))
        compare_strategies(config, ["random"], out_dir=tmp_path / "argument")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["argument"]
        assert (tmp_path / "argument" / "random_seed0" / METRICS_FILE).exists()

    def test_comparison_csv_holds_every_run(self, tmp_path):
        compare_strategies(_tiny(), ["cdas", "random"], seeds=[0], out_dir=tmp_path)
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 6

    def test_summary_csv_one_row_per_run(self, tmp_path):
        compare_strategies(
            _tiny(), ["cdas", "prioritized"], seeds=[0, 1], out_dir=tmp_path
        )
        lines = (tmp_path / "comparison_summary.csv").read_text().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        assert header[0] == "strategy"
        assert header[1] == "seed"

    def test_crash_while_writing_keeps_the_previous_files(self, tmp_path, monkeypatch):
        names = ("comparison.csv", "comparison_summary.csv")
        compare_strategies(_tiny(), ["cdas", "random"], seeds=[0], out_dir=tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        other = compare_strategies(_tiny(), ["cdas", "random"], seeds=[1])
        real_writer = csv.writer
        # Rows 1-13 are comparison.csv (header, 2 runs x 6 steps); row 15 is
        # the first run of comparison_summary.csv.
        for crash_at, intact in ((3, names), (15, names[1:])):
            written = 0

            class CrashingWriter:
                def __init__(self, *args, **kwargs):
                    self._writer = real_writer(*args, **kwargs)

                def writerow(self, row):
                    nonlocal written
                    written += 1
                    if written == crash_at:
                        raise OSError("disk full")
                    return self._writer.writerow(row)

            with monkeypatch.context() as patch:
                patch.setattr(harness.csv, "writer", CrashingWriter)
                with pytest.raises(OSError, match="disk full"):
                    harness._write_comparison(other, tmp_path)
            for name in intact:
                assert (tmp_path / name).read_bytes() == before[name], (crash_at, name)
            assert not list(tmp_path.glob("*.tmp")), crash_at

    def test_duplicate_or_empty_strategy_and_seed_lists_refused(self):
        with pytest.raises(ConfigError):
            compare_strategies(_tiny(), [])
        with pytest.raises(ConfigError):
            compare_strategies(_tiny(), ["cdas", "cdas"])
        with pytest.raises(ConfigError):
            compare_strategies(_tiny(), ["cdas"], seeds=[])
        with pytest.raises(ConfigError, match=r"seeds: duplicates in \[1, 0, 1\]"):
            compare_strategies(_tiny(), ["cdas"], seeds=[1, 0, 1])
