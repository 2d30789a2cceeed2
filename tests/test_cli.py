"""Command-line interface: flags, subcommands, exit codes."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdas
from cdas.cli import _config_from_args, build_parser, main
from cdas.config import BANK_MODES, STRATEGIES, ExperimentConfig
from cdas.files import encode_array
from cdas.harness import CHECKPOINT_FILE, METRICS_FILE, run_experiment
from cdas.learner import BANK_FORMAT_VERSION, ProblemBank, generate_bank, load_bank, save_bank
from cdas.metrics import read_metrics_csv

TINY_FLAGS = [
    "--n-problems", "12",
    "--batch-size", "4",
    "--rollouts", "4",
    "--steps", "5",
]

# Settings that were config fields and are constants now, at the values they had.
MADE_CONSTANT = {
    "initial_difficulty": 0.0,
    "initial_competence": 0.0,
    "curriculum_switch_step": None,
    "curriculum_threshold": 4,
    "prioritized_initial_weight": 1.0,
    "dynamic_retry_cap": 10,
    "dynamic_oversample_factor": 1.0,
}
# Every setting that was a config field and is gone. A levels bank's spread S
# is now bank_scale S / 2, the latent step between levels.
REMOVED_FIELDS = {**MADE_CONSTANT, "bank_level_spread": 2.0}


def _subparser(*names):
    """The parser of the subcommand ``cdas <names...>``."""
    parser = build_parser()
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def _flag_dests(parser):
    """Each option string of ``parser`` -> the dest it sets."""
    return {flag: action.dest for action in parser._actions for flag in action.option_strings}


def _other_value(field):
    """A value for ``field`` that differs from its default."""
    default = field.default
    if field.name in ("strategy", "bank_mode"):
        choices = STRATEGIES if field.name == "strategy" else BANK_MODES
        return next(c for c in choices if c != default)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 3
    if isinstance(default, float) or field.name == "ability_init":
        return (default or 0.0) + 0.375
    return f"some/{field.name}"


class TestConfigFlags:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("aliases", [("--steps", "--out"), ("--total-steps", "--out-dir")])
    def test_every_field_has_a_round_tripping_flag(self, command, aliases):
        spelled = dict(zip(("total_steps", "out_dir"), aliases))
        values = {}
        argv = [command]
        for field in dataclasses.fields(ExperimentConfig):
            value = values[field.name] = _other_value(field)
            flag = spelled.get(field.name, "--" + field.name.replace("_", "-"))
            if isinstance(value, bool):
                argv.append(flag if value else "--no-" + flag[2:])
            else:
                argv += [flag, str(value)]
        args = build_parser().parse_args(argv)
        assert _config_from_args(args) == ExperimentConfig(**values)

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_no_flag_for_a_setting_made_constant(self, capsys, field):
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["run", flag, "1"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_unset_flags_keep_the_config_file(self, tmp_path):
        config = ExperimentConfig(n_problems=12, symmetric=False, ability_init=0.5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        args = build_parser().parse_args(["run", "--config", str(path)])
        assert _config_from_args(args) == config

    def test_bank_generate_flags_are_run_flags(self):
        run = _flag_dests(_subparser("run"))
        generate = _flag_dests(_subparser("bank", "generate"))
        # --out names the bank file to write, not a run's output directory.
        shared = {flag: dest for flag, dest in generate.items() if flag != "--out"}
        assert shared == {flag: run[flag] for flag in shared}
        options = sorted(flag for flag in shared if flag not in ("-h", "--help"))
        assert options == ["--bank-mode", "--bank-scale", "--config", "--n-problems", "--seed"]


class TestRunCommand:
    def test_writes_outputs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", *TINY_FLAGS, "--seed", "3", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cdas seed=3: 5/5 steps" in printed
        assert (out / METRICS_FILE).exists()

    def test_matches_library_run(self, tmp_path):
        out = tmp_path / "run"
        main(["run", *TINY_FLAGS, "--seed", "8", "--out-dir", str(out)])
        config = ExperimentConfig(
            n_problems=12, batch_size=4, rollouts=4, total_steps=5, seed=8
        )
        want = run_experiment(config)
        rows = read_metrics_csv(out / METRICS_FILE)
        assert [r["learner_ability"] for r in rows] == [
            r.learner_ability for r in want.rows
        ]

    # The learner's logit overflows to infinity here; it is capped, not refused.
    @pytest.mark.parametrize(
        "flags",
        [
            ["--discrimination", "1e308"],
            ["--ability-init", "1e308", "--bank-mode", "levels", "--bank-scale", "5e307"],
        ],
        ids=["discrimination", "ability-gap"],
    )
    def test_huge_finite_learner_settings_run(self, tmp_path, flags):
        assert main(["run", *flags, "--steps", "2", "--out", str(tmp_path / "run")]) == 0

    def test_boolean_flag_negation(self, tmp_path):
        plain = tmp_path / "plain"
        ablated = tmp_path / "ablated"
        main(["run", *TINY_FLAGS, "--out", str(plain)])
        main(["run", *TINY_FLAGS, "--no-symmetric", "--no-warmup", "--out", str(ablated)])
        ckpt = json.loads((ablated / CHECKPOINT_FILE).read_text())
        assert ckpt["config"]["symmetric"] is False
        assert ckpt["config"]["warmup"] is False
        base = json.loads((plain / CHECKPOINT_FILE).read_text())
        assert base["config"]["symmetric"] is True
        assert base["config"]["warmup"] is True

    def test_config_file_plus_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config = ExperimentConfig(
            n_problems=12, batch_size=4, rollouts=4, total_steps=5, strategy="random"
        )
        config_path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "run"
        code = main(
            ["run", "--config", str(config_path), "--strategy", "prioritized", "--out", str(out)]
        )
        assert code == 0
        ckpt = json.loads((out / CHECKPOINT_FILE).read_text())
        assert ckpt["config"]["strategy"] == "prioritized"
        assert ckpt["config"]["n_problems"] == 12

    def test_invalid_config_exits_2(self, capsys):
        assert main(["run", "--n-problems", "4", "--batch-size", "9"]) == 2
        assert "batch_size" in capsys.readouterr().err
        assert main(["run", "--n-problems", "20", "--batch-size", "7"]) == 2
        assert "batch_size: symmetric mode needs an even batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ability-init", "inf"],
            ["--learn-rate", "nan"],
            ["--learn-rate", "inf"],
            ["--discrimination", "nan"],
            ["--ability-init", "nan"],
            ["--bank-mode", "levels", "--bank-scale", "nan"],
        ],
        ids=lambda flags: " ".join(flags[-2:]),
    )
    def test_non_finite_float_exits_2_before_any_run_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        assert main(["run", *TINY_FLAGS, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flags[-2][2:].replace('-', '_')}: must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("learn_rate", "0.1"), ("n_problems", 12.5), ("symmetric", "no"), ("strategy", [])],
    )
    def test_config_file_value_of_the_wrong_type_exits_2_before_any_run_directory(
        self, tmp_path, capsys, field, value
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({field: value}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: must be of type" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"ability_init": 10**400},
            {"discrimination": 10**400},
            {"learn_rate": 10**400},
            {"bank_scale": 10**400},
        ],
        ids=lambda fields: list(fields)[-1],
    )
    def test_config_file_int_too_large_for_a_float_exits_2_before_any_run_directory(
        self, tmp_path, capsys, fields
    ):
        # A 401-digit int: float() of it overflows, so validate refuses it.
        field = list(fields)[-1]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(fields))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: must be finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_config_file_naming_a_field_made_constant_exits_2(self, tmp_path, capsys, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({field: REMOVED_FIELDS[field]}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config field {field!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["run", *TINY_FLAGS, "--out", str(target / "run")])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_summary_lines_and_files(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare", *TINY_FLAGS,
                "--strategies", "cdas,random",
                "--seeds", "0,1",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("cdas ") == 2
        assert printed.count("random ") == 2
        assert (out / "comparison.csv").exists()
        assert (out / "comparison_summary.csv").exists()
        assert (out / "cdas_seed0" / METRICS_FILE).exists()
        assert (out / "random_seed1" / METRICS_FILE).exists()

    def test_unknown_strategy_exits_2(self, capsys):
        code = main(["compare", *TINY_FLAGS, "--strategies", "cdas,alphabetical"])
        assert code == 2
        assert "strategy" in capsys.readouterr().err

    def test_bad_seed_list_exits_2(self, capsys):
        code = main(["compare", *TINY_FLAGS, "--seeds", "0,x"])
        assert code == 2
        assert "seeds" in capsys.readouterr().err

    def test_duplicate_seeds_exit_2_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "compare"
        code = main(["compare", *TINY_FLAGS, "--seeds", "1,1", "--out", str(out)])
        assert code == 2
        assert "seeds: duplicates in [1, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestResumeCommand:
    def test_stop_then_resume(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", *TINY_FLAGS, "--seed", "5", "--out", str(out), "--stop-after", "2"])
        code = main(["resume", str(out / CHECKPOINT_FILE)])
        assert code == 0
        assert "5/5 steps" in capsys.readouterr().out
        assert len(read_metrics_csv(out / METRICS_FILE)) == 5

    def test_finished_checkpoint_notice_goes_to_stderr(self, tmp_path):
        # A separate process: the notice is logged, and only the CLI's own
        # logging set-up, not the test runner's, decides where it appears.
        out = tmp_path / "run"
        main(["run", *TINY_FLAGS, "--out", str(out)])
        src = Path(cdas.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "cdas.cli", "resume", str(out / CHECKPOINT_FILE)],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert done.returncode == 0
        assert "nothing to resume" in done.stderr
        assert "nothing to resume" not in done.stdout

    def test_bad_stop_after_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", *TINY_FLAGS, "--out", str(out), "--stop-after", "2"])
        capsys.readouterr()
        assert main(["resume", str(out / CHECKPOINT_FILE), "--stop-after", "0"]) == 2
        assert "stop_after" in capsys.readouterr().err
        assert len(read_metrics_csv(out / METRICS_FILE)) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload["sampler"].pop("rng"),
            lambda payload: payload["metrics_rows"][0].update(extra=1.0),
            lambda payload: payload["sampler"].update(t=[0] * 12),
            lambda payload: payload["sampler"].update(difficulty="not base64"),
            lambda payload: payload["sampler"].update(t=encode_array([0] * 11, "<i8")),
            lambda payload: payload["sampler"].update(t=encode_array([-1] * 12, "<i8")),
            lambda payload: payload["sampler"].update(
                difficulty=encode_array([math.nan] * 12, "<f8")
            ),
            lambda payload: payload["sampler"].update(
                last_pass_rate=encode_array([2.0] * 12, "<f8")
            ),
            lambda payload: payload.update(batches=encode_array([12] * 8, "<i8")),
            lambda payload: payload.update(format_version=4),
            lambda payload: payload["learner"].update(ability=math.nan),
            lambda payload: payload["sampler"].update(rng={}),
            lambda payload: payload["learner"].update(rng=5),
            lambda payload: payload["metrics_rows"][1].update(mean_reward="oops"),
            lambda payload: payload["metrics_rows"][1].update(step=7),
            lambda payload: payload.update(
                batches=encode_array([*range(4), 4, 4, 5, 6], "<i8")
            ),
            lambda payload: payload["metrics_rows"][1].update(mean_reward=math.nan),
            lambda payload: payload["metrics_rows"][0].update(learner_ability=-math.inf),
            lambda payload: payload["config"].update(strategy=[]),
        ],
        ids=[
            "no-sampler-rng",
            "extra-metrics-field",
            "counts-a-list",
            "estimates-not-base64",
            "count-missing",
            "negative-counts",
            "nan-estimates",
            "rates-above-one",
            "index-past-the-bank",
            "format-4",
            "nan-ability",
            "empty-sampler-rng",
            "int-learner-rng",
            "string-mean-reward",
            "step-7-in-row-2",
            "index-repeated-in-a-step",
            "nan-mean-reward",
            "infinite-ability-in-row-1",
            "list-strategy",
        ],
    )
    def test_damaged_checkpoint_exits_2(self, tmp_path, capsys, edit):
        out = tmp_path / "run"
        main(["run", *TINY_FLAGS, "--out", str(out), "--stop-after", "2"])
        capsys.readouterr()
        path = out / CHECKPOINT_FILE
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        assert main(["resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint" in err and "Traceback" not in err

    def test_format_6_checkpoint_exits_2(self, tmp_path, capsys):
        path = Path(__file__).resolve().parent / "data" / "checkpoint_format6.json"
        out = tmp_path / "run"
        assert main(["resume", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unsupported format_version 6" in err and "Traceback" not in err
        assert not out.exists()

    def test_format_7_checkpoint_exits_2(self, tmp_path, capsys):
        path = Path(__file__).resolve().parent / "data" / "checkpoint_format7.json"
        out = tmp_path / "run"
        assert main(["resume", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unsupported format_version 7" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        code = main(["resume", str(tmp_path / "nope.json")])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestFixedPointCommand:
    def test_json_input_and_outputs(self, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps([0.25, 0.5, 0.75]))
        out = tmp_path / "solution.json"
        trajectory = tmp_path / "trajectory.csv"
        code = main(
            [
                "fixed-point",
                "--s-star", str(s_path),
                "--out", str(out),
                "--trajectory-out", str(trajectory),
            ]
        )
        assert code == 0
        assert "converged in" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert len(payload["d_star"]) == 3
        assert payload["final_residual"] <= 1e-10
        assert max(payload["contraction_ratios"]) <= 0.5 + 1e-9
        assert trajectory.read_text().splitlines()[0] == "iteration,delta,ratio"

    def test_plain_text_input(self, tmp_path):
        s_path = tmp_path / "s.txt"
        s_path.write_text("0.1\n0.9\n0.5\n")
        assert main(["fixed-point", "--s-star", str(s_path)]) == 0

    def test_random_start_agrees_with_zero_start(self, tmp_path):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps([0.3, 0.6]))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["fixed-point", "--s-star", str(s_path), "--out", str(a)])
        main(["fixed-point", "--s-star", str(s_path), "--init-seed", "7", "--out", str(b)])
        got_a = json.loads(a.read_text())
        got_b = json.loads(b.read_text())
        assert got_a["c_star"] == pytest.approx(got_b["c_star"], abs=1e-8)

    def test_exhausted_budget_exits_3(self, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps([0.9] * 4))
        code = main(
            ["fixed-point", "--s-star", str(s_path), "--init-seed", "0", "--max-iters", "2"]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_bad_rates_exit_2(self, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps({"not": "a list"}))
        assert main(["fixed-point", "--s-star", str(s_path)]) == 2
        capsys.readouterr()
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["fixed-point", "--s-star", str(empty)]) == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps([0.25, 0.5]))
        assert main(["fixed-point", "--s-star", str(s_path), "--tolerance", tolerance]) == 2
        err = capsys.readouterr().err
        assert "error: tolerance" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("s.json", "[0.5, "),
            ("s.json", '["0.5", true]'),
            ("s.json", "[0.5, true]"),
            ("s.json", "[0.5, NaN]"),
            ("s.json", "[0.5, 1e400]"),
            ("s.json", f"[0.5, {10**400}]"),
            ("s.json", "[1.5]"),
            ("s.txt", "0.5\nnan\n"),
            ("s.txt", "1.5\n"),
            ("s.txt", "-0.25\n"),
        ],
        ids=[
            "invalid-json", "string-and-bool", "bool", "json-nan", "json-inf", "huge-int",
            "json-above-1", "text-nan", "text-above-1", "text-below-0",
        ],
    )
    @pytest.mark.parametrize("init", [[], ["--init-seed", "0"]], ids=["zero-start", "random-start"])
    def test_bad_s_star_exits_2_without_a_traceback(self, tmp_path, capsys, name, text, init):
        s_path = tmp_path / name
        s_path.write_text(text)
        assert main(["fixed-point", "--s-star", str(s_path), *init]) == 2
        err = capsys.readouterr().err
        assert "s_star" in err and "Traceback" not in err


class TestBankCommands:
    def test_generate_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "bank.json"
        argv = ["bank", "generate", "--n-problems", "50", "--seed", "4", "--out", str(path)]
        assert main(argv) == 0
        assert main(["bank", "inspect", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "50 problems" in printed
        assert "levels: 1: 10, 2: 10, 3: 10, 4: 10, 5: 10" in printed

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--seed", "-1"], "seed"),
            (["--bank-scale", "nan"], "bank_scale"),
            (["--bank-scale", "inf"], "bank_scale"),
            (["--bank-mode", "levels", "--bank-scale", "inf"], "bank_scale"),
            (["--bank-mode", "levels", "--bank-scale", "nan"], "bank_scale"),
        ],
        ids=["negative-seed", "nan-scale", "inf-scale", "levels-inf-scale", "levels-nan-scale"],
    )
    def test_bad_generate_argument_exits_2(self, tmp_path, capsys, flags, name):
        path = tmp_path / "bank.json"
        assert main(["bank", "generate", *flags, "--n-problems", "10", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {name}: must be" in err and "Traceback" not in err
        assert not path.exists()

    def test_untagged_problems_listed_last(self, tmp_path, capsys):
        path = tmp_path / "bank.json"
        save_bank(ProblemBank(["a", "b", "c"], [None, 2, 2], [0.0, 0.5, 1.0]), path)
        assert main(["bank", "inspect", str(path)]) == 0
        assert "levels: 2: 2, untagged: 1" in capsys.readouterr().out

    def test_inspect_record_without_level_tag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bank.json"
        record = {"id": "p0", "true_difficulty": 0.5}
        path.write_text(json.dumps({"format_version": BANK_FORMAT_VERSION, "records": [record]}))
        assert main(["bank", "inspect", str(path)]) == 2
        assert "record 0 has no 'level_tag'" in capsys.readouterr().err

    def test_generated_bank_matches_run_bank(self, tmp_path):
        # A bank written with seed k is the bank a run with seed k generates.
        # 5 problems is fewer than a default batch, which only a run's sampler refuses.
        path = tmp_path / "bank.json"
        for n in (12, 5):
            argv = ["bank", "generate", "--n-problems", str(n), "--seed", "3", "--out", str(path)]
            assert main(argv) == 0
            result = run_experiment(
                ExperimentConfig(n_problems=n, batch_size=4, rollouts=4, total_steps=1, seed=3)
            )
            assert load_bank(path).content_hash() == result.bank_hash

    def test_run_from_bank_file(self, tmp_path, capsys):
        path = tmp_path / "bank.json"
        save_bank(generate_bank(ExperimentConfig(n_problems=20), np.random.default_rng(2)), path)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--bank-path", str(path),
                "--batch-size", "4",
                "--rollouts", "4",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_metrics_csv(out / METRICS_FILE)
        assert len(rows) == 3

    @pytest.mark.parametrize("bad_id", [7, "p;1", "a\ud800"])
    def test_bank_with_a_malformed_id_exits_2_before_any_step(self, tmp_path, capsys, bad_id):
        path = tmp_path / "bank.json"
        records = [
            {"id": "p0", "level_tag": 1, "true_difficulty": 0.0},
            {"id": bad_id, "level_tag": 2, "true_difficulty": 0.5},
        ]
        path.write_text(json.dumps({"format_version": BANK_FORMAT_VERSION, "records": records}))
        assert main(["bank", "inspect", str(path)]) == 2
        assert "problem id" in capsys.readouterr().err
        out = tmp_path / "run"
        flags = ["--batch-size", "2", "--rollouts", "4", "--steps", "2", "--out", str(out)]
        assert main(["run", "--bank-path", str(path), *flags]) == 2
        assert f"got {bad_id!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("latent", ["0.5", True])
    def test_bank_with_a_latent_that_is_not_a_number_exits_2(self, tmp_path, capsys, latent):
        # The hash cannot catch it: the latent's bytes are the same either way.
        path = tmp_path / "bank.json"
        records = [
            {"id": "p0", "level_tag": 1, "true_difficulty": 0.0},
            {"id": "p1", "level_tag": 2, "true_difficulty": latent},
        ]
        path.write_text(json.dumps({"format_version": BANK_FORMAT_VERSION, "records": records}))
        assert main(["bank", "inspect", str(path)]) == 2
        assert "record 1 has a true_difficulty that is not a number" in capsys.readouterr().err
        out = tmp_path / "run"
        flags = ["--batch-size", "2", "--rollouts", "4", "--steps", "2", "--out", str(out)]
        assert main(["run", "--bank-path", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert f"not a number, {latent!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_generate_starts_from_a_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        config = ExperimentConfig(n_problems=30, seed=6, bank_mode="levels", bank_scale=1.5)
        config_path.write_text(json.dumps(config.to_dict()))
        path = tmp_path / "bank.json"
        argv = ["bank", "generate", "--config", str(config_path), "--seed", "2", "--out", str(path)]
        assert main(argv) == 0
        want = run_experiment(config.with_overrides(seed=2, batch_size=4, total_steps=1))
        assert load_bank(path).content_hash() == want.bank_hash

    def test_bank_file_mode_key_is_ignored(self, tmp_path, capsys):
        # Bank files written before banks dropped their mode label hold a "mode" key.
        path = tmp_path / "bank.json"
        bank = generate_bank(ExperimentConfig(n_problems=3), np.random.default_rng(0))
        save_bank(bank, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "mode": ["x"]}))
        assert main(["bank", "inspect", str(path)]) == 0
        assert f"hash: {bank.content_hash()}" in capsys.readouterr().out

    def test_corrupt_bank_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bank.json"
        save_bank(generate_bank(ExperimentConfig(n_problems=10), np.random.default_rng(1)), path)
        payload = json.loads(path.read_text())
        payload["records"][0]["true_difficulty"] += 1.0
        path.write_text(json.dumps(payload))
        assert main(["run", "--bank-path", str(path), *TINY_FLAGS]) == 2
        assert "hash" in capsys.readouterr().err


# Each command that reads an outside file, with the name it reads it under.
FILE_READERS = {
    "run-config": ("config.json", lambda path: ["run", *TINY_FLAGS, "--config", path]),
    "run-bank-path": ("bank.json", lambda path: ["run", *TINY_FLAGS, "--bank-path", path]),
    "resume": (CHECKPOINT_FILE, lambda path: ["resume", path]),
    "bank-inspect": ("bank.json", lambda path: ["bank", "inspect", path]),
    "s-star-json": ("s.json", lambda path: ["fixed-point", "--s-star", path]),
    "s-star-text": ("s.txt", lambda path: ["fixed-point", "--s-star", path]),
}


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"], ids=["bad-json", "not-text"])
@pytest.mark.parametrize("reader", sorted(FILE_READERS))
def test_unreadable_input_file_exits_2_without_a_traceback(tmp_path, capsys, reader, content):
    name, command = FILE_READERS[reader]
    path = tmp_path / name
    path.write_bytes(content)
    assert main(command(str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "Traceback" not in err
