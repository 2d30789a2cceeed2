"""The step loop works on bank-index arrays, with no per-problem scalar calls.

Counting stand-ins replace the scalar ``sigmoid`` and ``ProblemRecord``
wherever a ``cdas`` module holds them.  A whole run, set-up and output
writing included, must call neither: each is a Python call per batch
problem, the cost the array paths remove.  Writing the outputs passes rows
through ``csv.writer`` per step, never per problem, and the bank is hashed
once.  A sampler calls its generator at most once per step, and dynamic
sampling at most once per rollout round: never once per pick.  The learner
draws once per rollout round, whatever the strategy.  Per-problem
state sits in the checkpoint as bank-order lists, never as objects keyed by
problem id.  Inside a run a problem is its bank index: once the bank is
built, a run that writes no outputs reads no problem id.  This gates the
shape of the work, not its wall-clock time.
"""

import csv
import dataclasses
import hashlib
import json
import sys
import types
from collections import Counter

import pytest

from cdas import core, harness, learner
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.harness import CHECKPOINT_FILE, run_experiment, write_outputs

SCALAR = {
    "sigmoid": core.sigmoid,
    "ProblemRecord": core.ProblemRecord,
}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts calls of the scalar functions and records, at every import site."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    patched = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cdas"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, original in SCALAR.items():
                if value is original:
                    monkeypatch.setattr(module, attr, counting(name, original))
                    patched[name] += 1
    assert set(patched) == set(SCALAR)
    # The stand-ins count: the scalar oracle still routes through them.
    core.expected_performance(0.0, 0.0)
    core.ProblemRecord(id="x")
    assert calls == Counter(sigmoid=1, ProblemRecord=1)
    calls.clear()
    return calls


@pytest.fixture
def work(monkeypatch):
    """Counts rows handed to any ``csv.writer`` and bank digests computed."""
    calls = Counter()
    real_writer, real_sha256 = csv.writer, hashlib.sha256

    class CountingWriter:
        def __init__(self, *args, **kwargs):
            self._writer = real_writer(*args, **kwargs)

        def writerow(self, row):
            calls["csv_rows"] += 1
            return self._writer.writerow(row)

        def writerows(self, rows):
            rows = list(rows)
            calls["csv_rows"] += len(rows)
            return self._writer.writerows(rows)

    def counting_sha256(*args):
        calls["bank_digests"] += 1
        return real_sha256(*args)

    monkeypatch.setattr(csv, "writer", CountingWriter)
    monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=counting_sha256))
    return calls


def _config(strategy, tmp_path):
    # 5k/256 warms the cdas sampler up in 20 steps, then selects by alignment.
    return ExperimentConfig(
        n_problems=5000,
        batch_size=256,
        total_steps=30,
        strategy=strategy,
        out_dir=str(tmp_path),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_makes_no_per_problem_scalar_calls(scalar_calls, tmp_path, strategy):
    result = run_experiment(_config(strategy, tmp_path))
    assert len(result.rows) == 30
    assert scalar_calls == Counter()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_writing_outputs_is_per_step_and_the_bank_is_hashed_once(work, tmp_path, strategy):
    config = _config(strategy, tmp_path)
    run_experiment(config)
    # metrics.csv and batches.csv: a header and a row per step each;
    # problems.csv is written as text blocks.
    assert work["csv_rows"] <= 2 * (config.total_steps + 1)
    assert work["bank_digests"] == 1


class LoggingGenerator:
    """Stands in for a sampler's generator and logs the name of each method called."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args, **kwargs):
            self._log.append(name)
            return method(*args, **kwargs)

        return logged


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_sampler_draws_at_most_once_per_step_or_round(monkeypatch, tmp_path, strategy):
    log, learner_log, round_draws = [], [], []
    real_make_sampler, real_pass_counts = harness.make_sampler, learner.SyntheticLearner.pass_counts
    real_start = harness._start

    def make_sampler(config, bank, rng):
        sampler = real_make_sampler(config, bank, LoggingGenerator(rng, log))
        log.clear()  # set-up draws, such as the cdas warm-up permutation
        return sampler

    def start(config):
        bank, sampler_rng, run_learner = real_start(config)
        run_learner._rng = LoggingGenerator(run_learner._rng, learner_log)
        return bank, sampler_rng, run_learner

    def pass_counts(self, *args):
        log.append("rollout round")
        first = len(learner_log)
        counts = real_pass_counts(self, *args)
        round_draws.append(learner_log[first:])
        return counts

    monkeypatch.setattr(harness, "make_sampler", make_sampler)
    monkeypatch.setattr(harness, "_start", start)
    monkeypatch.setattr(learner.SyntheticLearner, "pass_counts", pass_counts)
    config = _config(strategy, tmp_path)
    run_experiment(config)
    rounds = log.count("rollout round")
    if strategy != "dynamic":
        assert rounds == config.total_steps
    # The learner draws once per rollout round, and only there.
    assert round_draws == [["random"]] * rounds
    assert len(learner_log) == rounds
    # The generator calls that pick a round's problems come right before it.
    draws, most = 0, 0
    for name in log:
        draws = 0 if name == "rollout round" else draws + 1
        most = max(most, draws)
    assert most <= 1, Counter(log).most_common(2)


def _object_keys(value):
    """Every key of every JSON object inside ``value``."""
    if isinstance(value, dict):
        yield from value
        for item in value.values():
            yield from _object_keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _object_keys(item)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_checkpoint_keys_no_object_by_problem_id(tmp_path, strategy):
    result = run_experiment(_config(strategy, tmp_path))
    checkpoint = json.loads((tmp_path / CHECKPOINT_FILE).read_text())
    keyed_by_id = set(_object_keys(checkpoint)) & set(result.bank.ids)
    assert not keyed_by_id, sorted(keyed_by_id)[:3]


class CountingIds(tuple):
    """A bank's ids that count each item read and each pass over them."""

    def __new__(cls, ids):
        counting = super().__new__(cls, ids)
        counting.reads = 0
        return counting

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_without_outputs_reads_no_problem_id(monkeypatch, tmp_path, strategy):
    real_start = harness._start

    def start(config):
        bank, sampler_rng, run_learner = real_start(config)
        bank.ids = CountingIds(bank.ids)
        return bank, sampler_rng, run_learner

    monkeypatch.setattr(harness, "_start", start)
    result = run_experiment(dataclasses.replace(_config(strategy, tmp_path), out_dir=None))
    assert len(result.rows) == 30
    assert result.bank.ids.reads == 0
    # The stand-in counts: writing the outputs names every batch's problems.
    write_outputs(result, tmp_path)
    assert result.bank.ids.reads > 0
