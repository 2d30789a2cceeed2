"""Each value is formatted once per run, and the bank is hashed at most once.

A run with outputs hashes its bank once, over the bank's bytes, and writes
problems.csv in one pass that formats each latent once.  The checkpoint
holds each per-problem column and the batches as base64 bytes, so JSON
never sees a list with one entry per problem, nor a batch.  A run without
outputs never hashes its bank and formats no latent, and a resume hashes it
once, for its bank check.  Batches travel as bank indices: the step loop
never looks an id up, a write looks up each batch's ids once, for
batches.csv, and a resume never maps an id to its position.  This gates the
shape of the work, not its wall-clock time.
"""

import json
import types
from collections import Counter

import numpy as np
import pytest

from cdas import harness, learner
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.files import decode_array
from cdas.harness import BLOCK_ROWS, CHECKPOINT_FILE, resume_experiment, run_experiment
from cdas.learner import ProblemBank

# Three blocks, the last one short; a size no other list in a run has.
N_PROBLEMS = 2 * BLOCK_ROWS + 5
# Nor has any list but a batch this size.
BATCH_SIZE = 256


def _config(strategy, **overrides):
    return ExperimentConfig(
        n_problems=N_PROBLEMS,
        batch_size=BATCH_SIZE,
        total_steps=6,
        strategy=strategy,
        **overrides,
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts bank hash requests, digests, and bank-sized lists and batches
    dumped to JSON, to a string or to a file."""
    calls = Counter()
    real_hash = ProblemBank.content_hash
    real_sha256, real_dump, real_dumps = learner.hashlib.sha256, json.dump, json.dumps

    def content_hash(self):
        calls["content_hash"] += 1
        return real_hash(self)

    def sha256(*args):
        calls["digests"] += 1
        return real_sha256(*args)

    def lists_of(size, value):
        if isinstance(value, dict):
            return sum(lists_of(size, item) for item in value.values())
        if isinstance(value, (list, tuple)):
            return (len(value) == size) + sum(lists_of(size, item) for item in value)
        return 0

    def counted(real):
        def dump(obj, *args, **kwargs):
            calls["bank_sized_lists_dumped"] += lists_of(N_PROBLEMS, obj)
            calls["batches_dumped"] += lists_of(BATCH_SIZE, obj)
            return real(obj, *args, **kwargs)

        return dump

    monkeypatch.setattr(ProblemBank, "content_hash", content_hash)
    monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(json, "dump", counted(real_dump))
    monkeypatch.setattr(json, "dumps", counted(real_dumps))
    return calls


@pytest.fixture
def formatted(monkeypatch):
    """The values ``cdas.learner`` and ``cdas.harness`` format by ``repr``, but for
    the sampler-state cells ``_distinct_text`` formats."""
    values, inside = Counter(), [False]
    real_distinct_text = harness._distinct_text

    def counting_repr(value):
        if not inside[0]:
            values[value] += 1
        return repr(value)

    def distinct_text(column):
        inside[0] = True
        try:
            return real_distinct_text(column)
        finally:
            inside[0] = False

    for module in (harness, learner):
        monkeypatch.setattr(module, "repr", counting_repr, raising=False)
    monkeypatch.setattr(harness, "_distinct_text", distinct_text)
    return values


def _one_write(result) -> Counter:
    """What one write formats: each latent once."""
    return Counter(result.bank.latent.tolist())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_without_outputs_never_hashes_the_bank(calls, formatted, strategy):
    result = run_experiment(_config(strategy))
    assert len(result.rows) == 6
    assert calls == Counter()
    assert formatted == Counter()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_with_outputs_hashes_once_and_formats_each_latent_once(
    calls, formatted, tmp_path, strategy
):
    result = run_experiment(_config(strategy, out_dir=str(tmp_path)))
    assert calls["digests"] == 1
    assert formatted == _one_write(result)
    assert calls["bank_sized_lists_dumped"] == 0
    checkpoint = json.loads((tmp_path / CHECKPOINT_FILE).read_text())
    rates = checkpoint["sampler"]["last_pass_rate"]
    assert decode_array(rates, "<f8", N_PROBLEMS, "last_pass_rate").shape == (N_PROBLEMS,)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_resume_hashes_the_bank_once(calls, tmp_path, strategy):
    run_experiment(_config(strategy, out_dir=str(tmp_path)), stop_after=3)
    calls.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    # The bank check hashes; writing summary.json and the checkpoint then
    # reuses the digest.
    assert calls["digests"] == 1
    assert calls["bank_sized_lists_dumped"] == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_resume_formats_the_latent_column_once(formatted, tmp_path, strategy):
    first = run_experiment(_config(strategy, out_dir=str(tmp_path)), stop_after=3)
    assert formatted == _one_write(first)
    formatted.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    assert formatted == _one_write(result)


def test_a_resume_with_nothing_to_do_formats_no_latent(calls, formatted, tmp_path):
    run_experiment(_config("random", out_dir=str(tmp_path)))
    calls.clear()
    formatted.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    # The bank check hashes the bank; nothing writes.
    assert calls["digests"] == 1
    assert formatted == Counter()


def test_a_loaded_bank_run_without_outputs_formats_no_latent(calls, formatted, tmp_path):
    path = tmp_path / "bank.json"
    bank = learner.generate_bank(ExperimentConfig(n_problems=N_PROBLEMS), np.random.default_rng(0))
    learner.save_bank(bank, path)
    calls.clear()
    formatted.clear()
    result = run_experiment(_config("random", bank_path=str(path)))
    assert len(result.rows) == 6
    # load_bank's hash check is the one digest.
    assert calls["digests"] == 1
    assert formatted == Counter()


@pytest.fixture
def id_lookups(monkeypatch):
    """Counts lookups of a bank id by position, in the step loop, in writes and elsewhere."""
    calls = Counter()
    stage = ["elsewhere"]

    class CountingIds(tuple):
        def __getitem__(self, key):
            if not isinstance(key, slice):
                calls[stage[0]] += 1
            return tuple.__getitem__(self, key)

    def staged(name, real):
        def wrapper(*args, **kwargs):
            stage[0] = name
            try:
                return real(*args, **kwargs)
            finally:
                stage[0] = "elsewhere"

        return wrapper

    real_generate_bank = harness.generate_bank

    def generate_bank(*args, **kwargs):
        bank = real_generate_bank(*args, **kwargs)
        bank.ids = CountingIds(bank.ids)
        return bank

    monkeypatch.setattr(harness, "generate_bank", generate_bank)
    monkeypatch.setattr(harness, "_advance", staged("step_loop", harness._advance))
    monkeypatch.setattr(harness, "write_outputs", staged("write", harness.write_outputs))
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_step_loop_never_looks_up_an_id(id_lookups, strategy):
    result = run_experiment(_config(strategy))
    assert len(result.rows) == 6
    assert id_lookups["step_loop"] == 0
    # Nor does anything build the id-to-position map.
    assert "index" not in vars(result.bank)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_write_looks_up_each_batch_id_once(calls, id_lookups, tmp_path, strategy):
    run_experiment(_config(strategy, out_dir=str(tmp_path)), stop_after=3)
    assert id_lookups["write"] == 3 * BATCH_SIZE
    id_lookups.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert id_lookups["write"] == len(result.batches) * BATCH_SIZE == 6 * BATCH_SIZE
    assert id_lookups["step_loop"] == 0
    # The checkpoint's batches are bank indices, not ids.
    assert calls["batches_dumped"] == 0
    checkpoint = json.loads((tmp_path / CHECKPOINT_FILE).read_text())
    batches = decode_array(checkpoint["batches"], "<i8", 6 * BATCH_SIZE, "batches")
    assert batches.tolist() == np.concatenate(result.batches).tolist()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_resume_never_builds_the_id_index(tmp_path, strategy):
    run_experiment(_config(strategy, out_dir=str(tmp_path)), stop_after=3)
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    assert "index" not in vars(result.bank)
