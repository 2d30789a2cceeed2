"""Each value is formatted once per run: the text pass the output files share.

A run with outputs writes problems.csv in one full ``text_blocks`` pass,
which also gives the bank hash.  The checkpoint holds each per-problem
column and the batches as base64 bytes, so JSON never sees a list with one
entry per problem, nor a batch.  A run without outputs never hashes its
bank, and a resume hashes it once, for its bank check, and formats the
latent column once, in that pass.  Batches travel as bank indices: the step
loop never looks an id up, a write looks up each batch's ids once, for
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
from cdas.harness import CHECKPOINT_FILE, resume_experiment, run_experiment
from cdas.learner import BLOCK_ROWS, ProblemBank

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
    """Counts bank hash requests, digests, text passes, and bank-sized lists and
    batches dumped to JSON, to a string or to a file."""
    calls = Counter()
    real_hash, real_blocks = ProblemBank.content_hash, ProblemBank.text_blocks
    real_sha256, real_dump, real_dumps = learner.hashlib.sha256, json.dump, json.dumps

    def content_hash(self):
        calls["content_hash"] += 1
        return real_hash(self)

    def text_blocks(self, *args):
        calls["text_passes"] += 1
        blocks = 0
        for block in real_blocks(self, *args):
            blocks += 1
            yield block
        calls["full_text_passes"] += blocks == -(-len(self) // BLOCK_ROWS)

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
    monkeypatch.setattr(ProblemBank, "text_blocks", text_blocks)
    monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(json, "dump", counted(real_dump))
    monkeypatch.setattr(json, "dumps", counted(real_dumps))
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_without_outputs_never_hashes_the_bank(calls, strategy):
    result = run_experiment(_config(strategy))
    assert len(result.rows) == 6
    assert calls == Counter()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_with_outputs_formats_the_bank_in_one_text_pass(calls, tmp_path, strategy):
    run_experiment(_config(strategy, out_dir=str(tmp_path)))
    assert calls["text_passes"] == calls["full_text_passes"] == 1
    assert calls["digests"] == 1
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
    # The bank check hashes in content_hash's own pass; writing problems.csv
    # then reuses the digest.
    assert calls["digests"] == 1
    assert calls["text_passes"] == calls["full_text_passes"] == 2
    assert calls["bank_sized_lists_dumped"] == 0


@pytest.fixture
def latent_reprs(monkeypatch):
    """Counts the values ``cdas.learner`` formats by ``repr``: the latent column's."""
    calls = Counter()

    def counting_repr(value):
        calls["latent"] += 1
        return repr(value)

    monkeypatch.setattr(learner, "repr", counting_repr, raising=False)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_resume_formats_the_latent_column_once(latent_reprs, tmp_path, strategy):
    # A run that writes without hashing first formats it once, in that pass.
    run_experiment(_config(strategy, out_dir=str(tmp_path)), stop_after=3)
    assert latent_reprs["latent"] == N_PROBLEMS
    latent_reprs.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    # The bank check's hash pass keeps the text and problems.csv reuses it.
    assert latent_reprs["latent"] == N_PROBLEMS
    # The text was dropped once used: another pass formats the column again.
    for _ in result.bank.text_blocks(""):
        pass
    assert latent_reprs["latent"] == 2 * N_PROBLEMS


def _format_latents_again(bank):
    for _ in bank.text_blocks(""):
        pass


def test_a_resume_with_nothing_to_do_keeps_no_latent_text(latent_reprs, tmp_path):
    run_experiment(_config("random", out_dir=str(tmp_path)))
    latent_reprs.clear()
    result = resume_experiment(tmp_path / CHECKPOINT_FILE)
    assert len(result.rows) == 6
    # The bank check formats the column once; nothing writes, so nothing keeps it.
    assert latent_reprs["latent"] == N_PROBLEMS
    _format_latents_again(result.bank)
    assert latent_reprs["latent"] == 2 * N_PROBLEMS


def test_a_loaded_bank_run_without_outputs_keeps_no_latent_text(latent_reprs, tmp_path):
    path = tmp_path / "bank.json"
    learner.save_bank(learner.generate_bank(N_PROBLEMS, np.random.default_rng(0)), path)
    latent_reprs.clear()
    result = run_experiment(_config("random", bank_path=str(path)))
    assert len(result.rows) == 6
    # load_bank's hash check formats the column once.
    assert latent_reprs["latent"] == N_PROBLEMS
    _format_latents_again(result.bank)
    assert latent_reprs["latent"] == 2 * N_PROBLEMS


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
