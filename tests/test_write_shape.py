"""Each value is formatted once per run: the text pass the output files share.

A run with outputs writes problems.csv in one full ``text_blocks`` pass,
which also gives the bank hash and the checkpoint's per-problem lists, so
``json.dumps`` never sees a list with one entry per problem.  A run without
outputs never hashes its bank, and a resume hashes it once, for its bank
check.  This gates the shape of the work, not its wall-clock time.
"""

import json
import types
from collections import Counter

import pytest

from cdas import learner
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.harness import CHECKPOINT_FILE, resume_experiment, run_experiment
from cdas.learner import BLOCK_ROWS, ProblemBank

# Three blocks, the last one short; a size no other list in a run has.
N_PROBLEMS = 2 * BLOCK_ROWS + 5


def _config(strategy, **overrides):
    return ExperimentConfig(
        n_problems=N_PROBLEMS,
        batch_size=256,
        total_steps=6,
        strategy=strategy,
        **overrides,
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts bank hash requests, digests, text passes and bank-sized lists dumped to JSON."""
    calls = Counter()
    real_hash, real_blocks = ProblemBank.content_hash, ProblemBank.text_blocks
    real_sha256, real_dumps = learner.hashlib.sha256, json.dumps

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

    def bank_sized_lists(value):
        if isinstance(value, dict):
            return sum(map(bank_sized_lists, value.values()))
        if isinstance(value, (list, tuple)):
            return (len(value) == N_PROBLEMS) + sum(map(bank_sized_lists, value))
        return 0

    def dumps(obj, *args, **kwargs):
        calls["bank_sized_lists_dumped"] += bank_sized_lists(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(ProblemBank, "content_hash", content_hash)
    monkeypatch.setattr(ProblemBank, "text_blocks", text_blocks)
    monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(json, "dumps", dumps)
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
    assert len(checkpoint["sampler"]["last_pass_rate"]) == N_PROBLEMS


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
