"""problems.csv, the checkpoint and the bank hash against the code they replaced.

problems.csv and the hash are written from ``ProblemBank.text_blocks``,
``BLOCK_ROWS`` rows at a time, and the checkpoint's per-problem lists from
the same text.  The oracles are the earlier forms: ``csv.writer.writerows``
over the columns for problems.csv, ``json.dumps`` of the whole payload for
the checkpoint, and one string of ``f"{id},{tag},{latent!r}\\n"`` lines for
the hash.  Bank sizes sit on both sides of each block boundary.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cdas import harness
from cdas.config import BANK_MODES, STRATEGIES, ExperimentConfig
from cdas.harness import (
    CHECKPOINT_FILE,
    CHECKPOINT_VERSION,
    PROBLEMS_FILE,
    RunResult,
    run_experiment,
    write_outputs,
)
from cdas.learner import BLOCK_ROWS, ProblemBank

SIZES = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]

EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e22, -1e22, 0.1, 1e16, -1.5]),
    st.floats(-1e300, 1e300, allow_nan=False),
)
EDGE_RATES = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0, 1 / 3])
# Visit counts, some past the range of a 32-bit int.
COUNTS = st.one_of(st.integers(0, 10**6), st.integers(2**31, 2**63 - 1))
TAGS = st.sampled_from([None, 1, 2, 3, 4, 5])
# Plain text but for the characters an id may not hold.
ID_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',;"\r\n'), max_size=4
)


def _tile(values, n):
    """``values`` repeated to length ``n``."""
    return (list(values) * (n // len(values) + 1))[:n]


def _problems_csv_oracle(run: RunResult) -> bytes:
    state = run.sampler.state_dict()
    bank = run.bank
    counts = state.get("t", [0] * len(bank))
    estimates = state.get("difficulty", [run.config.initial_difficulty] * len(bank))
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "level_tag", "true_difficulty", "t", "difficulty", "final_pass_rate"])
    writer.writerows(
        zip(
            bank.ids,
            bank.level_tags,
            bank.latent.tolist(),
            counts,
            estimates,
            (None if math.isnan(rate) else rate for rate in run.sampler.last_pass_rates.tolist()),
        )
    )
    return text.getvalue().encode()


def _checkpoint_oracle(run: RunResult) -> bytes:
    # The hash of a fresh copy of the bank, which content_hash computes itself.
    bank = ProblemBank(run.bank.ids, run.bank.level_tags, run.bank.latent)
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": run.config.to_dict(),
        "config_hash": run.config.content_hash(),
        "bank_hash": bank.content_hash(),
        "sampler": run.sampler.state_dict(),
        "learner": run.learner.state_dict(),
        "metrics_rows": [dataclasses.asdict(row) for row in run.rows],
        "batches": [[run.bank.ids[i] for i in batch] for batch in run.batches],
    }
    return (json.dumps(payload) + "\n").encode()


RUNS = dict(
    strategy=st.sampled_from(STRATEGIES),
    mode=st.sampled_from(BANK_MODES),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 3),
    prefix=ID_TEXT,
    latents=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
    tags=st.lists(TAGS, min_size=1, max_size=8),
    estimates=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
    counts=st.lists(COUNTS, min_size=1, max_size=8),
    rates=st.lists(st.tuples(st.integers(0), EDGE_RATES), max_size=4),
)


def _runs(n, strategy, mode, seed, steps, prefix, latents, tags, estimates, counts, rates):
    """A short run on an ``n``-problem bank, and the same run with edge values everywhere."""
    # Dynamic sampling rolls a problem once a step, so a one-problem bank
    # whose only group agrees has nothing to train on.
    assume(n > 1 or strategy != "dynamic")
    # A few real steps, so some problems are reported and most are not.
    config = ExperimentConfig(
        n_problems=n,
        batch_size=min(n, 8),
        symmetric=n > 1,
        rollouts=4,
        total_steps=steps,
        strategy=strategy,
        bank_mode=mode,
        seed=seed,
        # Curriculum switches after step 1; a one-problem bank has to pass its filter.
        curriculum_switch_step=1,
        curriculum_threshold=4 if n > 1 else 1,
    )
    run = run_experiment(config)

    # Odd id text, untagged problems, negative zero, subnormal and huge
    # latents and estimates, counts past 2**31, and negative zero and
    # subnormal pass rates.
    state = run.sampler.state_dict()
    if strategy == "cdas":
        state["t"] = _tile(counts, n)
        state["difficulty"] = _tile(estimates, n)
    for position, rate in rates:
        state["last_pass_rate"][position % n] = rate
    sampler = harness.make_sampler(config, run.bank, np.random.default_rng(seed))
    sampler.load_state_dict(state)
    bank = ProblemBank([f"{prefix}{i}" for i in range(n)], _tile(tags, n), _tile(latents, n))
    edged = RunResult(config, bank, sampler, run.learner, run.rows, run.batches)
    return run, edged


def _written(run: RunResult, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        write_outputs(run, out)
        return (Path(out) / name).read_bytes()


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RUNS)
def test_problems_csv_matches_csv_writer(n, **draws):
    for run in _runs(n, **draws):
        assert _written(run, PROBLEMS_FILE) == _problems_csv_oracle(run)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**RUNS)
def test_checkpoint_matches_json_dumps(n, **draws):
    for run in _runs(n, **draws):
        assert _written(run, CHECKPOINT_FILE) == _checkpoint_oracle(run)


FLOAT_COLUMN = st.lists(st.one_of(EDGE_FLOATS, EDGE_RATES, st.just(math.nan)), min_size=1)


@settings(max_examples=200, deadline=None)
@given(values=FLOAT_COLUMN)
def test_float_cells_are_repr_of_each_value(values):
    cells, text = harness._distinct_text(np.array(values, dtype=np.float64))
    assert cells == ["" if math.isnan(v) else repr(v) for v in values]
    assert f"[{text}]" == json.dumps([None if math.isnan(v) else v for v in values])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(COUNTS, min_size=1))
def test_count_cells_are_str_of_each_value(values):
    cells, text = harness._distinct_text(np.array(values, dtype=np.int64))
    assert cells == [str(v) for v in values]
    assert f"[{text}]" == json.dumps(values)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=12, deadline=None)
@given(
    prefix=ID_TEXT,
    tags=st.lists(TAGS, min_size=1, max_size=8),
    latents=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
)
def test_content_hash_matches_one_string_oracle(n, prefix, tags, latents):
    ids = [f"{prefix}{i}" for i in range(n)]
    tags, latents = _tile(tags, n), _tile(latents, n)
    bank = ProblemBank(ids, tags, latents)
    lines = "".join(
        f"{pid},{tag},{latent!r}\n" for pid, tag, latent in zip(ids, tags, bank.latent.tolist())
    )
    assert bank.content_hash() == hashlib.sha256(lines.encode()).hexdigest()


def test_a_text_pass_cut_short_keeps_no_hash():
    def bank():
        n = 2 * BLOCK_ROWS + 3
        return ProblemBank([f"p{i}" for i in range(n)], _tile([None, 3], n), np.arange(n) / 7)

    cut = bank()
    blocks = cut.text_blocks("", lambda start, stop: map(str, range(start, stop)))
    next(blocks)
    blocks.close()
    assert cut.content_hash() == bank().content_hash()


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(st.lists(ID_TEXT.filter(bool), min_size=1, max_size=5), max_size=4))
@example(batches=[["é", "\\", "a\tb"], ["\U0001f600", "\x00", "'"]])
def test_batches_text_matches_json_dumps(batches):
    texts = [";".join(batch) for batch in batches]
    assert harness._batches_json(texts) == json.dumps(batches)
