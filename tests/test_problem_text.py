"""problems.csv, the bank hash and the checkpointed state at their edge values.

problems.csv is written ``BLOCK_ROWS`` rows at a time, and
``ProblemBank.content_hash`` digests whole columns.  The oracles are plain
forms: ``csv.writer.writerows`` over the columns for problems.csv, and the
hash's bytes built one problem at a time.  Bank sizes sit on both sides of
each block boundary.  A checkpoint is JSON text, and the state a resume
rebuilds from it must come back bit for bit.
"""

import csv
import hashlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdas import harness
from cdas.config import BANK_MODES, SAMPLERS, STRATEGIES, ExperimentConfig
from cdas.harness import (
    BLOCK_ROWS,
    CHECKPOINT_FILE,
    PROBLEMS_FILE,
    RunResult,
    resume_experiment,
    run_experiment,
    write_outputs,
)
from cdas.learner import ProblemBank

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
    state = run.sampler.state_arrays()
    bank = run.bank
    counts = state["t"].tolist() if "t" in state else [0] * len(bank)
    estimates = state["difficulty"].tolist() if "difficulty" in state else [0.0] * len(bank)
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
    # whose only group agrees has nothing to train on; curriculum needs a
    # problem at level 4 or above, and a lone problem's quintile is 1.
    assume(n > 1 or strategy not in ("dynamic", "curriculum"))
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
    )
    run = run_experiment(config)

    # Odd id text, untagged problems, negative zero, subnormal and huge
    # latents and estimates, counts past 2**31, and negative zero and
    # subnormal pass rates.  No short run reaches them, so the sampler's
    # columns are written directly.
    sampler = SAMPLERS[strategy](config, run.bank, np.random.default_rng(seed))
    if strategy == "cdas":
        sampler._t[:] = _tile(counts, n)
        sampler._D[:] = _tile(estimates, n)
    sampler._last_pass_rate[:] = run.sampler.last_pass_rates
    for position, rate in rates:
        sampler._last_pass_rate[position % n] = rate
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


FLOAT_COLUMN = st.lists(st.one_of(EDGE_FLOATS, EDGE_RATES, st.just(math.nan)), min_size=1)


@settings(max_examples=200, deadline=None)
@given(values=FLOAT_COLUMN)
def test_float_cells_are_repr_of_each_value(values):
    cells = harness._distinct_text(np.array(values, dtype=np.float64))
    assert cells == ["" if math.isnan(v) else repr(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(COUNTS, min_size=1))
def test_count_cells_are_str_of_each_value(values):
    cells = harness._distinct_text(np.array(values, dtype=np.int64))
    assert cells == [str(v) for v in values]


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=12, deadline=None)
@given(
    prefix=ID_TEXT,
    tags=st.lists(TAGS, min_size=1, max_size=8),
    latents=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
)
def test_content_hash_matches_per_problem_bytes(n, prefix, tags, latents):
    ids = [f"{prefix}{i}" for i in range(n)]
    tags, latents = _tile(tags, n), _tile(latents, n)
    bank = ProblemBank(ids, tags, latents)
    data = f"{n}\n".encode()
    data += b"".join(pid.encode("utf-8") + b"\n" for pid in ids)
    data += b"".join(struct.pack("B", 0 if tag is None else tag) for tag in tags)
    data += b"".join(struct.pack("<d", latent) for latent in latents)
    assert bank.content_hash() == hashlib.sha256(data).hexdigest()


def test_a_failed_write_leaves_the_next_write_correct(tmp_path, monkeypatch):
    # Three blocks; a cdas run formats three sampler columns a block.
    config = ExperimentConfig(n_problems=2 * BLOCK_ROWS + 3, batch_size=64, total_steps=2)
    written = run_experiment(config.with_overrides(out_dir=str(tmp_path)))
    before = (tmp_path / PROBLEMS_FILE).read_bytes()
    run = run_experiment(config)
    bank_hash = run.bank.content_hash()
    assert bank_hash == written.bank_hash

    real_distinct_text, calls = harness._distinct_text, []

    def failing(values):
        calls.append(len(values))
        if len(calls) > 3:
            raise OSError("disk full")
        return real_distinct_text(values)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_distinct_text", failing)
        with pytest.raises(OSError, match="disk full"):
            write_outputs(run, tmp_path)
    assert calls == [BLOCK_ROWS] * 4
    assert (tmp_path / PROBLEMS_FILE).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    assert run.bank.content_hash() == bank_hash
    write_outputs(run, tmp_path)
    assert (tmp_path / PROBLEMS_FILE).read_bytes() == before


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rollouts=st.sampled_from([2, 3, 8, 300]),
    steps=st.integers(1, 8),
)
def test_state_survives_json_bit_for_bit(strategy, seed, rollouts, steps):
    # Groups of up to 300 rollouts: no pass count is held to one byte.
    config = ExperimentConfig(
        n_problems=40, batch_size=8, rollouts=rollouts, total_steps=8, strategy=strategy, seed=seed
    )
    with tempfile.TemporaryDirectory() as out:
        run = run_experiment(config.with_overrides(out_dir=out), stop_after=steps)
        # Up to the checkpoint's step: the steps run again, and nothing written.
        resumed = resume_experiment(Path(out) / CHECKPOINT_FILE, stop_after=steps)
    assert resumed.rows == run.rows
    assert resumed.learner.ability == run.learner.ability
    assert resumed.learner.rng.bit_generator.state == run.learner.rng.bit_generator.state
    assert resumed.sampler._rng.bit_generator.state == run.sampler._rng.bit_generator.state
    got, want = resumed.sampler.state_arrays(), run.sampler.state_arrays()
    assert list(got) == list(want)
    for key, values in want.items():
        assert got[key].tobytes() == values.tobytes(), key
