"""problems.csv and the bank hash against the one-row-at-a-time code they replaced.

Both are written from ``ProblemBank.text_blocks``, ``BLOCK_ROWS`` rows at a
time.  The oracles are the earlier forms: ``csv.writer.writerows`` over the
columns for problems.csv, and one string of ``f"{id},{tag},{latent!r}\\n"``
lines for the hash.  Bank sizes sit on both sides of each block boundary.
"""

import csv
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdas.config import BANK_MODES, STRATEGIES, ExperimentConfig
from cdas.harness import PROBLEMS_FILE, RunResult, run_experiment, write_outputs
from cdas.learner import BLOCK_ROWS, ProblemBank
from cdas.sampling import _competence

SIZES = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]

EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e22, -1e22, 0.1, 1e16, -1.5]),
    st.floats(-1e300, 1e300, allow_nan=False),
)
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


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    strategy=st.sampled_from(STRATEGIES),
    mode=st.sampled_from(BANK_MODES),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 3),
    prefix=ID_TEXT,
    latents=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
    tags=st.lists(TAGS, min_size=1, max_size=8),
    estimates=st.lists(EDGE_FLOATS, min_size=1, max_size=8),
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
    rates=st.lists(
        st.tuples(st.integers(0), st.sampled_from([0.0, 0.25, 1.0, 1 / 3])), max_size=4
    ),
)
def test_problems_csv_matches_csv_writer(
    n, strategy, mode, seed, steps, prefix, latents, tags, estimates, counts, rates
):
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
    with tempfile.TemporaryDirectory() as out:
        write_outputs(run, out)
        assert (Path(out) / PROBLEMS_FILE).read_bytes() == _problems_csv_oracle(run)

    # The same run with edge values in every column: odd id text, untagged
    # problems, negative zero, subnormal and huge latents and estimates.
    state = run.sampler.state_dict()
    if strategy == "cdas":
        state["t"] = _tile(counts, n)
        state["difficulty"] = _tile(estimates, n)
        state["competence"] = _competence(np.array(state["difficulty"]))
    for position, rate in rates:
        state["last_pass_rate"][position % n] = rate
    run.sampler.load_state_dict(state)
    bank = ProblemBank([f"{prefix}{i}" for i in range(n)], _tile(tags, n), _tile(latents, n))
    edged = RunResult(
        config, bank, bank.content_hash(), run.sampler, run.learner, run.rows, run.batches
    )
    with tempfile.TemporaryDirectory() as out:
        write_outputs(edged, out)
        assert (Path(out) / PROBLEMS_FILE).read_bytes() == _problems_csv_oracle(edged)


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
