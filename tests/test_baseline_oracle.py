"""The array paths of prioritized and dynamic sampling against per-draw references.

Prioritized sampling is checked against sequential ``Generator.choice(p=...)``
draws that delete each pick, and the learner's stop-early block rollout
against sequential ``rollout_group`` calls.  Both must give the same results
and leave the generator in the same state, so a numpy release that changes
``choice`` or the stream layout fails here first.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdas.baselines import PrioritizedSampler
from cdas.learner import ProblemBank, SyntheticLearner

# Exact 1.0 makes zero weights; non-dyadic rates make totals that round.
PASS_RATES = st.one_of(
    st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 0.7, 1.0]),
    st.floats(0.0, 1.0),
)


def _reference_batch(weights, batch_size, rng):
    """Draw one batch by ``Generator.choice`` over the remaining weights."""
    weights = np.array(weights, dtype=np.float64)
    remaining = list(range(len(weights)))
    picks, fell_back = [], False
    for _ in range(batch_size):
        total = float(weights.sum())
        if total <= 0.0:
            j = int(rng.integers(len(remaining)))
            fell_back = True
        else:
            j = int(rng.choice(len(remaining), p=weights / total))
        picks.append(remaining.pop(j))
        weights = np.delete(weights, j)
    return picks, fell_back


@st.composite
def prioritized_cases(draw):
    n = draw(st.integers(1, 40))
    initial_weight = draw(st.sampled_from([0.0, 0.3, 1.0]))
    # The problems reported so far, any subset of the bank.
    seen = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    if draw(st.booleans()):
        rates = [1.0] * len(seen)  # every seen weight zero
    else:
        rates = draw(st.lists(PASS_RATES, min_size=len(seen), max_size=len(seen)))
    batch_size = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, initial_weight, dict(zip(seen, rates)), batch_size, seed


@settings(max_examples=300, deadline=None)
@given(prioritized_cases())
# Non-dyadic weights and one zero, unseen, weight: the last pick falls back.
@example((4, 0.0, {3: 0.3, 0: 0.9, 1: 2 / 3}, 4, 1))
def test_prioritized_batch_matches_sequential_choice(case):
    n, initial_weight, rates, batch_size, seed = case
    ids = [f"q{i}" for i in range(n)]
    sampler = PrioritizedSampler(
        ProblemBank(ids, [None] * n, [0.0] * n),
        rng=np.random.default_rng(seed),
        initial_weight=initial_weight,
    )
    state = sampler.state_dict()
    state["last_pass_rate"] = [rates.get(i) for i in range(n)]
    sampler.load_state_dict(state)
    weights = [1.0 - rates[i] if i in rates else initial_weight for i in range(n)]
    reference_rng = np.random.default_rng(seed)
    picks, fell_back = _reference_batch(weights, batch_size, reference_rng)

    assert sampler.select_batch(batch_size) == [ids[i] for i in picks]
    assert sampler.state_dict()["rng"] == reference_rng.bit_generator.state
    assert sampler.uniform_fallbacks == int(fell_back)


G = 6


def _learner(seed):
    return SyntheticLearner(ability=0.0, rng=np.random.default_rng(seed), rollouts=G)


def _sequential_counts(learner, latents, needed):
    """Roll groups out one at a time until ``needed`` of them are interior."""
    counts = []
    for latent in latents:
        counts.append(learner.rollout_group("q", latent).rewards.count(1.0))
        needed -= 0 < counts[-1] < G
        if needed == 0:
            break
    return counts


# Far-off latents make degenerate groups; latents near the ability, interior ones.
LATENTS = st.lists(
    st.one_of(st.sampled_from([-9.0, 0.0, 9.0]), st.floats(-4.0, 4.0)), min_size=1, max_size=30
)


@settings(max_examples=200, deadline=None)
@given(LATENTS, st.integers(1, 35), st.integers(0, 2**32 - 1))
def test_block_rollout_matches_sequential_groups(latents, needed, seed):
    block, sequential = _learner(seed), _learner(seed)
    counts = block.pass_counts(latents, needed)
    assert counts == _sequential_counts(sequential, latents, needed)
    assert block.state_dict() == sequential.state_dict()


# Groups 0, 3 and 5 are interior; the rest pass always or never.
ROUND = [0.0, -9.0, 9.0, 0.0, -9.0, 0.0, 9.0]


@pytest.mark.parametrize(
    "needed, k",
    [(1, 1), (2, 4), (3, 6), (4, len(ROUND))],
    ids=["first-group", "mid-round", "last-interior", "full-round"],
)
def test_block_rollout_stops_where_the_batch_fills(needed, k):
    block, sequential = _learner(3), _learner(3)
    counts = block.pass_counts(ROUND, needed)
    assert len(counts) == k
    assert counts == _sequential_counts(sequential, ROUND, needed)
    assert block.state_dict() == sequential.state_dict()
    # The stream goes on exactly where k sequential groups leave it.
    assert block.pass_counts(ROUND) == sequential.pass_counts(ROUND)


def test_block_rollout_refuses_a_nonpositive_need():
    with pytest.raises(ValueError, match="interior_needed"):
        _learner(0).pass_counts(ROUND, 0)
