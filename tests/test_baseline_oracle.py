"""The array paths of prioritized and dynamic sampling against per-draw references.

Prioritized sampling is checked two ways.  A scalar reference keys each
problem one Python float at a time and sorts the keys, and must give the
same batch from the same exponentials and leave the generator in the same
state.  Its batches must also follow the probabilities of sequential weighted
draws without replacement, enumerated exactly over every ordered batch.  The
learner's block rollout of a whole round is checked against sequential
``rollout_group`` calls, for the same results and the same generator state,
so a numpy release that changes the stream layout fails here first.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from cdas.baselines import PrioritizedSampler
from cdas.config import ExperimentConfig
from cdas.learner import ProblemBank, SyntheticLearner

# Exact 1.0 makes zero weights; non-dyadic rates make totals that round.
PASS_RATES = st.one_of(
    st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 0.7, 1.0]),
    st.floats(0.0, 1.0),
)


def _reference_batch(weights, batch_size, rng):
    """Draw one batch by keys ``E / w`` computed and sorted one Python float at a time."""
    draws = rng.standard_exponential(len(weights)).tolist()

    def key(i):
        w = weights[i]
        return (w == 0.0, draws[i] / w if w > 0.0 else math.inf, draws[i], i)

    picks = sorted(range(len(weights)), key=key)[:batch_size]
    return picks, sum(w > 0.0 for w in weights) < batch_size


def _prioritized(n, seed, rates, batch_size):
    """A prioritized sampler whose problems ``i`` last reported ``rates[i]``."""
    config = ExperimentConfig(n_problems=n, batch_size=batch_size, strategy="prioritized")
    sampler = PrioritizedSampler(
        config,
        ProblemBank([f"q{i}" for i in range(n)], [None] * n, [0.0] * n),
        np.random.default_rng(seed),
    )
    # No short run reaches arbitrary rates, so the column is written directly.
    sampler._last_pass_rate[:] = [rates.get(i, math.nan) for i in range(n)]
    return sampler


@st.composite
def prioritized_cases(draw):
    n = draw(st.integers(1, 40))
    # The problems reported so far, any subset of the bank.
    seen = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    if draw(st.booleans()):
        rates = [1.0] * len(seen)  # every seen weight zero
    else:
        rates = draw(st.lists(PASS_RATES, min_size=len(seen), max_size=len(seen)))
    batch_size = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, dict(zip(seen, rates)), batch_size, seed


@settings(max_examples=300, deadline=None)
@given(prioritized_cases())
# Non-dyadic weights and one zero weight: the last pick falls back.
@example((4, {3: 0.3, 0: 0.9, 1: 2 / 3, 2: 1.0}, 4, 1))
def test_prioritized_batch_matches_scalar_key_reference(case):
    n, rates, batch_size, seed = case
    sampler = _prioritized(n, seed, rates, batch_size)
    weights = [1.0 - rates[i] if i in rates else 1.0 for i in range(n)]
    reference_rng = np.random.default_rng(seed)
    picks, fell_back = _reference_batch(weights, batch_size, reference_rng)

    assert sampler.select_batch() == [f"q{i}" for i in picks]
    sampler.report([0.5] * batch_size)  # draws nothing
    assert sampler._rng.bit_generator.state == reference_rng.bit_generator.state
    assert sampler.uniform_fallbacks == int(fell_back)


def _sequential_probabilities(weights, batch_size):
    """The probability of each ordered batch of sequential draws without replacement.

    Each pick takes a problem in proportion to the weights that remain, and
    uniformly once every remaining weight is zero.
    """
    probabilities = {}
    for batch in itertools.permutations(range(len(weights)), batch_size):
        p, left = 1.0, list(range(len(weights)))
        for j in batch:
            total = sum(weights[i] for i in left)
            p *= weights[j] / total if total > 0.0 else 1.0 / len(left)
            left.remove(j)
        probabilities[batch] = p
    return probabilities


@pytest.mark.parametrize(
    "rates, seed",
    [
        ([0.0, 0.5, 0.75, 0.75, 1.0], 0),
        ([0.4, 0.7, 1.0, 1.0, 1.0], 1),  # two positive weights: every batch falls back
        ([None, 0.5, None, 0.9, 1.0], 2),  # None: never reported, weight 1
    ],
    ids=["mixed", "always-falls-back", "unseen-weighted"],
)
def test_prioritized_batches_follow_sequential_draw_probabilities(rates, seed):
    draws, batch_size = 20_000, 3
    sampler = _prioritized(5, seed, dict(enumerate(rates)), batch_size)
    weights = [1.0 if r is None else 1.0 - r for r in rates]
    expected = _sequential_probabilities(weights, batch_size)
    seen = Counter()
    for _ in range(draws):
        sampler.select_batch()
        seen[tuple(sampler.pending.tolist())] += 1

    assert all(expected[batch] > 0.0 for batch in seen), "a batch of probability 0 was drawn"
    possible = [batch for batch, p in expected.items() if p > 0.0]
    observed = [seen[batch] for batch in possible]
    result = chisquare(observed, [expected[batch] * draws for batch in possible])
    assert result.pvalue >= 1e-3, result
    short = sum(w > 0.0 for w in weights) < batch_size
    assert sampler.uniform_fallbacks == (draws if short else 0)


G = 6


def _learner(seed, latents=(0.0,)):
    """A learner on a bank of ``latents``, in bank order."""
    config = ExperimentConfig(rollouts=G, ability_init=0.0)
    bank = ProblemBank([f"q{i}" for i in range(len(latents))], [None] * len(latents), latents)
    return SyntheticLearner(config, bank, np.random.default_rng(seed))


def _sequential_counts(learner, latents):
    """Roll groups out one at a time, one per latent."""
    return [learner.rollout_group("q", latent).rewards.count(1.0) for latent in latents]


# Far-off latents make degenerate groups; latents near the ability, interior ones.
LATENTS = st.lists(
    st.one_of(st.sampled_from([-9.0, 0.0, 9.0]), st.floats(-4.0, 4.0)), min_size=0, max_size=30
)


@settings(max_examples=200, deadline=None)
@given(LATENTS, st.integers(0, 2**32 - 1))
def test_block_rollout_matches_sequential_groups(latents, seed):
    # A bank holds at least one problem; an empty batch rolls none of it out.
    block, sequential = _learner(seed, latents or [0.0]), _learner(seed)
    counts = block.pass_counts(np.arange(len(latents)))
    assert counts.tolist() == _sequential_counts(sequential, latents)
    assert block.rng.bit_generator.state == sequential.rng.bit_generator.state
    assert block.ability == sequential.ability
