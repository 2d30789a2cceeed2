"""Group-relative advantage math: frozen examples and normalization invariants."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdas.grpo import RolloutGroup, group_advantages

SQRT3 = 1.7320508075688772

reward_lists = st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=16)


def _group(rewards):
    return RolloutGroup(problem_id="x", rewards=tuple(rewards))


def test_half_passing_group_is_exact():
    advantages, zero = group_advantages(_group([1, 1, 0, 0]))
    assert advantages == [1.0, 1.0, -1.0, -1.0]
    assert zero is False


def test_single_pass_group():
    advantages, zero = group_advantages(_group([1, 0, 0, 0]))
    assert zero is False
    assert advantages[0] == pytest.approx(SQRT3, abs=1e-12)
    for value in advantages[1:]:
        assert value == pytest.approx(-1.0 / SQRT3, abs=1e-12)


@pytest.mark.parametrize("reward", [0.0, 1.0])
def test_uniform_group_has_zero_gradient(reward):
    advantages, zero = group_advantages(_group([reward] * 8))
    assert zero is True
    assert advantages == [0.0] * 8


def test_group_size_floor():
    with pytest.raises(ValueError):
        RolloutGroup(problem_id="x", rewards=(1.0,))


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
def test_non_binary_rewards_rejected(bad):
    with pytest.raises(ValueError):
        RolloutGroup(problem_id="x", rewards=(1.0, bad))


def test_pass_rate():
    assert _group([1, 0, 0, 0]).pass_rate == 0.25
    assert _group([1, 1]).pass_rate == 1.0


@given(reward_lists)
def test_zero_gradient_iff_extreme_pass_rate(rewards):
    group = _group(rewards)
    _, zero = group_advantages(group)
    assert zero == (group.pass_rate in (0.0, 1.0))


@given(reward_lists)
def test_advantages_standardized(rewards):
    group = _group(rewards)
    advantages, zero = group_advantages(group)
    n = len(advantages)
    assert abs(sum(advantages) / n) <= 1e-12
    if not zero:
        mean = sum(advantages) / n
        std = math.sqrt(sum((a - mean) ** 2 for a in advantages) / n)
        assert abs(std - 1.0) <= 1e-9


@given(reward_lists, st.randoms(use_true_random=False))
def test_permutation_equivariance(rewards, rnd):
    # Summation order can move the mean by an ulp, so compare with a tight
    # tolerance rather than bitwise.
    advantages, _ = group_advantages(_group(rewards))
    order = list(range(len(rewards)))
    rnd.shuffle(order)
    permuted_adv, _ = group_advantages(_group([rewards[i] for i in order]))
    for got, want in zip(permuted_adv, (advantages[i] for i in order)):
        assert got == pytest.approx(want, abs=1e-12)
