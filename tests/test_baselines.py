"""Baseline strategies: random, curriculum, prioritized, dynamic."""

import math

import numpy as np
import pytest

from cdas.errors import ConfigError, ConsistencyError, RolloutBudgetError
from cdas.baselines import (
    CurriculumSampler,
    DynamicSampler,
    PrioritizedSampler,
    RandomSampler,
)
from cdas.learner import ProblemBank


def _named_bank(ids, tags=None):
    ids = list(ids)
    return ProblemBank(ids, tags or [None] * len(ids), [0.0] * len(ids))


def _bank(n, tagged=True):
    """Problems p000, p001, ... tagged 1, 2, 3, 4, 5, 1, ... in turn."""
    tags = [(i % 5) + 1 if tagged else None for i in range(n)]
    return _named_bank([f"p{i:03d}" for i in range(n)], tags)


def _with_rates(sampler, rates):
    """``sampler`` restored with ``rates`` (by id) as the last reported pass rates."""
    state = sampler.state_dict()
    state["last_pass_rate"] = [rates.get(pid) for pid in sampler.bank.ids]
    sampler.load_state_dict(state)
    return sampler


class TestRandomSampler:
    def test_bank_sized_batch_is_a_permutation(self):
        sampler = RandomSampler(_bank(10), rng=np.random.default_rng(0))
        batch = sampler.select_batch(10)
        assert sorted(batch) == [f"p{i:03d}" for i in range(10)]

    def test_same_seed_same_batches(self):
        a = RandomSampler(_bank(20), rng=np.random.default_rng(4))
        b = RandomSampler(_bank(20), rng=np.random.default_rng(4))
        assert [a.select_batch(5) for _ in range(10)] == [
            b.select_batch(5) for _ in range(10)
        ]

    def test_selection_frequencies_are_uniform(self):
        # 1e5 draws of 10 from 100: each id is a binomial with p = 0.1.
        n, batch_size, draws = 100, 10, 100_000
        sampler = RandomSampler(_bank(n), rng=np.random.default_rng(2024))
        counts = {pid: 0 for pid in sampler.bank.ids}
        for _ in range(draws):
            for pid in sampler.select_batch(batch_size):
                counts[pid] += 1
        p = batch_size / n
        standard_error = math.sqrt(p * (1.0 - p) / draws)
        for pid, count in counts.items():
            assert abs(count / draws - p) <= 3 * standard_error, pid

    def test_batches_have_distinct_ids(self):
        sampler = RandomSampler(_bank(12), rng=np.random.default_rng(9))
        for _ in range(50):
            batch = sampler.select_batch(8)
            assert len(set(batch)) == 8

    def test_batch_size_bounds(self):
        sampler = RandomSampler(_bank(4), rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            sampler.select_batch(0)
        with pytest.raises(ConfigError):
            sampler.select_batch(5)


class TestCurriculumSampler:
    def test_matches_random_before_the_switch(self):
        bank = _bank(30)
        random_sampler = RandomSampler(bank, rng=np.random.default_rng(7))
        curriculum = CurriculumSampler(bank, rng=np.random.default_rng(7), switch_step=3)
        for _ in range(3):
            batch = curriculum.select_batch(6)
            assert batch == random_sampler.select_batch(6)
            curriculum.report([0.5] * len(batch))
            random_sampler.report([0.5] * len(batch))

    def test_only_high_levels_after_the_switch(self):
        sampler = CurriculumSampler(_bank(50), rng=np.random.default_rng(2), switch_step=0)
        for _ in range(20):
            batch = sampler.select_batch(5)
            assert all(sampler.bank.level_tags[sampler.bank.index[pid]] >= 4 for pid in batch)
            sampler.report([0.5] * len(batch))

    def test_threshold_five_with_pool_equal_to_batch(self):
        bank = _bank(25)  # five problems per level
        sampler = CurriculumSampler(bank, rng=np.random.default_rng(3), switch_step=0, threshold=5)
        batch = sampler.select_batch(5)
        assert sorted(batch) == sorted(
            pid for pid, tag in zip(bank.ids, bank.level_tags) if tag == 5
        )

    def test_eligible_pool_smaller_than_batch(self):
        sampler = CurriculumSampler(_bank(25), rng=np.random.default_rng(0), switch_step=0)
        with pytest.raises(ConfigError):
            sampler.select_batch(11)  # only 10 problems at level >= 4

    def test_missing_level_tags_rejected(self):
        with pytest.raises(ConfigError):
            CurriculumSampler(_bank(10, tagged=False), rng=np.random.default_rng(0), switch_step=1)

    def test_bad_switch_and_threshold(self):
        with pytest.raises(ConfigError):
            CurriculumSampler(_bank(10), rng=np.random.default_rng(0), switch_step=-1)
        with pytest.raises(ConfigError):
            CurriculumSampler(_bank(10), rng=np.random.default_rng(0), switch_step=0, threshold=6)


class TestPrioritizedSampler:
    def _three_problem_sampler(self, seed=0):
        bank = _named_bank(["x1", "x2", "x3"])
        sampler = PrioritizedSampler(bank, rng=np.random.default_rng(seed))
        return _with_rates(sampler, {"x1": 1.0, "x2": 0.5, "x3": 0.0})

    def test_single_draw_frequencies_match_weights(self):
        # Weights {0, 0.5, 1} normalize to probabilities {0, 1/3, 2/3}.
        sampler = self._three_problem_sampler(seed=42)
        draws = 100_000
        counts = {"x1": 0, "x2": 0, "x3": 0}
        for _ in range(draws):
            counts[sampler.select_batch(1)[0]] += 1
        assert counts["x1"] == 0
        for pid, p in (("x2", 1 / 3), ("x3", 2 / 3)):
            standard_error = math.sqrt(p * (1.0 - p) / draws)
            assert abs(counts[pid] / draws - p) <= 3 * standard_error, pid

    def test_zero_weight_left_out_while_positive_weight_remains(self):
        sampler = self._three_problem_sampler(seed=1)
        for _ in range(200):
            assert "x1" not in sampler.select_batch(2)

    def test_zero_weight_taken_only_when_nothing_else_remains(self):
        sampler = self._three_problem_sampler(seed=2)
        batch = sampler.select_batch(3)
        assert batch[2] == "x1"
        assert sampler.uniform_fallbacks == 1

    def test_all_zero_weights_fall_back_to_uniform(self):
        sampler = PrioritizedSampler(_named_bank("abcd"), rng=np.random.default_rng(5))
        _with_rates(sampler, {pid: 1.0 for pid in ("a", "b", "c", "d")})
        batch = sampler.select_batch(3)
        assert len(set(batch)) == 3
        assert sampler.uniform_fallbacks == 1

    def test_unseen_problems_use_initial_weight(self):
        # With initial weight 0, an unseen problem is never drawn while a
        # failed problem remains.
        bank = _named_bank(["seen", "new"])
        sampler = PrioritizedSampler(bank, rng=np.random.default_rng(6), initial_weight=0.0)
        _with_rates(sampler, {"seen": 0.0})
        for _ in range(100):
            assert sampler.select_batch(1) == ["seen"]

    def test_equal_rates_select_uniformly(self):
        bank = _named_bank(f"e{i}" for i in range(10))
        sampler = PrioritizedSampler(bank, rng=np.random.default_rng(8))
        _with_rates(sampler, {pid: 0.5 for pid in bank.ids})
        draws = 50_000
        counts = {pid: 0 for pid in bank.ids}
        for _ in range(draws):
            counts[sampler.select_batch(1)[0]] += 1
        standard_error = math.sqrt(0.1 * 0.9 / draws)
        for pid, count in counts.items():
            assert abs(count / draws - 0.1) <= 3 * standard_error, pid

    def test_bad_initial_weight(self):
        with pytest.raises(ConfigError):
            PrioritizedSampler(_named_bank("a"), rng=np.random.default_rng(0), initial_weight=1.5)


def _rolls(count_of):
    """A ``roll_round`` callback giving each candidate ``count_of(bank index)`` passes."""
    return lambda indices: [count_of(i) for i in indices]


class TestDynamicSampler:
    # Groups of G = 4 rollouts: 0 or 4 passes is degenerate, 1..3 interior.
    G = 4

    def _sampler(self, n=20, seed=0, **kwargs):
        return DynamicSampler(_bank(n), rng=np.random.default_rng(seed), **kwargs)

    def test_filters_degenerate_pass_rates(self):
        passes = {"p000": 4, "p001": 2, "p002": 0, "p003": 1}
        sampler = DynamicSampler(_named_bank(passes), rng=np.random.default_rng(3))
        counts = list(passes.values())
        kept, kept_counts, consumed = sampler.select_and_roll(2, self.G, _rolls(counts.__getitem__))
        assert set(kept) == {"p001", "p003"}
        assert all(0 < passes[pid] < self.G for pid in kept)
        assert kept_counts == [passes[pid] for pid in kept]
        assert consumed <= 4

    def test_nothing_filtered_costs_exactly_the_batch(self):
        sampler = self._sampler(seed=11)
        kept, _, consumed = sampler.select_and_roll(8, self.G, _rolls(lambda i: 2))
        assert len(kept) == len(set(kept)) == 8
        assert consumed == 8

    def test_half_degenerate_pool_costs_about_twice_the_batch(self):
        # Every candidate independently fails every rollout half the time, so
        # consumed rollouts per kept problem follow a geometric law with mean 2.
        n, batch_size, trials = 400, 16, 300
        total = 0
        for seed in range(trials):
            sampler = self._sampler(n=n, seed=seed)
            passes = np.where(np.random.default_rng(1000 + seed).random(n) < 0.5, 2, 0)
            kept, _, consumed = sampler.select_and_roll(
                batch_size, self.G, _rolls(passes.__getitem__)
            )
            assert len(kept) == batch_size
            total += consumed
        mean_cost = total / trials
        assert abs(mean_cost - 2 * batch_size) <= 0.1 * 2 * batch_size

    def test_capped_batch_pads_with_recently_filtered(self):
        # Only one problem is keepable; two rounds exhaust the bank, then the
        # deficit is padded with filtered candidates.
        sampler = self._sampler(n=6, seed=2, retry_cap=2)
        kept, kept_counts, consumed = sampler.select_and_roll(
            4, self.G, _rolls(lambda i: 2 if i == 0 else self.G)
        )
        assert len(kept) == 4
        assert "p000" in kept
        assert kept_counts[0] == 2 and kept_counts[1:] == [self.G] * 3
        assert consumed == 6  # both rounds together visit every problem once

    def test_budget_error_when_nothing_keepable(self):
        sampler = self._sampler(n=10, seed=4, retry_cap=3)
        with pytest.raises(RolloutBudgetError):
            sampler.select_and_roll(4, self.G, _rolls(lambda i: self.G))

    def test_extra_counts_from_roll_round_detected(self):
        # One count too many or one too few: a round is one count per candidate.
        for extra in (1, -1):
            sampler = self._sampler(n=5, seed=5)
            with pytest.raises(ConsistencyError, match="pass counts for"):
                sampler.select_and_roll(2, self.G, lambda indices: [2] * (len(indices) + extra))
            assert sampler.pending is None

    def test_oversample_factor_widens_rounds(self):
        sampler = self._sampler(n=100, seed=6, oversample_factor=2.0)
        seen = []

        def roll_round(indices):
            seen.append(len(indices))
            return [2] * len(indices)

        kept, _, consumed = sampler.select_and_roll(10, self.G, roll_round)
        assert len(kept) == 10
        assert seen == [20]
        assert consumed == 10  # the round stops at the candidate that fills the batch

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            self._sampler(retry_cap=0)
        with pytest.raises(ConfigError):
            self._sampler(oversample_factor=0.5)


class TestReportOutcomes:
    # The full report contract, for every strategy, is pinned in
    # test_cdas_sampler.TestReportContract.  Every sampler keeps the latest
    # pass rates; prioritized is the baseline that reads them.

    def test_records_latest_pass_rate(self):
        sampler = PrioritizedSampler(_bank(5), rng=np.random.default_rng(0))
        sampler.select_batch(2)
        first = sampler.pending.tolist()
        sampler.report([0.25, 0.5])
        sampler.select_batch(1)
        (second,) = sampler.pending.tolist()
        sampler.report([0.75])
        want = [None] * 5
        for i, rate in [*zip(first, [0.25, 0.5]), (second, 0.75)]:
            want[i] = rate
        assert sampler.state_dict()["last_pass_rate"] == want
        last = sampler.last_pass_rates
        assert last[second] == 0.75
        assert np.isnan(last[[i for i in range(5) if want[i] is None]]).all()


class TestSerialization:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda bank: RandomSampler(bank, rng=np.random.default_rng(10)),
            lambda bank: CurriculumSampler(
                bank, rng=np.random.default_rng(10), switch_step=2
            ),
            lambda bank: PrioritizedSampler(bank, rng=np.random.default_rng(10)),
            lambda bank: DynamicSampler(bank, rng=np.random.default_rng(10)),
        ],
    )
    def test_round_trip_preserves_behavior(self, factory):
        sampler = factory(_bank(15))
        sampler.select_and_roll(4, 4, _rolls(lambda i: 2))
        sampler.report([0.5] * 4)
        clone = factory(_bank(15))
        clone.load_state_dict(sampler.state_dict())
        assert clone.state_dict() == sampler.state_dict()
        want = sampler.select_and_roll(4, 4, _rolls(lambda i: 2))
        assert clone.select_and_roll(4, 4, _rolls(lambda i: 2)) == want
