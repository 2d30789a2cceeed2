"""Baseline strategies: random, curriculum, prioritized, dynamic."""

import math

import numpy as np
import pytest

from cdas.config import ExperimentConfig
from cdas.errors import ConfigError, ConsistencyError, RolloutBudgetError
from cdas.files import encode_array
from cdas.baselines import (
    RETRY_CAP,
    CurriculumSampler,
    DynamicSampler,
    PrioritizedSampler,
    RandomSampler,
)
from cdas.harness import run_experiment
from cdas.learner import ProblemBank, SyntheticLearner


def _named_bank(ids, tags=None):
    ids = list(ids)
    return ProblemBank(ids, tags or [None] * len(ids), [0.0] * len(ids))


def _bank(n, tagged=True):
    """Problems p000, p001, ... tagged 1, 2, 3, 4, 5, 1, ... in turn."""
    tags = [(i % 5) + 1 if tagged else None for i in range(n)]
    return _named_bank([f"p{i:03d}" for i in range(n)], tags)


def _build(cls, bank, batch_size, seed=0, **fields):
    """``cls`` on ``bank``, built from a config with batches of ``batch_size``."""
    config = ExperimentConfig(
        n_problems=len(bank), batch_size=batch_size, strategy=cls.strategy, **fields
    )
    return cls(config, bank, np.random.default_rng(seed))


def _with_rates(sampler, rates):
    """``sampler`` restored with ``rates`` (by id) as the last reported pass rates."""
    state = sampler.state_dict()
    state["last_pass_rate"] = encode_array(
        [rates.get(pid, math.nan) for pid in sampler.bank.ids], "<f8"
    )
    sampler.load_state_dict(state)
    return sampler


class TestRandomSampler:
    def test_bank_sized_batch_is_a_permutation(self):
        sampler = _build(RandomSampler, _bank(10), 10)
        batch = sampler.select_batch()
        assert sorted(batch) == [f"p{i:03d}" for i in range(10)]

    def test_same_seed_same_batches(self):
        a = _build(RandomSampler, _bank(20), 5, seed=4)
        b = _build(RandomSampler, _bank(20), 5, seed=4)
        assert [a.select_batch() for _ in range(10)] == [b.select_batch() for _ in range(10)]

    def test_selection_frequencies_are_uniform(self):
        # 1e5 draws of 10 from 100: each id is a binomial with p = 0.1.
        n, batch_size, draws = 100, 10, 100_000
        sampler = _build(RandomSampler, _bank(n), batch_size, seed=2024)
        counts = {pid: 0 for pid in sampler.bank.ids}
        for _ in range(draws):
            for pid in sampler.select_batch():
                counts[pid] += 1
        p = batch_size / n
        standard_error = math.sqrt(p * (1.0 - p) / draws)
        for pid, count in counts.items():
            assert abs(count / draws - p) <= 3 * standard_error, pid

    def test_batches_have_distinct_ids(self):
        sampler = _build(RandomSampler, _bank(12), 8, seed=9)
        for _ in range(50):
            batch = sampler.select_batch()
            assert len(set(batch)) == 8

    def test_batch_size_bounds(self):
        with pytest.raises(ConfigError):
            _build(RandomSampler, _bank(4), 0)
        with pytest.raises(ConfigError):
            _build(RandomSampler, _bank(4), 5)


class TestCurriculumSampler:
    def test_matches_random_before_the_switch(self):
        bank = _bank(30)
        random_sampler = _build(RandomSampler, bank, 6, seed=7)
        curriculum = _build(CurriculumSampler, bank, 6, seed=7, total_steps=6)
        assert curriculum.switch_step == 3
        for _ in range(3):
            batch = curriculum.select_batch()
            assert batch == random_sampler.select_batch()
            curriculum.report([0.5] * len(batch))
            random_sampler.report([0.5] * len(batch))

    def test_only_high_levels_after_the_switch(self):
        bank = _bank(50)
        sampler = _build(CurriculumSampler, bank, 5, seed=2, total_steps=1)
        level = dict(zip(bank.ids, bank.level_tags))
        for _ in range(20):
            batch = sampler.select_batch()
            assert all(level[pid] >= 4 for pid in batch)
            sampler.report([0.5] * len(batch))

    def test_pool_equal_to_batch_is_taken_whole(self):
        bank = _bank(25)  # five problems per level
        sampler = _build(CurriculumSampler, bank, 10, seed=3, total_steps=1)
        batch = sampler.select_batch()
        assert sorted(batch) == sorted(
            pid for pid, tag in zip(bank.ids, bank.level_tags) if tag >= 4
        )

    def test_eligible_pool_smaller_than_batch(self):
        # The switch, at total_steps // 2, always comes within the run.
        for total_steps in (1, 2, 150):
            with pytest.raises(ConfigError, match="only 10 problems at level >= 4, need 11"):
                _build(CurriculumSampler, _bank(25), 11, total_steps=total_steps)

    def test_run_with_too_few_eligible_refused_before_its_first_step(self, tmp_path, monkeypatch):
        # 40 of 100 problems reach level 4; the switch at step 75 needs 64.
        def no_rollouts(learner, indices):
            raise AssertionError("a step ran")

        monkeypatch.setattr(SyntheticLearner, "pass_counts", no_rollouts)
        out = tmp_path / "run"
        config = ExperimentConfig(
            strategy="curriculum", n_problems=100, batch_size=64, out_dir=str(out)
        )
        with pytest.raises(ConfigError, match="only 40 problems at level >= 4, need 64"):
            run_experiment(config)
        assert not out.exists()

    def test_missing_level_tags_rejected(self):
        with pytest.raises(ConfigError):
            _build(CurriculumSampler, _bank(10, tagged=False), 2)


class TestPrioritizedSampler:
    def _three_problem_sampler(self, batch_size, seed=0):
        bank = _named_bank(["x1", "x2", "x3"])
        sampler = _build(PrioritizedSampler, bank, batch_size, seed=seed)
        return _with_rates(sampler, {"x1": 1.0, "x2": 0.5, "x3": 0.0})

    def test_single_draw_frequencies_match_weights(self):
        # Weights {0, 0.5, 1} normalize to probabilities {0, 1/3, 2/3}.
        sampler = self._three_problem_sampler(1, seed=42)
        draws = 100_000
        counts = {"x1": 0, "x2": 0, "x3": 0}
        for _ in range(draws):
            counts[sampler.select_batch()[0]] += 1
        assert counts["x1"] == 0
        for pid, p in (("x2", 1 / 3), ("x3", 2 / 3)):
            standard_error = math.sqrt(p * (1.0 - p) / draws)
            assert abs(counts[pid] / draws - p) <= 3 * standard_error, pid

    def test_zero_weight_left_out_while_positive_weight_remains(self):
        sampler = self._three_problem_sampler(2, seed=1)
        for _ in range(200):
            assert "x1" not in sampler.select_batch()

    def test_zero_weight_taken_only_when_nothing_else_remains(self):
        sampler = self._three_problem_sampler(3, seed=2)
        batch = sampler.select_batch()
        assert batch[2] == "x1"
        assert sampler.uniform_fallbacks == 1

    def test_all_zero_weights_fall_back_to_uniform(self):
        sampler = _build(PrioritizedSampler, _named_bank("abcd"), 3, seed=5)
        _with_rates(sampler, {pid: 1.0 for pid in ("a", "b", "c", "d")})
        batch = sampler.select_batch()
        assert len(set(batch)) == 3
        assert sampler.uniform_fallbacks == 1

    def test_unseen_problems_weigh_as_much_as_failed_ones(self):
        # Weights {1, 0.5, 1} normalize to probabilities {0.4, 0.2, 0.4}.
        bank = _named_bank(["failed", "half", "new"])
        sampler = _build(PrioritizedSampler, bank, 1, seed=6)
        _with_rates(sampler, {"failed": 0.0, "half": 0.5})
        draws = 50_000
        counts = {pid: 0 for pid in bank.ids}
        for _ in range(draws):
            counts[sampler.select_batch()[0]] += 1
        for pid, p in (("failed", 0.4), ("half", 0.2), ("new", 0.4)):
            standard_error = math.sqrt(p * (1.0 - p) / draws)
            assert abs(counts[pid] / draws - p) <= 3 * standard_error, pid

    def test_smallest_positive_weight_keys_stay_finite(self):
        # The largest pass rate below 1 weighs 2**-53; every key E / w is
        # finite, so no draw overflows and the problem ranks before zero weights.
        bank = _named_bank(["almost", "passed"])
        sampler = _build(PrioritizedSampler, bank, 1, seed=7)
        _with_rates(sampler, {"almost": 1.0 - 2.0**-53, "passed": 1.0})
        for _ in range(200):
            assert sampler.select_batch() == ["almost"]
        assert sampler.uniform_fallbacks == 0

    def test_equal_rates_select_uniformly(self):
        bank = _named_bank(f"e{i}" for i in range(10))
        sampler = _build(PrioritizedSampler, bank, 1, seed=8)
        _with_rates(sampler, {pid: 0.5 for pid in bank.ids})
        draws = 50_000
        counts = {pid: 0 for pid in bank.ids}
        for _ in range(draws):
            counts[sampler.select_batch()[0]] += 1
        standard_error = math.sqrt(0.1 * 0.9 / draws)
        for pid, count in counts.items():
            assert abs(count / draws - 0.1) <= 3 * standard_error, pid


def _rolls(count_of):
    """A ``roll_round`` callback giving each candidate ``count_of(bank index)`` passes."""
    return lambda indices: [count_of(i) for i in indices]


class TestDynamicSampler:
    # Groups of G = 4 rollouts: 0 or 4 passes is degenerate, 1..3 interior.
    G = 4

    def _sampler(self, batch_size, n=20, seed=0, **fields):
        return _build(DynamicSampler, _bank(n), batch_size, seed=seed, rollouts=self.G, **fields)

    def test_filters_degenerate_pass_rates(self):
        passes = {"p000": 4, "p001": 2, "p002": 0, "p003": 1}
        sampler = _build(DynamicSampler, _named_bank(passes), 2, seed=3, rollouts=self.G)
        counts = list(passes.values())
        batch, kept_counts, consumed = sampler.select_and_roll(_rolls(counts.__getitem__))
        kept = [sampler.bank.ids[i] for i in batch]
        assert set(kept) == {"p001", "p003"}
        assert all(0 < passes[pid] < self.G for pid in kept)
        assert kept_counts.tolist() == [passes[pid] for pid in kept]
        assert consumed <= 4

    def test_nothing_filtered_costs_exactly_the_batch(self):
        sampler = self._sampler(8, seed=11)
        kept, _, consumed = sampler.select_and_roll(_rolls(lambda i: 2))
        assert len(kept) == len(set(kept)) == 8
        assert consumed == 8

    def test_half_degenerate_pool_costs_about_twice_the_batch(self):
        # Every candidate independently fails every rollout half the time, so
        # consumed rollouts per kept problem follow a geometric law with mean 2.
        n, batch_size, trials = 400, 16, 300
        total = 0
        for seed in range(trials):
            sampler = self._sampler(batch_size, n=n, seed=seed)
            passes = np.where(np.random.default_rng(1000 + seed).random(n) < 0.5, 2, 0)
            kept, _, consumed = sampler.select_and_roll(_rolls(passes.__getitem__))
            assert len(kept) == batch_size
            total += consumed
        mean_cost = total / trials
        assert abs(mean_cost - 2 * batch_size) <= 0.1 * 2 * batch_size

    def test_capped_batch_pads_with_recently_filtered(self):
        # Only one problem is keepable; two rounds exhaust the bank, then the
        # deficit is padded with filtered candidates.
        sampler = self._sampler(4, n=6, seed=2)
        kept, kept_counts, consumed = sampler.select_and_roll(
            _rolls(lambda i: 2 if i == 0 else self.G)
        )
        assert len(kept) == 4
        assert 0 in kept.tolist()
        assert kept_counts.tolist() == [2, *[self.G] * 3]
        assert consumed == 6  # both rounds together visit every problem once

    def test_capped_batch_pads_with_the_last_round(self):
        # One candidate is keepable; RETRY_CAP rounds of one batch each are
        # drawn, and the last three filtered pad the batch.
        sampler = self._sampler(4, n=100, seed=3)
        rounds = []

        def roll_round(indices):
            rounds.append(indices.tolist())
            return [2 if len(rounds) == 1 and k == 0 else self.G for k in range(len(indices))]

        kept, kept_counts, consumed = sampler.select_and_roll(roll_round)
        assert [len(r) for r in rounds] == [4] * RETRY_CAP
        assert kept.tolist() == [rounds[0][0], *rounds[-1][1:]]
        assert kept_counts.tolist() == [2, self.G, self.G, self.G]
        assert consumed == 4 * RETRY_CAP

    def test_budget_error_when_nothing_keepable(self):
        sampler = self._sampler(4, n=10, seed=4)
        with pytest.raises(RolloutBudgetError, match=r"in 3 rounds \(10 rollouts\)"):
            sampler.select_and_roll(_rolls(lambda i: self.G))
        assert sampler.pending is None

    def test_extra_counts_from_roll_round_detected(self):
        # One count too many or one too few: a round is one count per candidate.
        for extra in (1, -1):
            sampler = self._sampler(2, n=5, seed=5)
            with pytest.raises(ConsistencyError, match="pass counts for"):
                sampler.select_and_roll(lambda indices: [2] * (len(indices) + extra))
            assert sampler.pending is None

    def test_each_round_draws_one_batch_up_to_the_cap(self):
        sampler = self._sampler(10, n=200, seed=6)
        seen = []

        def roll_round(indices):
            seen.append(len(indices))
            return [self.G] * len(indices)

        with pytest.raises(RolloutBudgetError, match=rf"in {RETRY_CAP} rounds \(100 rollouts\)"):
            sampler.select_and_roll(roll_round)
        assert seen == [10] * RETRY_CAP


class TestReportOutcomes:
    # The full report contract, for every strategy, is pinned in
    # test_cdas_sampler.TestReportContract.  Every sampler keeps the latest
    # pass rates; prioritized is the baseline that reads them.

    def test_records_latest_pass_rate(self):
        sampler = _build(PrioritizedSampler, _bank(5), 2)
        sampler.select_batch()
        first = sampler.pending.tolist()
        sampler.report([0.25, 0.5])
        sampler.select_batch()
        second = sampler.pending.tolist()
        sampler.report([0.75, 1.0])
        want = [math.nan] * 5
        for i, rate in [*zip(first, [0.25, 0.5]), *zip(second, [0.75, 1.0])]:
            want[i] = rate
        assert sampler.state_dict()["last_pass_rate"] == encode_array(want, "<f8")
        last = sampler.last_pass_rates
        assert last[second].tolist() == [0.75, 1.0]
        assert np.isnan(last[[i for i in range(5) if math.isnan(want[i])]]).all()


class TestSerialization:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda bank: _build(RandomSampler, bank, 4, seed=10),
            lambda bank: _build(CurriculumSampler, bank, 4, seed=10, total_steps=4),
            lambda bank: _build(PrioritizedSampler, bank, 4, seed=10),
            lambda bank: _build(DynamicSampler, bank, 4, seed=10),
        ],
    )
    def test_round_trip_preserves_behavior(self, factory):
        sampler = factory(_bank(15))
        sampler.select_and_roll(_rolls(lambda i: 2))
        sampler.report([0.5] * 4)
        clone = factory(_bank(15))
        clone.load_state_dict(sampler.state_dict())
        assert clone.state_dict() == sampler.state_dict()
        want_batch, want_counts, want_consumed = sampler.select_and_roll(_rolls(lambda i: 2))
        got_batch, got_counts, got_consumed = clone.select_and_roll(_rolls(lambda i: 2))
        assert got_batch.tolist() == want_batch.tolist()
        assert got_counts.tolist() == want_counts.tolist() and got_consumed == want_consumed
