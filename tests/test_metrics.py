"""Step metrics aggregation and the CSV round trip."""

import numpy as np
import pytest

from cdas.grpo import RolloutGroup, group_advantages
from cdas.metrics import (
    METRICS_COLUMNS,
    StepMetrics,
    read_metrics_csv,
    summarize_step,
    write_metrics_csv,
)
from cdas.baselines import RandomSampler
from cdas.config import ExperimentConfig
from cdas.errors import ConsistencyError
from cdas.learner import ProblemBank
from cdas.sampling import CdasSampler


class _StubLearner:
    def __init__(self, ability):
        self.ability = ability


def _groups_with_rates(rates, ids):
    # Four rollouts per group; rates must be multiples of 0.25.
    out = []
    for pid, rate in zip(ids, rates):
        passes = round(rate * 4)
        out.append(RolloutGroup(problem_id=pid, rewards=(1.0,) * passes + (0.0,) * (4 - passes)))
    return out


def _bank(n):
    return ProblemBank([f"p{i:03d}" for i in range(n)], [None] * n, [0.0] * n)


def _random_sampler(n=6, batch_size=1):
    config = ExperimentConfig(n_problems=n, batch_size=batch_size, strategy="random")
    return RandomSampler(config, _bank(n), np.random.default_rng(0))


def _reported(sampler, rates):
    """Select a batch, report ``rates`` for it and return its bank indices."""
    sampler.select_batch()
    batch = sampler.pending
    sampler.report(rates)
    return batch


class TestSummarizeStep:
    def test_mean_reward_and_zero_gradient_fraction(self):
        sampler = _random_sampler(n=4, batch_size=4)
        rates = [0.0, 0.5, 1.0, 0.25]
        batch = _reported(sampler, rates)
        groups = _groups_with_rates(rates, [sampler.bank.ids[i] for i in batch])
        metrics = summarize_step(batch, sampler, _StubLearner(0.7), 4)
        assert metrics.mean_reward == pytest.approx(0.4375, abs=1e-15)
        assert metrics.zero_gradient_fraction == 0.5  # rates 0.0 and 1.0
        assert metrics.zero_gradient_fraction == sum(group_advantages(g)[1] for g in groups) / 4
        assert type(metrics.zero_gradient_fraction) is float
        assert metrics.step == 1
        assert metrics.learner_ability == 0.7
        assert metrics.rollout_batches_consumed == 4

    def test_baseline_strategies_leave_model_columns_empty(self):
        sampler = _random_sampler(batch_size=2)
        batch = _reported(sampler, [0.5, 0.75])
        metrics = summarize_step(batch, sampler, _StubLearner(0.0), 2)
        assert metrics.competence is None
        assert metrics.mean_sampled_difficulty is None

    def test_alignment_sampler_fills_model_columns(self):
        config = ExperimentConfig(n_problems=4, batch_size=2)
        sampler = CdasSampler(config, _bank(4), np.random.default_rng(1))
        batch = _reported(sampler, [1.0, 1.0])
        metrics = summarize_step(batch, sampler, _StubLearner(0.1), 2)
        assert metrics.competence == sampler.competence_value
        assert metrics.mean_sampled_difficulty == pytest.approx(-0.5, abs=1e-15)

    def test_rollout_consumption_is_taken_as_given(self):
        # Dynamic sampling rolls out more groups than it trains on.
        sampler = _random_sampler()
        batch = _reported(sampler, [0.5])
        metrics = summarize_step(batch, sampler, _StubLearner(0.0), 9)
        assert metrics.rollout_batches_consumed == 9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            summarize_step([], _random_sampler(), _StubLearner(0.0), 0)

    def test_pending_batch_refused(self):
        # Before report the sampler's rates for the batch are stale or NaN.
        sampler = _random_sampler(batch_size=2)
        _reported(sampler, [0.5, 0.25])
        sampler.select_batch()
        with pytest.raises(ConsistencyError, match="pending"):
            summarize_step(sampler.pending, sampler, _StubLearner(0.0), 2)


class TestMetricsCsv:
    ROWS = [
        StepMetrics(
            step=0,
            mean_reward=1 / 3,
            zero_gradient_fraction=0.0,
            rollout_batches_consumed=4,
            competence=-0.07142857142857141,
            mean_sampled_difficulty=0.125,
            learner_ability=-1.2000000000000002,
        ),
        StepMetrics(
            step=1,
            mean_reward=0.5,
            zero_gradient_fraction=0.25,
            rollout_batches_consumed=11,
            competence=None,
            mean_sampled_difficulty=None,
            learner_ability=0.05,
        ),
    ]

    def test_round_trip_preserves_every_field(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.ROWS, strategy="cdas", seed=3)
        rows = read_metrics_csv(path)
        assert len(rows) == 2
        for got, want in zip(rows, self.ROWS):
            assert got["strategy"] == "cdas"
            assert got["seed"] == 3
            for name in (
                "step",
                "mean_reward",
                "zero_gradient_fraction",
                "rollout_batches_consumed",
                "competence",
                "mean_sampled_difficulty",
                "learner_ability",
            ):
                assert got[name] == getattr(want, name), name

    def test_header_matches_schema(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.ROWS, strategy="random", seed=0)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == METRICS_COLUMNS

    def test_missing_model_columns_are_empty_cells(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [self.ROWS[1]], strategy="random", seed=0)
        line = path.read_text().splitlines()[1]
        assert ",,," in line  # competence and difficulty cells are blank

    def test_floats_survive_bitwise(self, tmp_path):
        # repr round-trips doubles exactly; the awkward constants above decay
        # to the same bits after write + read.
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.ROWS, strategy="cdas", seed=1)
        got = read_metrics_csv(path)[0]
        assert got["competence"] == -0.07142857142857141
        assert got["learner_ability"] == -1.2000000000000002
