"""Alignment sampler: warm-up coverage, symmetric selection, batched updates."""

import math

import numpy as np
import pytest

from cdas.config import SAMPLERS, STRATEGIES, ExperimentConfig
from cdas.core import ProblemRecord, alignment
from cdas.errors import ConfigError, ConsistencyError
from cdas.learner import ProblemBank, SyntheticLearner, generate_bank
from cdas.sampling import CdasSampler, _competence


def _bank(ids, tag=None):
    ids = list(ids)
    return ProblemBank(ids, [tag] * len(ids), [0.0] * len(ids))


def _rng():
    return np.random.default_rng(0)


def _seed(sampler, difficulties, t, step=0):
    """Set ``sampler`` at ``step`` with ``difficulties`` as its estimates, ``t`` visits each.

    No run reaches an arbitrary state, so the arrays are written directly;
    competence is what a report would leave, 0.0 before the first.
    """
    sampler._step = step
    sampler._t[:] = t
    sampler._D[:] = list(difficulties.values())
    sampler._competence = _competence(sampler._D) if step > 0 else 0.0
    return sampler


def _state(sampler):
    """What a sampler's steps change, bit for bit: its step, generator and per-problem columns."""
    columns = {key: column.tobytes() for key, column in sampler.state_arrays().items()}
    extra = (sampler.competence_value, getattr(sampler, "uniform_fallbacks", None))
    return sampler.step, sampler._rng.bit_generator.state, columns, extra


def _config(n, batch_size, **fields):
    """A config for a bank of ``n`` problems and batches of ``batch_size``."""
    return ExperimentConfig(n_problems=n, batch_size=batch_size, **fields)


def _fresh(difficulties, batch_size, seed=0, t=1, step=0, **fields):
    config = _config(len(difficulties), batch_size, **fields)
    sampler = CdasSampler(config, _bank(difficulties), np.random.default_rng(seed))
    return _seed(sampler, difficulties, t, step)


def _estimates_by_id(sampler) -> dict[str, float]:
    return dict(zip(sampler.bank.ids, sampler.estimates.tolist()))


SIX_PROBLEMS = {
    "x1": -0.3,
    "x2": -0.1,
    "x3": 0.05,
    "x4": 0.2,
    "x5": 0.4,
    "x6": -0.6,
}


class TestSymmetricSelection:
    def test_six_problem_batch_splits_by_alignment(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False)
        batch = sampler.select_batch()
        assert set(batch) == {"x1", "x2", "x3", "x4"}
        easier = {pid for pid in batch if SIX_PROBLEMS[pid] <= 0.0}
        harder = {pid for pid in batch if SIX_PROBLEMS[pid] > 0.0}
        assert easier == {"x2", "x1"}
        assert harder == {"x3", "x4"}

    def test_bank_sized_batch_returns_everything(self):
        difficulties = {"a": -0.2, "b": -0.1, "c": 0.1, "d": 0.2}
        sampler = _fresh(difficulties, batch_size=4, warmup=False)
        assert set(sampler.select_batch()) == set(difficulties)

    def test_boundary_difficulty_counts_as_easier(self):
        sampler = _fresh({"a": 0.0, "b": 0.1, "c": 0.5}, batch_size=2, warmup=False)
        batch = sampler.select_batch()
        assert set(batch) == {"a", "b"}

    # Past step 0 competence is minus the mean estimate, so a bank shifted
    # to one side of zero lies wholly on the other side of it.
    @pytest.mark.parametrize("shift", [1.0, -1.0], ids=["harder", "easier"])
    def test_backfill_when_everything_is_on_one_side(self, shift):
        difficulties = {pid: d + shift for pid, d in SIX_PROBLEMS.items()}
        sampler = _fresh(difficulties, batch_size=4, warmup=False, step=1)
        competence = sampler.competence_value
        assert all((d > competence) == (shift > 0) for d in difficulties.values())
        batch = sampler.select_batch()
        scored = sorted((alignment(competence, d), pid) for pid, d in difficulties.items())
        assert set(batch) == {pid for _, pid in scored[:4]}

    # The ids run against bank order, so ascending ids would pick other problems.
    @pytest.mark.parametrize(
        "symmetric, batch_size, expected",
        [(True, 4, ["w", "v", "z", "y"]), (False, 3, ["z", "y", "x"])],
        ids=["symmetric", "global"],
    )
    def test_alignment_ties_break_on_bank_order(self, symmetric, batch_size, expected):
        tied = {"z": 0.1, "y": 0.1, "x": 0.1, "w": -0.1, "v": -0.1, "u": -0.1}
        sampler = _fresh(tied, batch_size=batch_size, warmup=False, symmetric=symmetric)
        assert sampler.select_batch() == expected


class TestNonSymmetricSelection:
    def test_takes_globally_lowest_alignment(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False, symmetric=False)
        assert set(sampler.select_batch()) == {"x3", "x2", "x4", "x1"}

    def test_odd_batch_allowed(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=3, warmup=False, symmetric=False)
        assert set(sampler.select_batch()) == {"x3", "x2", "x4"}


class TestWarmup:
    def test_window_is_ceiling_of_bank_over_batch(self):
        assert _fresh(SIX_PROBLEMS, batch_size=4).warmup_steps == 2
        assert _fresh(SIX_PROBLEMS, batch_size=2).warmup_steps == 3
        assert _fresh(SIX_PROBLEMS, batch_size=6).warmup_steps == 1

    def test_disabled_warmup_selects_by_alignment_immediately(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False)
        assert sampler.warmup_steps == 0
        assert not sampler.in_warmup()

    def test_chunks_walk_the_permutation_and_wrap(self):
        difficulties = {f"p{i}": 0.0 for i in range(5)}
        sampler = _fresh(difficulties, batch_size=2, t=0)
        # The permutation a generator with the sampler's seed draws first.
        order = [f"p{i}" for i in np.random.default_rng(0).permutation(5)]
        expected = [
            [order[0], order[1]],
            [order[2], order[3]],
            [order[4], order[0]],
        ]
        for want in expected:
            assert sampler.in_warmup()
            batch = sampler.select_batch()
            assert batch == want
            sampler.report([0.5] * len(batch))
        assert not sampler.in_warmup()
        counts = sorted(sampler.state_arrays()["t"].tolist())
        assert counts == [1, 1, 1, 1, 2]

    def test_full_scale_window_and_coverage(self):
        n, batch_size = 7500, 1024
        difficulties = {f"p{i:05d}": 0.0 for i in range(n)}
        sampler = _fresh(difficulties, batch_size=batch_size, t=0, seed=17)
        assert sampler.warmup_steps == 8
        rng = np.random.default_rng(99)
        for _ in range(sampler.warmup_steps):
            batch = sampler.select_batch()
            sampler.report(rng.integers(0, 5, len(batch)) / 4.0)
        assert not sampler.in_warmup()
        assert sampler.state_arrays()["t"].min() >= 1

    def test_reselection_before_report_is_stable(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=2, t=0)
        assert sampler.select_batch() == sampler.select_batch()


class TestReportOutcomes:
    def test_single_pass_outcome_from_fresh_state(self):
        difficulties = {f"x{i}": 0.0 for i in range(1, 6)}
        sampler = _fresh(difficulties, batch_size=1, t=0, warmup=False, symmetric=False)
        batch = sampler.select_batch()
        assert batch == ["x1"]  # all-zero alignments tie-break on id
        sampler.report([1.0])
        assert _estimates_by_id(sampler)["x1"] == -0.5
        assert sampler.competence_value == 0.5 / 5
        assert sampler.step == 1

    def test_matching_pass_rates_change_nothing_from_fresh_state(self):
        difficulties = {f"x{i}": 0.0 for i in range(1, 7)}
        sampler = _fresh(difficulties, batch_size=4, t=0, warmup=False)
        batch = sampler.select_batch()
        # sigmoid(C - D) = 0.5 everywhere, so s = 0.5 leaves d at zero.
        sampler.report([0.5] * len(batch))
        assert sampler.estimates.tolist() == [0.0] * 6
        assert sampler.competence_value == 0.0

    def test_equal_difficulty_equal_pass_rate_update_identically(self):
        sampler = _fresh(
            {"a": 0.2, "b": 0.2, "c": -0.4, "d": -0.5},
            batch_size=2,
            warmup=False,
            symmetric=False,
        )
        batch = sampler.select_batch()
        assert set(batch) == {"a", "b"}
        sampler.report([0.75] * len(batch))
        estimates = _estimates_by_id(sampler)
        assert estimates["a"] == estimates["b"]

    def test_all_outcomes_score_against_pre_batch_competence(self):
        # Two problems with the same difficulty must update identically even
        # though folding the first outcome in eagerly would shift competence
        # before the second.
        sampler = _fresh({"a": 0.1, "b": 0.1}, batch_size=2, warmup=False)
        sampler.select_batch()
        sampler.report([1.0, 1.0])
        estimates = _estimates_by_id(sampler)
        assert estimates["a"] == estimates["b"]

    def test_competence_is_negated_mean_difficulty(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=2, seed=3, t=0)
        rng = np.random.default_rng(8)
        for _ in range(6):
            batch = sampler.select_batch()
            sampler.report(rng.random(len(batch)))
        estimates = sampler.estimates.tolist()
        assert sampler.competence_value == pytest.approx(-np.mean(estimates), abs=1e-12)

    def test_selection_consumes_no_randomness(self):
        # Reporting draws nothing either, so the state after it shows the rng.
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False)
        before = sampler._rng.bit_generator.state
        sampler.select_batch()
        sampler.report([0.5] * 4)
        assert sampler._rng.bit_generator.state == before


def _strategy_sampler(strategy):
    """A ``strategy`` sampler over SIX_PROBLEMS, built from the config."""
    config = _config(6, 4, rollouts=4, strategy=strategy, warmup=False)
    bank = _bank(SIX_PROBLEMS, tag=5)
    sampler = SAMPLERS[strategy](config, bank, np.random.default_rng(0))
    if isinstance(sampler, CdasSampler):
        _seed(sampler, SIX_PROBLEMS, t=1)
    return sampler


def _armed(strategy):
    """A ``strategy`` sampler with a batch of four pending, and that batch's ids."""
    sampler = _strategy_sampler(strategy)
    batch, _, _ = sampler.select_and_roll(lambda indices: [2] * len(indices))
    return sampler, [sampler.bank.ids[i] for i in batch]


class TestConsistencyChecks:
    """A report is refused unless a batch is pending, on every strategy."""

    def test_report_without_batch(self):
        # Before any selection, and after the pending batch was reported once.
        for strategy in STRATEGIES:
            sampler = _strategy_sampler(strategy)
            with pytest.raises(ConsistencyError, match="no batch outstanding"):
                sampler.report([0.5] * 4)
            sampler, _ = _armed(strategy)
            sampler.report([0.5] * 4)
            with pytest.raises(ConsistencyError, match="no batch outstanding"):
                sampler.report([0.5] * 4)


class TestIndexConsistencyChecks:
    """The pending bank indices: set by a selection, cleared by its report."""

    def test_report_without_batch(self):
        for strategy in STRATEGIES:
            sampler = _strategy_sampler(strategy)
            assert sampler.pending is None, strategy
            batch, _, _ = sampler.select_and_roll(lambda indices: [2] * len(indices))
            assert batch is sampler.pending, strategy
            sampler.report([0.5] * 4)
            assert sampler.pending is None, strategy
            with pytest.raises(ConsistencyError, match="no batch outstanding"):
                sampler.report([0.5] * 4)


class TestReportContract:
    """The report contract, checked on every strategy.

    ``report`` takes one pass rate per pending problem, in batch order.  Each
    case loops over ``STRATEGIES`` and names the strategy on failure.
    """

    @pytest.mark.parametrize(
        "rates", [[0.5] * 3, [0.5] * 5, [[0.5] * 4]], ids=["too-few", "too-many", "2-d"]
    )
    def test_wrong_number_of_rates_refused(self, rates):
        for strategy in STRATEGIES:
            sampler, _ = _armed(strategy)
            with pytest.raises(ValueError, match="one pass rate per pending problem"):
                sampler.report(rates)

    # A bool, str or bytes is no rate, though numpy would read it as one.
    @pytest.mark.parametrize(
        "rate",
        [
            -0.25,
            1.5,
            float("nan"),
            True,
            pytest.param("0.5", id="str"),
            pytest.param(b"0.5", id="bytes"),
        ],
    )
    def test_rate_outside_unit_interval_refused(self, rate):
        for strategy in STRATEGIES:
            sampler, batch = _armed(strategy)
            must = r"pass_rate must be (in \[0, 1\]|a number), got"
            with pytest.raises(ValueError, match=f"{must} .* for {batch[2]}$"):
                sampler.report([0.5, 0.5, rate, rate])

    @pytest.mark.parametrize(
        "refused",
        [
            [],
            [0.5] * 5,
            [[0.5] * 4],
            [0.5, 0.5, 0.5, -0.25],
            [0.5, float("nan"), 0.5, 0.5],
            ["0.5", True, 0.5, 0.5],
            [b"0.5", 0.1, 0.5, 0.5],
            np.array([True, False, True, False]),
        ],
        ids=[
            "empty", "too-many", "2-d", "negative-rate", "nan-rate",
            "str-and-bool", "bytes", "bool-array",
        ],
    )
    def test_failed_validation_leaves_no_trace(self, refused):
        rates = [1.0, 0.25, 0.0, 0.75]
        for strategy in STRATEGIES:
            sampler, batch = _armed(strategy)
            twin, twin_batch = _armed(strategy)
            assert twin_batch == batch, strategy
            with pytest.raises(ValueError):
                sampler.report(refused)
            assert sampler.step == 0 and sampler.pending is not None, strategy
            sampler.report(rates)
            twin.report(rates)
            assert _state(sampler) == _state(twin), strategy
            assert sampler.pending is None and sampler.step == 1, strategy


# Pass counts roll_round may not return for a batch of four with groups of
# four: one count too many or too few, counts that are not integers, and
# counts outside [0, 4].
BAD_COUNTS = {
    "too-many": ([2] * 5, "5 pass counts for 4 problems"),
    "too-few": ([2] * 3, "3 pass counts for 4 problems"),
    "fractional": ([2.5, 2, 2, 2], "float64 pass counts, first 2.5"),
    "integral-float": ([2.0] * 4, "float64 pass counts"),
    "bool": ([True] * 4, "bool pass counts"),
    "bool-among-ints": ([2, 2, True, 3], "bool pass count True for candidate 2"),
    "above-group": ([2, 9, 2, 2], "pass count 9 for candidate 1; counts must be in \\[0, 4\\]"),
    "negative": ([-1, 2, 2, 2], "pass count -1 for candidate 0"),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_bad_counts_from_roll_round_refused(case):
    # Every strategy refuses the same counts the same way and holds no batch;
    # dynamic's first round is four candidates, like every other batch.
    counts, match = BAD_COUNTS[case]
    for strategy in STRATEGIES:
        sampler = _strategy_sampler(strategy)
        with pytest.raises(ConsistencyError, match=match):
            sampler.select_and_roll(lambda indices: counts)
        assert sampler.pending is None, strategy
        assert sampler.step == 0, strategy


# The one sampler that counts uniform fallbacks.
@pytest.mark.parametrize("strategy", ["prioritized"])
def test_refused_roll_counts_no_fallback(strategy):
    # Problems that all passed weigh zero and force a uniform fallback; it
    # is counted only once a batch is held.
    config = _config(6, 4, rollouts=4, strategy=strategy, warmup=False)
    bank = _bank(SIX_PROBLEMS, tag=5)
    sampler = SAMPLERS[strategy](config, bank, np.random.default_rng(0))
    sampler._last_pass_rate[:] = 1.0
    with pytest.raises(ConsistencyError):
        sampler.select_and_roll(lambda indices: [2] * 3)
    assert sampler.uniform_fallbacks == 0
    assert sampler.pending is None
    sampler.select_and_roll(lambda indices: [2] * 4)
    assert sampler.uniform_fallbacks == 1


@pytest.mark.parametrize("strategy", ["cdas", "random", "curriculum", "prioritized"])
def test_select_and_roll_is_select_batch_then_one_rollout(strategy):
    """The shared ``select_and_roll``: ``select_batch``, then one ``pass_counts`` call."""
    config = _config(40, 8, rollouts=4, strategy=strategy, total_steps=6)
    bank = generate_bank(config, np.random.default_rng(3))

    def side(seed):
        sampler = SAMPLERS[strategy](config, bank, np.random.default_rng(seed))
        learner = SyntheticLearner(
            config.with_overrides(ability_init=0.0), bank, np.random.default_rng(seed + 1)
        )
        return sampler, learner

    rolled, rolled_learner = side(5)
    plain, plain_learner = side(5)
    for _ in range(config.total_steps):
        batch, got_counts, consumed = rolled.select_and_roll(rolled_learner.pass_counts)
        ids = plain.select_batch()
        counts = plain_learner.pass_counts(plain.pending)
        assert batch is rolled.pending
        assert [bank.ids[i] for i in batch] == ids
        assert [got_counts.tolist(), consumed] == [counts.tolist(), config.batch_size]
        assert np.array_equal(rolled.pending, plain.pending)
        assert rolled_learner.ability == plain_learner.ability
        assert rolled_learner.rng.bit_generator.state == plain_learner.rng.bit_generator.state
        rates = counts / plain_learner.rollouts
        rolled.report(rates)
        plain.report(rates)
        assert _state(rolled) == _state(plain)


def test_select_and_roll_refuses_counts_for_another_batch_size():
    sampler = _strategy_sampler("random")
    with pytest.raises(ConsistencyError, match="3 pass counts for 4 problems"):
        sampler.select_and_roll(lambda indices: [2] * 3)


def test_dynamic_select_batch_points_to_select_and_roll():
    # Dynamic sampling must roll candidates out to choose a batch, so the
    # plain contract entry point refuses and arms nothing.
    sampler = _strategy_sampler("dynamic")
    before = _state(sampler)
    with pytest.raises(ConsistencyError, match="select_and_roll"):
        sampler.select_batch()
    assert _state(sampler) == before
    with pytest.raises(ConsistencyError, match="no batch outstanding"):
        sampler.report([0.5] * 4)


class TestConfigChecks:
    def test_batch_bounds(self):
        with pytest.raises(ConfigError, match="batch_size: must be >= 1, got 0"):
            _fresh(SIX_PROBLEMS, batch_size=0)
        # The config allows 8 of its 2000 problems; the bank holds six.
        with pytest.raises(ConfigError, match=r"must not exceed bank size \(8 > 6\)"):
            CdasSampler(ExperimentConfig(batch_size=8), _bank(SIX_PROBLEMS), _rng())

    def test_odd_symmetric_batch(self):
        with pytest.raises(ConfigError):
            _fresh(SIX_PROBLEMS, batch_size=3)
        # The sampler checks the batch, whatever strategy its config names.
        with pytest.raises(ConfigError, match="symmetric mode needs an even batch, got 3"):
            CdasSampler(_config(6, 3, strategy="random"), _bank(SIX_PROBLEMS), _rng())

    # The bank refuses these before any sampler is built on it.
    def test_empty_bank(self):
        with pytest.raises(ConfigError, match="at least one problem"):
            _bank([])

    def test_duplicate_ids(self):
        with pytest.raises(ConfigError, match="duplicate"):
            _bank(["a", "a"])

    def test_estimates_and_competence_start_at_zero(self):
        sampler = CdasSampler(_config(4, 2), _bank("abcd"), _rng())
        assert sampler.state_arrays()["t"].tolist() == [0, 0, 0, 0]
        # 0.0, not -0.0: problems.csv writes the sign.
        values = [*sampler.estimates.tolist(), sampler.competence_value]
        assert [(v, math.copysign(1.0, v)) for v in values] == [(0.0, 1.0)] * 5


class TestBatchInvariants:
    def test_composition_and_optimality_over_a_run(self):
        n, batch_size = 40, 8
        difficulties = {f"p{i:02d}": 0.0 for i in range(n)}
        sampler = _fresh(difficulties, batch_size=batch_size, seed=31, t=0)
        rng = np.random.default_rng(77)
        for step in range(30):
            competence = sampler.competence_value
            estimates = _estimates_by_id(sampler)
            batch = sampler.select_batch()
            assert len(batch) == len(set(batch)) == batch_size
            if not sampler.in_warmup():
                harder_pool = sum(1 for d in estimates.values() if d > competence)
                easier_pool = n - harder_pool
                in_batch_harder = sum(1 for pid in batch if estimates[pid] > competence)
                if harder_pool >= batch_size // 2 and easier_pool >= batch_size // 2:
                    assert in_batch_harder == batch_size // 2
                chosen = set(batch)
                for side in (
                    [(alignment(competence, d), pid) for pid, d in estimates.items()
                     if d <= competence],
                    [(alignment(competence, d), pid) for pid, d in estimates.items()
                     if d > competence],
                ):
                    picked = [a for a, pid in side if pid in chosen]
                    skipped = [a for a, pid in side if pid not in chosen]
                    if picked and skipped:
                        assert max(picked) <= min(skipped)
            sampler.report(rng.integers(0, 5, len(batch)) / 4.0)
        assert sampler.state_arrays()["t"].min() >= 1

    def test_same_seed_same_history_is_bit_identical(self):
        def drive(seed):
            sampler = _fresh(SIX_PROBLEMS, batch_size=2, seed=seed, t=0)
            rng = np.random.default_rng(1234)
            batches = []
            for _ in range(8):
                batch = sampler.select_batch()
                batches.append(batch)
                sampler.report(rng.integers(0, 3, len(batch)) / 2.0)
            return batches, _state(sampler)

        batches_a, state_a = drive(6)
        batches_b, state_b = drive(6)
        assert batches_a == batches_b
        assert state_a == state_b


def _logged(roll_round, log):
    """``roll_round``, its counts appended to ``log``."""

    def logging(indices):
        counts = roll_round(indices)
        log.append(np.asarray(counts))
        return counts

    return logging


def _replayed(log):
    """A ``roll_round`` that returns the counts of ``log``, in order."""
    counts = iter(log)
    return lambda indices: next(counts)


def _drive(sampler, roll_round, steps):
    """``steps`` steps of ``select_and_roll`` and ``report``; each step's batch and counts."""
    steps_taken = []
    for _ in range(steps):
        batch, counts, consumed = sampler.select_and_roll(roll_round)
        sampler.report(counts / sampler.group_size)
        steps_taken.append((batch.tolist(), counts.tolist(), consumed))
    return steps_taken


class TestSerialization:
    """A sampler's state is its config, bank and seed and the counts it was fed."""

    def test_round_trip_is_identity_on_state(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        log = []
        _drive(sampler, _logged(lambda indices: [1] * len(indices), log), 1)
        clone = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        _drive(clone, _replayed(log), 1)
        assert _state(clone) == _state(sampler)

    def test_state_holds_only_what_a_run_changes(self):
        # The per-problem columns; the step and the generator are the rest.
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        assert set(sampler.state_arrays()) == {"last_pass_rate", "t", "difficulty"}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_feeding_a_fresh_sampler_the_logged_counts_replays_the_run(strategy):
    # Curriculum switches at step 6 of 12; prioritized starts from a bank a
    # high ability mostly passes, so some batches fall back to uniform.
    config = _config(40, 8, rollouts=4, strategy=strategy, total_steps=12)
    bank = generate_bank(config, np.random.default_rng(3))
    outcomes = np.random.default_rng(17)
    passing = strategy == "prioritized"

    def roll_round(indices):
        return outcomes.integers(3 if passing else 0, 5, len(indices))

    log = []
    sampler = SAMPLERS[strategy](config, bank, np.random.default_rng(9))
    steps = _drive(sampler, _logged(roll_round, log), config.total_steps)
    replica = SAMPLERS[strategy](config, bank, np.random.default_rng(9))
    assert _drive(replica, _replayed(log), config.total_steps) == steps
    assert _state(replica) == _state(sampler)
    if strategy == "cdas":
        assert replica.estimates.tobytes() == sampler.estimates.tobytes()
    if strategy == "prioritized":
        assert replica.uniform_fallbacks == sampler.uniform_fallbacks > 0
    if strategy == "dynamic":
        assert len(log) > config.total_steps


class TestRecordViews:
    def test_records_hand_out_plain_detached_values(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0, warmup=False)
        batch = sampler.select_batch()
        sampler.report([0.25] * len(batch))
        before = _state(sampler)
        records = sampler.records
        for record in records.values():
            assert type(record.t) is int and type(record.difficulty) is float
        records[batch[0]] = ProblemRecord(id=batch[0], t=99, difficulty=0.9)
        del records[batch[1]]
        assert sampler.records[batch[0]].t == 1
        assert set(sampler.records) == set(SIX_PROBLEMS)
        assert _state(sampler) == before

    def test_difficulties_follow_the_ids_given(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False)
        ids = ["x5", "x1", "x6"]
        position = {pid: i for i, pid in enumerate(sampler.bank.ids)}
        at = [position[pid] for pid in ids]
        assert sampler.estimates[at].tolist() == [SIX_PROBLEMS[pid] for pid in ids]
        assert [sampler.records[pid].difficulty for pid in ids] == sampler.estimates[at].tolist()
