"""Alignment sampler: warm-up coverage, symmetric selection, batched updates."""

import math

import numpy as np
import pytest

from cdas.config import SAMPLERS, STRATEGIES, ExperimentConfig
from cdas.core import ProblemRecord, alignment
from cdas.errors import ConfigError, ConsistencyError
from cdas.files import decode_array, encode_array
from cdas.learner import ProblemBank, SyntheticLearner, generate_bank
from cdas.sampling import CdasSampler


def _bank(ids, tag=None):
    ids = list(ids)
    return ProblemBank(ids, [tag] * len(ids), [0.0] * len(ids))


def _rng():
    return np.random.default_rng(0)


def _seed(sampler, difficulties, t, step=0):
    """Restore ``sampler`` at ``step`` with ``difficulties`` as its estimates, ``t`` visits each."""
    state = sampler.state_dict()
    state["step"] = step
    state["t"] = encode_array([t] * len(difficulties), "<i8")
    state["difficulty"] = encode_array(list(difficulties.values()), "<f8")
    sampler.load_state_dict(state)
    return sampler


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
        before = sampler.state_dict()["rng"]
        sampler.select_batch()
        sampler.report([0.5] * 4)
        assert sampler.state_dict()["rng"] == before


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


def _with_rate(text, position, rate):
    """The ``last_pass_rate`` text ``text`` with ``rate`` at ``position``."""
    rates = decode_array(text, "<f8", len(SIX_PROBLEMS), "last_pass_rate")
    rates[position] = rate
    return encode_array(rates, "<f8")


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
    """The pending bank indices: set by a selection, cleared by a restore."""

    def test_report_without_batch(self):
        for strategy in STRATEGIES:
            sampler = _strategy_sampler(strategy)
            saved = sampler.state_dict()
            assert sampler.pending is None, strategy
            batch, _, _ = sampler.select_and_roll(lambda indices: [2] * len(indices))
            assert batch is sampler.pending, strategy
            sampler.load_state_dict(saved)
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

    @pytest.mark.parametrize("rate", [-0.25, 1.5, float("nan")])
    def test_rate_outside_unit_interval_refused(self, rate):
        for strategy in STRATEGIES:
            sampler, batch = _armed(strategy)
            with pytest.raises(ValueError, match=f"pass_rate must be in .* for {batch[2]}$"):
                sampler.report([0.5, 0.5, rate, rate])

    @pytest.mark.parametrize(
        "refused",
        [[], [0.5] * 5, [[0.5] * 4], [0.5, 0.5, 0.5, -0.25], [0.5, float("nan"), 0.5, 0.5]],
        ids=["empty", "too-many", "2-d", "negative-rate", "nan-rate"],
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
            assert sampler.state_dict() == twin.state_dict(), strategy
            assert sampler.pending is None and sampler.step == 1, strategy

    def test_state_dict_refused_while_a_batch_is_pending(self):
        for strategy in STRATEGIES:
            sampler, _ = _armed(strategy)
            with pytest.raises(ConsistencyError, match="a batch is pending"):
                sampler.state_dict()
            sampler.report([0.5] * 4)
            assert sampler.state_dict()["step"] == 1, strategy


# Pass counts roll_round may not return for a batch of four with groups of
# four: one count too many or too few, counts that are not integers, and
# counts outside [0, 4].
BAD_COUNTS = {
    "too-many": ([2] * 5, "5 pass counts for 4 problems"),
    "too-few": ([2] * 3, "3 pass counts for 4 problems"),
    "fractional": ([2.5, 2, 2, 2], "float64 pass counts, first 2.5"),
    "integral-float": ([2.0] * 4, "float64 pass counts"),
    "bool": ([True] * 4, "bool pass counts"),
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
        assert sampler.state_dict()["step"] == 0, strategy


# The one sampler that counts uniform fallbacks.
@pytest.mark.parametrize("strategy", ["prioritized"])
def test_refused_roll_counts_no_fallback(strategy):
    # Problems that all passed weigh zero and force a uniform fallback; it
    # is counted only once a batch is held.
    config = _config(6, 4, rollouts=4, strategy=strategy, warmup=False)
    bank = _bank(SIX_PROBLEMS, tag=5)
    sampler = SAMPLERS[strategy](config, bank, np.random.default_rng(0))
    state = sampler.state_dict()
    state["last_pass_rate"] = encode_array([1.0] * len(bank), "<f8")
    sampler.load_state_dict(state)
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
        assert rolled_learner.state_dict() == plain_learner.state_dict()
        rates = counts / plain_learner.rollouts
        rolled.report(rates)
        plain.report(rates)
        assert rolled.state_dict() == plain.state_dict()


def test_select_and_roll_refuses_counts_for_another_batch_size():
    sampler = _strategy_sampler("random")
    with pytest.raises(ConsistencyError, match="3 pass counts for 4 problems"):
        sampler.select_and_roll(lambda indices: [2] * 3)


def test_dynamic_select_batch_points_to_select_and_roll():
    # Dynamic sampling must roll candidates out to choose a batch, so the
    # plain contract entry point refuses and arms nothing.
    sampler = _strategy_sampler("dynamic")
    before = sampler.state_dict()
    with pytest.raises(ConsistencyError, match="select_and_roll"):
        sampler.select_batch()
    assert sampler.state_dict() == before
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
            return batches, sampler.state_dict()

        batches_a, state_a = drive(6)
        batches_b, state_b = drive(6)
        assert batches_a == batches_b
        assert state_a == state_b


class TestSerialization:
    def test_round_trip_is_identity_on_state(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        batch = sampler.select_batch()
        sampler.report([0.25] * len(batch))
        payload = sampler.state_dict()
        clone = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        clone.load_state_dict(payload)
        assert clone.state_dict() == payload

    def test_state_holds_only_what_a_run_changes(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        assert set(sampler.state_dict()) == {
            "strategy", "step", "rng", "last_pass_rate", "t", "difficulty"
        }

    def test_state_from_another_bank_refused(self):
        payload = _fresh(SIX_PROBLEMS, batch_size=4, t=0).state_dict()
        payload["t"] = encode_array([0] * 5, "<i8")
        with pytest.raises(ConfigError, match="sampler state: t: 40 bytes where 6 values"):
            _fresh(SIX_PROBLEMS, batch_size=4, t=0).load_state_dict(payload)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("t", [0] * 6, "t: must be a base64 string"),
            ("difficulty", "AAAA AAAA", "difficulty: invalid base64"),
            ("t", encode_array([0] * 7, "<i8"), "t: 56 bytes where 6 values"),
            ("difficulty", encode_array([0.0] * 6, "<f8")[:-1], "difficulty: invalid base64"),
            ("t", encode_array([0, -1, 0, 0, 0, 0], "<i8"), "t must be >= 0, got -1"),
            ("difficulty", encode_array([0.0, math.nan] + [0.0] * 4, "<f8"), "every difficulty"),
            ("difficulty", encode_array([-math.inf] + [0.0] * 5, "<f8"), "every difficulty"),
        ],
        ids=[
            "list-of-counts",
            "space-in-base64",
            "count-too-many",
            "cut-base64",
            "negative-count",
            "nan-estimate",
            "infinite-estimate",
        ],
    )
    def test_malformed_estimates_refused(self, field, value, match):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        sampler.select_batch()
        sampler.report([0.5] * 4)
        payload = sampler.state_dict()
        payload[field] = value
        fresh = _fresh(SIX_PROBLEMS, batch_size=4, t=0)
        before = fresh.state_dict()
        with pytest.raises(ConfigError, match=f"sampler state: {match}"):
            fresh.load_state_dict(payload)
        assert fresh.state_dict() == before

    def test_state_of_another_strategy_refused(self):
        payload = _fresh(SIX_PROBLEMS, batch_size=4, t=0).state_dict()
        payload["strategy"] = "random"
        with pytest.raises(ConfigError, match="strategy"):
            _fresh(SIX_PROBLEMS, batch_size=4, t=0).load_state_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("rng", {}), ("rng", 5), ("rng", {"bit_generator": "PCG64"})],
        ids=["empty-rng", "int-rng", "rng-without-state"],
    )
    def test_malformed_pending_or_rng_refused(self, field, value):
        for strategy in STRATEGIES:
            payload = {**_strategy_sampler(strategy).state_dict(), field: value}
            fresh = _strategy_sampler(strategy)
            before = fresh.state_dict()
            with pytest.raises(ConfigError, match=f"sampler state: {field}"):
                fresh.load_state_dict(payload)
            assert fresh.state_dict() == before, strategy

    @pytest.mark.parametrize(
        "rate",
        [1.5, -0.25, math.inf],
        ids=["above-one", "below-zero", "infinite"],
    )
    def test_bad_last_pass_rate_refused(self, rate):
        for strategy in STRATEGIES:
            sampler, _ = _armed(strategy)
            sampler.report([0.5] * 4)
            payload = sampler.state_dict()
            payload["last_pass_rate"] = _with_rate(payload["last_pass_rate"], 1, rate)
            fresh = _strategy_sampler(strategy)
            before = fresh.state_dict()
            with pytest.raises(ConfigError) as refused:
                fresh.load_state_dict(payload)
            assert str(refused.value) == (
                "sampler state: every last_pass_rate must be NaN or a number in [0, 1]"
            ), strategy
            assert fresh.state_dict() == before, strategy

    def test_last_pass_rate_takes_nan_and_the_ends_of_the_range(self):
        for strategy in STRATEGIES:
            payload = _strategy_sampler(strategy).state_dict()
            for position, rate in enumerate([0.0, 1.0, -0.0, 5e-324]):
                payload["last_pass_rate"] = _with_rate(payload["last_pass_rate"], position, rate)
            fresh = _strategy_sampler(strategy)
            fresh.load_state_dict(payload)
            assert fresh.state_dict() == payload, strategy
            rates = fresh.last_pass_rates
            assert [r.hex() for r in rates[:4].tolist()] == [
                "0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0", "0x0.0000000000001p-1022"
            ], strategy
            assert np.isnan(rates[4:]).all(), strategy

    def test_last_pass_rate_past_the_bank_refused(self):
        # The rates are a bank-order column: a value past the bank's end would
        # be a rate for a problem outside it.
        for strategy in STRATEGIES:
            sampler, _ = _armed(strategy)
            sampler.report([0.5] * 4)
            payload = sampler.state_dict()
            rates = sampler.last_pass_rates.tolist()
            payload["last_pass_rate"] = encode_array([*rates, 0.5], "<f8")
            fresh = _strategy_sampler(strategy)
            before = fresh.state_dict()
            with pytest.raises(ConfigError, match="last_pass_rate: .* bytes where"):
                fresh.load_state_dict(payload)
            assert fresh.state_dict() == before, strategy


class TestRecordViews:
    def test_records_hand_out_plain_detached_values(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, t=0, warmup=False)
        batch = sampler.select_batch()
        sampler.report([0.25] * len(batch))
        before = sampler.state_dict()
        records = sampler.records
        for record in records.values():
            assert type(record.t) is int and type(record.difficulty) is float
        records[batch[0]] = ProblemRecord(id=batch[0], t=99, difficulty=0.9)
        del records[batch[1]]
        assert sampler.records[batch[0]].t == 1
        assert set(sampler.records) == set(SIX_PROBLEMS)
        assert sampler.state_dict() == before

    def test_difficulties_follow_the_ids_given(self):
        sampler = _fresh(SIX_PROBLEMS, batch_size=4, warmup=False)
        ids = ["x5", "x1", "x6"]
        position = {pid: i for i, pid in enumerate(sampler.bank.ids)}
        at = [position[pid] for pid in ids]
        assert sampler.estimates[at].tolist() == [SIX_PROBLEMS[pid] for pid in ids]
        assert [sampler.records[pid].difficulty for pid in ids] == sampler.estimates[at].tolist()
