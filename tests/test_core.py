"""Scalar scheduling math: frozen oracle values and algebraic invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdas import fixed_point
from cdas.core import (
    ProblemRecord,
    alignment,
    expected_performance,
    instantaneous_difficulty,
    sigmoid,
    sigmoid_array,
    update_competence,
    update_difficulty,
)

# 1/(1+e^-1) evaluated at 50-digit precision, rounded to double.
SIGMOID_ONE = 0.7310585786300049

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_one(self):
        assert sigmoid(1.0) == pytest.approx(SIGMOID_ONE, abs=1e-12)

    def test_minus_one(self):
        assert sigmoid(-1.0) == pytest.approx(1.0 - SIGMOID_ONE, abs=1e-12)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError):
            sigmoid(z)

    @given(finite_floats)
    def test_open_unit_interval(self, z):
        value = sigmoid(z)
        assert 0.0 < value < 1.0

    @given(finite_floats)
    def test_symmetry_exact(self, z):
        assert sigmoid(z) + sigmoid(-z) == 1.0

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_strictly_increasing(self, z, gap):
        assert sigmoid(z) < sigmoid(z + gap)

    def test_saturation_clamps_inside_unit_interval(self):
        assert sigmoid(1000.0) < 1.0
        assert sigmoid(-1000.0) > 0.0
        assert sigmoid(1000.0) == sigmoid(50.0)

    def test_within_machine_epsilon_of_the_solver_sigmoid(self):
        # For z < 0, 1 - sigmoid(-z) cancels, and past -40 the clamp holds
        # epsilon where the solver's value shrinks to 0: the two differ by up
        # to ~1e16 ulps of a tiny value, yet never by more than epsilon.
        z = np.linspace(-800.0, 800.0, 160_001)
        ours = np.array([sigmoid(v) for v in z.tolist()])
        gap = np.abs(ours - fixed_point._sigmoid(z))
        assert gap.max() <= sys.float_info.epsilon


# The clamp boundary on both sides, the extremes and the subnormals.
SIGMOID_EDGES = [
    0.0,
    -0.0,
    40.0,
    -40.0,
    math.nextafter(40.0, math.inf),
    -math.nextafter(40.0, math.inf),
    1e308,
    -1e308,
    5e-324,
    -5e-324,
    2.2250738585072e-309,
    -2.2250738585072e-309,
]


class TestSigmoidArray:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(finite_floats, st.floats(-60.0, 60.0)), max_size=40))
    @example(SIGMOID_EDGES)
    def test_bit_for_bit_with_the_scalar_sigmoid(self, values):
        z = np.array(values, dtype=np.float64)
        expected = np.array([sigmoid(v) for v in values], dtype=np.float64)
        assert sigmoid_array(z).tobytes() == expected.tobytes()

    def test_keeps_the_input_shape(self):
        z = np.array([[0.0, 1.0], [-1.0, 50.0]])
        assert sigmoid_array(z).shape == (2, 2)
        assert sigmoid_array(z)[1, 0] == sigmoid(-1.0)
        assert sigmoid_array(0.0).shape == ()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sigmoid_array([0.0, bad, 1.0])


class TestExpectedPerformance:
    def test_equal_competence_and_difficulty(self):
        assert expected_performance(0.0, 0.0) == 0.5

    def test_large_gap_saturates_high(self):
        assert expected_performance(10.0, -10.0) == pytest.approx(1.0, abs=1e-8)

    def test_unit_gap(self):
        assert expected_performance(1.0, 0.0) == pytest.approx(SIGMOID_ONE, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            expected_performance(float("nan"), 0.0)
        with pytest.raises(ValueError):
            expected_performance(0.0, float("inf"))


class TestInstantaneousDifficulty:
    def test_perfect_pass_at_parity(self):
        # predicted 0.5, observed 1.0
        assert instantaneous_difficulty(0.0, 0.0, 1.0) == -0.5

    def test_total_failure_at_parity(self):
        assert instantaneous_difficulty(0.0, 0.0, 0.0) == 0.5

    def test_unit_gap_zero_pass(self):
        assert instantaneous_difficulty(1.0, 0.0, 0.0) == pytest.approx(
            SIGMOID_ONE, abs=1e-12
        )

    @pytest.mark.parametrize("rate", [-0.1, 1.1, 2.0])
    def test_pass_rate_domain(self, rate):
        with pytest.raises(ValueError):
            instantaneous_difficulty(0.0, 0.0, rate)

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_competence(self, c, gap, d, s):
        assert instantaneous_difficulty(c, d, s) < instantaneous_difficulty(c + gap, d, s)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_difficulty(self, c, d, gap, s):
        assert instantaneous_difficulty(c, d + gap, s) < instantaneous_difficulty(c, d, s)

    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounded(self, c, d, s):
        assert -1.0 < instantaneous_difficulty(c, d, s) < 1.0


def _record(t=0, difficulty=0.0, pid="x1"):
    return ProblemRecord(id=pid, t=t, difficulty=difficulty)


class TestUpdateDifficulty:
    def test_first_observation_is_identity(self):
        updated = update_difficulty(_record(t=0, difficulty=0.0), 0.4)
        assert updated.t == 1
        assert updated.difficulty == 0.4

    def test_second_observation_halves(self):
        updated = update_difficulty(_record(t=1, difficulty=0.4), 0.0)
        assert updated.t == 2
        assert updated.difficulty == pytest.approx(0.2, abs=1e-15)

    def test_fourth_observation(self):
        updated = update_difficulty(_record(t=3, difficulty=0.1), 0.5)
        assert updated.t == 4
        assert updated.difficulty == pytest.approx(0.2, abs=1e-15)

    def test_preserves_identity_fields(self):
        record = ProblemRecord(id="p7", level_tag=3, true_difficulty=1.25, t=2, difficulty=0.1)
        updated = update_difficulty(record, -0.3)
        assert (updated.id, updated.level_tag, updated.true_difficulty) == ("p7", 3, 1.25)
        assert record.t == 2  # original untouched

    @pytest.mark.parametrize("bad", [-1.0000001, 1.5, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            update_difficulty(_record(), bad)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=400))
    @settings(max_examples=200)
    def test_incremental_matches_batch_mean(self, values):
        record = _record()
        for value in values:
            record = update_difficulty(record, value)
        assert record.t == len(values)
        assert record.difficulty == pytest.approx(
            math.fsum(values) / len(values), abs=1e-10
        )

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=400))
    def test_bounded_by_observation_range(self, values):
        record = _record()
        for value in values:
            record = update_difficulty(record, value)
        assert -1.0 <= record.difficulty <= 1.0


class TestUpdateCompetence:
    def test_mixed_values_cancel(self):
        records = [_record(t=1, difficulty=d, pid=f"x{i}") for i, d in enumerate([0.1, -0.3, 0.2])]
        assert update_competence(records) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_values(self):
        records = [_record(t=1, difficulty=0.5, pid=f"x{i}") for i in range(2)]
        assert update_competence(records) == -0.5

    def test_against_fsum_oracle(self):
        import random

        rnd = random.Random(1234)
        values = [rnd.uniform(-1.0, 1.0) for _ in range(100)]
        records = [_record(t=1, difficulty=d, pid=f"x{i}") for i, d in enumerate(values)]
        assert update_competence(records) == pytest.approx(
            -math.fsum(values) / len(values), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            update_competence([])

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=300))
    def test_negation_matches_same_order_mean(self, values):
        records = [_record(t=1, difficulty=d, pid=f"x{i}") for i, d in enumerate(values)]
        mean = sum(r.difficulty for r in records) / len(records)
        assert -update_competence(records) == mean


class TestAlignment:
    def test_exact_match(self):
        assert alignment(0.2, 0.2) == 0.0

    def test_signed_gaps(self):
        assert alignment(0.0, 0.5) == 0.5
        assert alignment(0.5, 0.0) == 0.5

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=30, unique=True),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_argmin_invariant_under_common_shift(self, difficulties, shift, competence):
        scored = sorted((alignment(competence, d), i) for i, d in enumerate(difficulties))
        if len(scored) > 1 and scored[1][0] - scored[0][0] < 1e-6:
            return  # near-tie: argmin legitimately unstable under rounding
        shifted = sorted(
            (alignment(competence + shift, d + shift), i) for i, d in enumerate(difficulties)
        )
        assert scored[0][1] == shifted[0][1]


class TestHistorySensitivity:
    def test_slow_solver_keeps_higher_difficulty(self):
        # Problem A fails 24 times before finally passing; problem B passes
        # its 6 attempts outright.  Competence held at 0 throughout.
        slow = _record(pid="a")
        for _ in range(24):
            d = instantaneous_difficulty(0.0, slow.difficulty, 0.0)
            slow = update_difficulty(slow, d)
        d = instantaneous_difficulty(0.0, slow.difficulty, 1.0)
        slow = update_difficulty(slow, d)

        fast = _record(pid="b")
        for _ in range(6):
            d = instantaneous_difficulty(0.0, fast.difficulty, 1.0)
            fast = update_difficulty(fast, d)

        assert slow.difficulty > fast.difficulty
        assert slow.difficulty > 0.0 > fast.difficulty


class TestRecordTypes:
    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            ProblemRecord(id="x", t=-1)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            ProblemRecord(id="x", level_tag=6)
