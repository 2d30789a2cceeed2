"""Equilibrium solver: analytic fixed points, contraction bound, error paths."""

import csv
import math

import numpy as np
import pytest

from cdas.errors import ConvergenceError
from cdas.fixed_point import (
    EquilibriumProblem,
    equation_residual,
    iterate_once,
    measure_contraction,
    solve,
    write_trajectory_csv,
)

CONTRACTION_BOUND = 0.5 + 1e-9


def _bisection_root(f, lo, hi, iterations=200):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, "root not bracketed"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def test_iterate_once_all_passing_targets():
    d, c = iterate_once(np.zeros(4), 0.0, np.ones(4))
    assert np.allclose(d, -0.5, atol=0)
    assert c == 0.5


def test_iterate_once_preserves_balanced_point():
    d, c = iterate_once(np.zeros(3), 0.0, np.full(3, 0.5))
    assert np.all(d == 0.0)
    assert c == 0.0


def test_balanced_targets_solve_to_zero():
    solution = solve(EquilibriumProblem(s_star=np.full(10, 0.5)), tolerance=1e-10)
    assert np.max(np.abs(solution.d_star)) <= 1e-10
    assert abs(solution.c_star) <= 1e-10


def test_single_problem_matches_bisection_oracle():
    # At equilibrium with one problem, c = -d, so d solves sigmoid(-2d) - 0.8 - d = 0.
    def defect(d):
        return 1.0 / (1.0 + math.exp(2.0 * d)) - 0.8 - d

    root = _bisection_root(defect, -1.0, 0.0)
    solution = solve(EquilibriumProblem(s_star=np.array([0.8])), tolerance=1e-12)
    assert solution.d_star[0] == pytest.approx(root, abs=1e-8)
    assert solution.c_star == pytest.approx(-root, abs=1e-8)
    assert root == pytest.approx(-0.20088645421318857, abs=1e-10)


def test_limit_independent_of_start():
    rng = np.random.default_rng(42)
    s_star = rng.uniform(0.0, 1.0, size=25)
    baseline = solve(EquilibriumProblem(s_star=s_star), tolerance=1e-12)
    for _ in range(10):
        problem = EquilibriumProblem(
            s_star=s_star,
            init_d=rng.uniform(-5.0, 5.0, size=25),
            init_c=float(rng.uniform(-5.0, 5.0)),
        )
        other = solve(problem, tolerance=1e-12)
        assert np.max(np.abs(other.d_star - baseline.d_star)) <= 1e-8
        assert abs(other.c_star - baseline.c_star) <= 1e-8


def test_contraction_ratios_below_half():
    rng = np.random.default_rng(7)
    for n in (1, 2, 10, 100):
        for _ in range(5):
            problem = EquilibriumProblem(
                s_star=rng.uniform(0.0, 1.0, size=n),
                init_d=rng.uniform(-5.0, 5.0, size=n),
                init_c=float(rng.uniform(-5.0, 5.0)),
            )
            solution = solve(problem, tolerance=1e-10, max_iters=60)
            assert solution.contraction_ratios, "expected measurable steps"
            assert max(solution.contraction_ratios) <= CONTRACTION_BOUND


def test_converges_within_40_iterations_from_unit_error():
    # Contraction constant 1/2 and a start one unit from the fixed point give
    # step sizes below 1e-10 within 40 applications (2^-40 < 1e-10 / 2).
    rng = np.random.default_rng(19)
    s_star = rng.uniform(0.0, 1.0, size=50)
    anchor = solve(EquilibriumProblem(s_star=s_star), tolerance=1e-14)
    problem = EquilibriumProblem(
        s_star=s_star,
        init_d=anchor.d_star + rng.choice([-1.0, 1.0], size=50),
        init_c=anchor.c_star + 1.0,
    )
    solution = solve(problem, tolerance=1e-10)
    assert solution.iterations <= 40
    assert solution.final_residual <= 1e-10


def test_equation_residual_bounded_by_tolerance_multiple():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s_star = rng.uniform(0.0, 1.0, size=30)
        solution = solve(EquilibriumProblem(s_star=s_star), tolerance=1e-10)
        assert equation_residual(solution.d_star, solution.c_star, s_star) <= 4e-10


def test_solution_bounds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s_star = rng.uniform(0.0, 1.0, size=20)
        solution = solve(EquilibriumProblem(s_star=s_star))
        assert np.all(solution.d_star >= -1.0) and np.all(solution.d_star <= 1.0)
        assert -1.0 <= solution.c_star <= 1.0


def test_budget_exhaustion_carries_trajectory():
    problem = EquilibriumProblem(
        s_star=np.full(5, 0.9), init_d=np.full(5, 5.0), init_c=-5.0
    )
    with pytest.raises(ConvergenceError) as excinfo:
        solve(problem, tolerance=1e-12, max_iters=2)
    assert len(excinfo.value.trajectory) == 3  # initial state plus two iterates


def test_measure_contraction_requires_three_states():
    with pytest.raises(ValueError):
        measure_contraction([(np.zeros(2), 0.0), (np.zeros(2), 0.0)])


def test_measure_contraction_constant_trajectory_is_zero():
    states = [(np.zeros(3), 0.0)] * 4
    assert measure_contraction(states) == 0.0


def test_measure_contraction_matches_solution_ratios():
    problem = EquilibriumProblem(
        s_star=np.array([0.1, 0.9, 0.4]), init_d=np.full(3, 2.0), init_c=-2.0
    )
    solution = solve(problem, tolerance=1e-10)
    assert measure_contraction(solution.trajectory) == pytest.approx(
        max(solution.contraction_ratios), abs=0
    )


def test_trajectory_csv(tmp_path):
    solution = solve(
        EquilibriumProblem(s_star=np.array([0.2, 0.7]), init_d=np.ones(2), init_c=0.5)
    )
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(solution.trajectory, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "delta", "ratio"]
    assert len(rows) - 1 == solution.iterations
    assert rows[1][2] == ""  # no ratio before the second step
    deltas = [float(row[1]) for row in rows[1:]]
    assert deltas[-1] == solution.final_residual


class TestProblemValidation:
    def test_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            EquilibriumProblem(s_star=np.array([0.5, 1.2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            EquilibriumProblem(s_star=np.array([0.5, 0.5]), init_d=np.zeros(3))

    def test_empty(self):
        with pytest.raises(ValueError):
            EquilibriumProblem(s_star=np.array([]))

    def test_non_finite_init(self):
        with pytest.raises(ValueError):
            EquilibriumProblem(s_star=np.array([0.5]), init_c=float("nan"))

    def test_bad_tolerance(self):
        for tolerance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                solve(EquilibriumProblem(s_star=np.array([0.5])), tolerance=tolerance)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            solve(EquilibriumProblem(s_star=np.array([0.5])), max_iters=0)
