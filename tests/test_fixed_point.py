"""Equilibrium solver: analytic fixed points, contraction bound, error paths."""

import csv
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdas.errors import ConvergenceError
from cdas.fixed_point import (
    EquilibriumProblem,
    equation_residual,
    iterate_once,
    solve,
    write_trajectory_csv,
)

CONTRACTION_BOUND = 0.5 + 1e-9
DEMO = Path(__file__).resolve().parents[1] / "scripts" / "fixed_point_demo.py"


def _masked_sigmoid(z):
    # The reference: each sign evaluated on its own, so exp never overflows.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _masked_iterate_once(d, c, s_star):
    d_next = _masked_sigmoid(c - np.asarray(d, dtype=float)) - s_star
    return d_next, -float(d_next.mean())


def _masked_solve(s_star, d, c, tolerance, max_iters):
    """The reference iteration: its last state and its step sizes."""
    deltas = []
    for _ in range(max_iters):
        d_next, c_next = _masked_iterate_once(d, c, s_star)
        deltas.append(max(float(np.max(np.abs(d_next - d))), abs(c_next - c)))
        d, c = d_next, c_next
        if deltas[-1] <= tolerance:
            break
    return (d, c), deltas


def _reference_csv(deltas):
    rows = [["iteration", "delta", "ratio"]]
    for i, delta in enumerate(deltas, start=1):
        measurable = i >= 2 and deltas[i - 2] > 10.0 * np.finfo(float).eps
        rows.append([str(i), repr(delta), repr(delta / deltas[i - 2]) if measurable else ""])
    return "".join(",".join(row) + "\n" for row in rows).encode()


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


LOGIT_EDGES = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 700.0, -700.0]


@pytest.mark.parametrize("c", [0.0, -0.0, 1.5])
@pytest.mark.parametrize("z", ["edges", "uniform", "non-finite"])
def test_iterate_once_is_the_masked_form_bit_for_bit(z, c):
    values = {
        "edges": np.array(LOGIT_EDGES),
        "uniform": np.random.default_rng(17).uniform(-800.0, 800.0, 100_001),
        "non-finite": np.array([np.nan, -np.nan, np.inf, -np.inf]),
    }[z]
    s_star = np.random.default_rng(18).uniform(0.0, 1.0, values.size)
    for d in (values, -values):
        got_d, got_c = iterate_once(d, c, s_star)
        want_d, want_c = _masked_iterate_once(d, c, s_star)
        assert got_d.tobytes() == want_d.tobytes()
        assert np.array(got_c).tobytes() == np.array(want_c).tobytes()


# The last start has d at 0 and c at 5, so its first step size is c's.
@pytest.mark.parametrize("seed, scattered", [(0, True), (1, True), (2, False)])
def test_solve_is_the_masked_iteration_bit_for_bit(seed, scattered, tmp_path):
    rng = np.random.default_rng(seed)
    s_star = rng.uniform(0.0, 1.0, 10_000)
    if scattered:
        d, c = rng.uniform(-5.0, 5.0, 10_000), float(rng.uniform(-5.0, 5.0))
    else:
        d, c = np.zeros(10_000), 5.0
    solution = solve(EquilibriumProblem(s_star=s_star, init_d=d, init_c=c), tolerance=1e-10)
    (ref_d, ref_c), deltas = _masked_solve(s_star, d, c, 1e-10, 200)
    assert list(map(repr, solution.trajectory)) == list(map(repr, deltas))
    assert solution.d_star.tobytes() == ref_d.tobytes()
    assert repr(solution.c_star) == repr(ref_c)
    assert repr(solution.final_residual) == repr(deltas[-1])
    floor = 10.0 * np.finfo(float).eps
    ratios = [b / a for a, b in zip(deltas, deltas[1:]) if a > floor]
    assert list(map(repr, solution.contraction_ratios)) == list(map(repr, ratios))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(solution.trajectory, path)
    assert path.read_bytes() == _reference_csv(deltas)


def test_unconverged_trajectory_is_the_masked_iteration_bit_for_bit():
    problem = EquilibriumProblem(
        s_star=np.linspace(0.0, 1.0, 7), init_d=np.linspace(-5.0, 5.0, 7), init_c=-5.0
    )
    with pytest.raises(ConvergenceError) as excinfo:
        solve(problem, tolerance=1e-12, max_iters=2)
    _, deltas = _masked_solve(problem.s_star, problem.init_d, problem.init_c, 0.0, 2)
    assert list(map(repr, excinfo.value.trajectory)) == list(map(repr, deltas))


# A tolerance below rounding noise is never reached, so that solve runs out its budget.
@pytest.mark.parametrize(
    "tolerance, steps", [(1e-10, 34), (1e-300, 200)], ids=["converged", "exhausted"]
)
def test_solve_holds_a_few_arrays_whatever_its_iteration_count(tolerance, steps):
    # Shape, not time: a solve holds the current iterate, the next one and
    # one step's scratch, about 3.2 arrays of n doubles, however long it runs.
    n = 100_000
    rng = np.random.default_rng(4)
    problem = EquilibriumProblem(
        s_star=rng.uniform(0.0, 1.0, n), init_d=rng.uniform(-5.0, 5.0, n), init_c=5.0
    )
    tracemalloc.start()
    try:
        try:
            trajectory = solve(problem, tolerance=tolerance, max_iters=200).trajectory
        except ConvergenceError as err:
            trajectory = err.trajectory
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * n * 8
    assert len(trajectory) == steps


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
    assert len(excinfo.value.trajectory) == 2  # one step size per iteration


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


def test_demo_script_runs_and_writes_a_trajectory(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("fixed_point_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path / "traj.csv"
    argv = ["--instances", "2", "--size", "5", "--inits", "2", "--trajectory-out", str(out)]
    assert demo.main(argv) == 0
    assert "worst contraction ratio" in capsys.readouterr().out
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == ["iteration", "delta", "ratio"]


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
