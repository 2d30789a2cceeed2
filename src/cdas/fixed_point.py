"""Equilibrium of the coupled difficulty/competence recursion.

For a fixed target pass-rate vector s* the map

    d'[x] = sigmoid(c - d[x]) - s*[x]
    c'    = -mean(d')

is a contraction with constant 1/2 in the sup norm on (d, c): the sigmoid is
1/4-Lipschitz, so |d'[x] - d''[x]| <= (|c - c''| + |d[x] - d''[x]|) / 4, and
the competence coordinate is an average of the difficulty coordinates.  The
solver is plain synchronous iteration of that map; Banach's theorem gives a
unique fixed point regardless of the starting point.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConvergenceError
from .files import replacing

# Ratios are only meaningful while the step size is clearly above rounding noise.
_RATIO_FLOOR = 10.0 * sys.float_info.epsilon

State = tuple[np.ndarray, float]


@dataclass(frozen=True)
class EquilibriumProblem:
    """Target pass rates plus an optional starting point."""

    s_star: np.ndarray
    init_d: np.ndarray | None = None
    init_c: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s_star, dtype=float)
        object.__setattr__(self, "s_star", s)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("s_star must be a non-empty 1-d vector")
        if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(s > 1.0):
            raise ValueError("s_star entries must be finite and in [0, 1]")
        if self.init_d is not None:
            d = np.asarray(self.init_d, dtype=float)
            object.__setattr__(self, "init_d", d)
            if d.shape != s.shape:
                raise ValueError(
                    f"init_d shape {d.shape} does not match s_star shape {s.shape}"
                )
            if not np.all(np.isfinite(d)):
                raise ValueError("init_d entries must be finite")
        if not np.isfinite(self.init_c):
            raise ValueError(f"init_c must be finite, got {self.init_c}")


@dataclass(frozen=True)
class EquilibriumSolution:
    d_star: np.ndarray
    c_star: float
    iterations: int
    final_residual: float
    contraction_ratios: list[float] = field(default_factory=list)
    trajectory: list[State] = field(default_factory=list)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def iterate_once(d: np.ndarray, c: float, s_star: np.ndarray) -> State:
    """One synchronous application of the difficulty/competence map."""
    d_next = _sigmoid(c - np.asarray(d, dtype=float)) - s_star
    c_next = -float(d_next.mean())
    return d_next, c_next


def _sup_distance(a: State, b: State) -> float:
    d_gap = float(np.max(np.abs(a[0] - b[0])))
    return max(d_gap, abs(a[1] - b[1]))


def _deltas(trajectory: list[State]) -> list[float]:
    return [_sup_distance(trajectory[i + 1], trajectory[i]) for i in range(len(trajectory) - 1)]


def _ratios(deltas: list[float]) -> list[float]:
    return [
        deltas[i + 1] / deltas[i]
        for i in range(len(deltas) - 1)
        if deltas[i] > _RATIO_FLOOR
    ]


def solve(
    problem: EquilibriumProblem,
    tolerance: float = 1e-10,
    max_iters: int = 200,
) -> EquilibriumSolution:
    """Iterate to the unique fixed point of the map.

    Stops once the sup-norm step size is <= ``tolerance``.  Because one more
    map application can move the state at most half the last step, the
    returned point satisfies the equilibrium equations to within a small
    multiple of the tolerance.

    Raises:
        ConvergenceError: if ``max_iters`` applications do not reach the
            tolerance; the partial trajectory rides along on the exception.
    """
    # NaN fails both comparisons.
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    s_star = problem.s_star
    d = problem.init_d.copy() if problem.init_d is not None else np.zeros_like(s_star)
    c = float(problem.init_c)
    # d is private and iterate_once returns a fresh array, so the trajectory
    # can hold them without copying.
    trajectory: list[State] = [(d, c)]
    deltas: list[float] = []

    for iteration in range(1, max_iters + 1):
        d_next, c_next = iterate_once(d, c, s_star)
        delta = _sup_distance((d_next, c_next), (d, c))
        trajectory.append((d_next, c_next))
        deltas.append(delta)
        d, c = d_next, c_next
        if delta <= tolerance:
            return EquilibriumSolution(
                d_star=d,
                c_star=c,
                iterations=iteration,
                final_residual=delta,
                contraction_ratios=_ratios(deltas),
                trajectory=trajectory,
            )

    raise ConvergenceError(
        f"no convergence to {tolerance:g} within {max_iters} iterations "
        f"(last step {deltas[-1]:.3e})",
        trajectory=trajectory,
    )


def measure_contraction(trajectory: list[State]) -> float:
    """Largest consecutive step-size ratio along a trajectory.

    Steps below the rounding-noise floor are skipped; a trajectory that never
    moves measurably contracts trivially and reports 0.0.
    """
    if len(trajectory) < 3:
        raise ValueError(f"need at least 3 states to measure contraction, got {len(trajectory)}")
    ratios = _ratios(_deltas(trajectory))
    return max(ratios) if ratios else 0.0


def equation_residual(d: np.ndarray, c: float, s_star: np.ndarray) -> float:
    """Sup-norm defect of the equilibrium equations at (d, c)."""
    d_map, c_map = iterate_once(d, c, s_star)
    return _sup_distance((d_map, c_map), (np.asarray(d, dtype=float), c))


def write_trajectory_csv(trajectory: list[State], path: str | Path) -> None:
    """Dump per-iteration step sizes and ratios: columns iteration, delta, ratio."""
    deltas = _deltas(trajectory)
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "delta", "ratio"])
        for i, delta in enumerate(deltas, start=1):
            if i >= 2 and deltas[i - 2] > _RATIO_FLOOR:
                ratio = repr(delta / deltas[i - 2])
            else:
                ratio = ""
            writer.writerow([i, repr(delta), ratio])
