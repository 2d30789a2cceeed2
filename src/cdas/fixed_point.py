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
from dataclasses import dataclass
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
    """The fixed point, and the sup-norm step size of each iteration that reached it."""

    d_star: np.ndarray
    c_star: float
    trajectory: list[float]

    @property
    def iterations(self) -> int:
        return len(self.trajectory)

    @property
    def final_residual(self) -> float:
        return self.trajectory[-1]

    @property
    def contraction_ratios(self) -> list[float]:
        """Each step size over the one before, where that one is above rounding noise."""
        return [r for r in _step_ratios(self.trajectory) if r is not None]


def iterate_once(d: np.ndarray, c: float, s_star: np.ndarray) -> State:
    """One synchronous application of the difficulty/competence map.

    The logistic is taken by sign so exp never overflows: with
    e = exp(-|z|) it is 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    Those are the IEEE operations of evaluating each sign on its own, in one
    exp pass, with one scratch array beside the returned one.
    """
    z = np.subtract(c, np.asarray(d, dtype=float))
    # -|z| as min(z, -z), which passes a NaN through as it is (abs clears its sign).
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    # The numerator, 1 where z >= 0 and e elsewhere: as 0 <= e <= 1 that is
    # max(e, z >= 0), several times cheaper than a masked write.
    np.maximum(e, z >= 0, out=z)
    e += 1.0
    z /= e
    z -= s_star
    return z, -float(z.mean())


def _sup_distance(a: State, b: State) -> float:
    gap = np.subtract(a[0], b[0])
    np.abs(gap, out=gap)
    return max(float(gap.max()), abs(a[1] - b[1]))


def _step_ratios(deltas: list[float]) -> list[float | None]:
    """Each step size over the one before it; None where there is no such step above the floor."""
    return [None] + [
        delta / previous if previous > _RATIO_FLOOR else None
        for previous, delta in zip(deltas, deltas[1:])
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

    Only the current iterate and the step sizes are kept, so memory does not
    grow with the iteration count.

    Raises:
        ConvergenceError: if ``max_iters`` applications do not reach the
            tolerance; the step sizes so far ride along on the exception.
    """
    # NaN fails both comparisons.
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    s_star = problem.s_star
    # iterate_once never writes to d and returns a fresh array, so the start
    # needs no copy and d_star is never the caller's init_d.
    d = problem.init_d if problem.init_d is not None else np.zeros_like(s_star)
    c = float(problem.init_c)
    deltas: list[float] = []

    for _ in range(max_iters):
        d_next, c_next = iterate_once(d, c, s_star)
        delta = _sup_distance((d_next, c_next), (d, c))
        deltas.append(delta)
        d, c = d_next, c_next
        if delta <= tolerance:
            return EquilibriumSolution(d_star=d, c_star=c, trajectory=deltas)

    raise ConvergenceError(
        f"no convergence to {tolerance:g} within {max_iters} iterations "
        f"(last step {deltas[-1]:.3e})",
        trajectory=deltas,
    )


def equation_residual(d: np.ndarray, c: float, s_star: np.ndarray) -> float:
    """Sup-norm defect of the equilibrium equations at (d, c)."""
    d_map, c_map = iterate_once(d, c, s_star)
    return _sup_distance((d_map, c_map), (np.asarray(d, dtype=float), c))


def write_trajectory_csv(deltas: list[float], path: str | Path) -> None:
    """Dump per-iteration step sizes and ratios: columns iteration, delta, ratio."""
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "delta", "ratio"])
        for i, (delta, ratio) in enumerate(zip(deltas, _step_ratios(deltas)), start=1):
            writer.writerow([i, repr(delta), "" if ratio is None else repr(ratio)])
