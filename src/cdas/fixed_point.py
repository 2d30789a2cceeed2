"""Equilibrium of the coupled difficulty/competence recursion.

For a fixed target pass-rate vector s* the map

    d'[x] = sigmoid(c - d[x]) - s*[x]
    c'    = -mean(d')

is a contraction with constant 1/2 in the sup norm on (d, c): the sigmoid is
1/4-Lipschitz, so |d'[x] - d''[x]| <= (|c - c''| + |d[x] - d''[x]|) / 4, and
the competence coordinate is an average of the difficulty coordinates.  The
solver is plain synchronous iteration of that map; Banach's theorem gives a
unique fixed point regardless of the starting point.

The difficulty coordinates are computed in blocks of ``_BLOCK`` doubles, a
size whose operands stay in one core's L2 cache, shared among the calling
thread and one pool thread per further usable CPU, which live for one call
(numpy releases the GIL inside each ufunc).  Each element goes through the
same IEEE operations whichever block or thread computes it, and c' is one
pairwise mean over the whole iterate, so the results are identical for any
worker count.  ``solve`` holds two iterates and a block of scratch per worker.
"""

from __future__ import annotations

import contextvars
import csv
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError
from .files import replacing

# Ratios are only meaningful while the step size is clearly above rounding noise.
_RATIO_FLOOR = 10.0 * sys.float_info.epsilon

# Doubles per block: a block's iterate, target, scratch and next-iterate
# slices (2 MiB together) fit one core's L2 cache.
_BLOCK = 1 << 16

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _over_blocks(n: int, run) -> None:
    """``run(blocks, scratch)`` on each worker, the workers sharing one queue of blocks.

    [0, n) is cut into the fewest blocks of at most ``_BLOCK`` elements, of
    sizes within one of each other, and the queue yields each block's index
    and slice.  ``scratch`` is a worker's float array the size of the largest
    block.  The calling thread is one worker (with it idle, a pool's fresh
    threads measured little faster than one thread); the others are a pool
    that lives for this call only, each in a copy of the caller's context so
    that numpy's ``errstate`` holds there too.  A worker the machine runs
    slower takes fewer blocks.
    """
    count = -(-n // _BLOCK)
    blocks = ((i, slice(i * n // count, (i + 1) * n // count)) for i in range(count))
    width = -(-n // count) if count else 0
    workers = max(1, min(_usable_cpus(), count))
    if workers == 1:
        run(blocks, np.empty(width))
        return
    lock = threading.Lock()

    def claimed():
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            yield block

    # Imported here, so that a process that never solves on threads does not
    # hold concurrent.futures' modules (about 0.5 MB resident).
    from concurrent.futures import ThreadPoolExecutor

    # The scratch is allocated here, in the calling thread: an array a pool
    # thread allocated would stay in that thread's malloc arena, resident.
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, claimed(), np.empty(width))
            for _ in range(workers - 1)
        ]
        try:
            run(claimed(), np.empty(width))
        finally:
            for future in futures:
                future.result()


def iterate_once(
    d: np.ndarray, c: float, s_star: np.ndarray, out: np.ndarray | None = None
) -> State:
    """One synchronous application of the difficulty/competence map.

    The logistic is taken by sign so exp never overflows: with
    e = exp(-|z|) it is 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    Those are the IEEE operations of evaluating each sign on its own, in one
    exp pass per block, in place in ``out`` beside a block of scratch per
    worker.  ``out`` is a C-contiguous float array of d's shape, d itself
    included, or None for a fresh one.
    """
    d = np.asarray(d, dtype=float)
    s_star = np.broadcast_to(np.asarray(s_star, dtype=float), d.shape).reshape(-1)
    if out is None:
        out = np.empty_like(d, order="C")
    elif out.shape != d.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array of d's shape")
    flat_d, flat_out = d.reshape(-1), out.reshape(-1)

    def run(blocks, scratch: np.ndarray) -> None:
        for _, block in blocks:
            z = flat_out[block]
            e = scratch[: z.size]
            np.subtract(c, flat_d[block], out=z)
            # -|z| as min(z, -z), which passes a NaN through as it is (abs clears its sign).
            np.negative(z, out=e)
            np.minimum(z, e, out=e)
            np.exp(e, out=e)
            # The numerator, 1 where z >= 0 and e elsewhere: as 0 <= e <= 1 that is
            # max(e, z >= 0), several times cheaper than a masked write.
            np.maximum(e, z >= 0, out=z)
            e += 1.0
            z /= e
            z -= s_star[block]

    _over_blocks(flat_out.size, run)
    return out, -float(out.mean())


def _step_size(a: np.ndarray, a_c: float, b: np.ndarray, b_c: float) -> float:
    """Sup-norm distance between (a, a_c) and (b, b_c), one block at a time."""
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    maxima = np.empty(-(-flat_a.size // _BLOCK))

    def run(blocks, scratch: np.ndarray) -> None:
        for i, block in blocks:
            a_block = flat_a[block]
            gap = scratch[: a_block.size]
            np.subtract(a_block, flat_b[block], out=gap)
            np.abs(gap, out=gap)
            maxima[i] = gap.max()

    _over_blocks(flat_a.size, run)
    # np.max passes a NaN on, as it would over the whole gap.
    return max(float(maxima.max()), abs(a_c - b_c))


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

    Only two iterates and the step sizes are kept, so memory does not grow
    with the iteration count.

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
    # Two iterates swap roles: each step writes the next one over the one
    # before the current.  The caller's init_d is only read, so the first two
    # steps take fresh arrays, and d_star is never init_d.
    d = problem.init_d if problem.init_d is not None else np.zeros_like(s_star)
    c = float(problem.init_c)
    spare = None
    deltas: list[float] = []

    for _ in range(max_iters):
        # A global lookup, so a wrapper set on the module sees every step.
        d_next, c_next = iterate_once(d, c, s_star, out=spare)
        delta = _step_size(d_next, c_next, d, c)
        deltas.append(delta)
        spare = None if d is problem.init_d else d
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
    d = np.asarray(d, dtype=float)
    d_map, c_map = iterate_once(d, c, s_star)
    return _step_size(d_map, c_map, d, c)


def write_trajectory_csv(deltas: list[float], path: str | Path) -> None:
    """Dump per-iteration step sizes and ratios: columns iteration, delta, ratio."""
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "delta", "ratio"])
        for i, (delta, ratio) in enumerate(zip(deltas, _step_ratios(deltas)), start=1):
            writer.writerow([i, repr(delta), "" if ratio is None else repr(ratio)])
