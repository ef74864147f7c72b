"""Reference kernels: fixed pieces of work that track the machine's speed.

On a shared machine the same code runs up to twice as slowly while
neighbouring load is high, in stretches from under a second to minutes. The
benchmark times a reference kernel next to every unit of work and reports
the unit's time as a multiple of the kernel's time measured around it (unit
"ref"), which cancels most of that drift.

Load slows interpreter-bound code more than code that waits on memory, so
each workload gets a kernel shaped like its own hot loop: solver steps and
an objective pass on the workload's own row matrix for the sweeps, seeded generators with
200-element draws for the lemma suite, 2x2 matrix products for the algebra
table. The kernels use no package code, so a change to the package never
changes them.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

_REPEATS = 5


def solver_steps(method: str, rows: np.ndarray, targets: np.ndarray, steps: int) -> Callable[[], None]:
    """Momentum steps in the package's per-step pattern, written out here.

    Each step extrapolates, draws a row index from a numpy generator, takes
    a subgradient (`ssgd`, least squares) or closed-form proximal (`prox_rm`,
    least absolute deviations) step on that row and checks finiteness; one
    full objective pass over all rows follows, as a checkpoint does.
    """
    n = rows.shape[1]

    def kernel() -> None:
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7])))
        v_prev = v = np.zeros(n)
        for k in range(2, steps + 2):
            alpha = 0.05 / (k + 3.0) ** 0.9
            x = v + 0.5 * (v - v_prev)
            i = int(gen.integers(1, rows.shape[0] + 1))
            a = rows[i - 1]
            r = float(a @ x - targets[i - 1])
            if method == "ssgd":
                v_next = x - alpha * ((2.0 * r) * a)
            else:
                gamma = np.sign(r) * min(alpha, abs(r) / float(a @ a))
                v_next = x - gamma * a
            if not np.all(np.isfinite(v_next)):
                raise FloatingPointError("reference kernel left the finite range")
            v_prev, v = v, v_next
        residual = rows @ v - targets
        float(residual @ residual) if method == "ssgd" else float(np.sum(np.abs(residual)))

    return kernel


def branch_draws(count: int, size: int) -> Callable[[], None]:
    """Fresh seeded generators, each drawing `size` uniforms into an update."""

    def kernel() -> None:
        base = np.linspace(1.0, 2.0, size)
        for i in range(count):
            g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, 1, i])))
            w = g.uniform(-1.0, 1.0, size)
            float(np.mean(1.5 * base - 0.5 * base + 1e-3 * w))

    return kernel


def matrix_products(count: int) -> Callable[[], None]:
    """A running product of 2x2 step matrices."""

    def kernel() -> None:
        p = np.eye(2)
        for k in range(1, count + 1):
            theta = 1.0 / (k + 2.0)
            p = p @ np.array([[0.0, -theta], [1.0, 1.0 + theta]])

    return kernel


class Speed:
    """Reference-kernel samples taken during one repetition."""

    def __init__(self, kernel: Callable[[], None]):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0

    def _once(self) -> float:
        started = time.perf_counter()
        self.kernel()
        return time.perf_counter() - started

    def sample(self) -> int:
        """Time the kernel (median of five) and return the sample's index."""
        started = time.perf_counter()
        self.samples.append(statistics.median(self._once() for _ in range(_REPEATS)))
        self.spent += time.perf_counter() - started
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Mean of the sample taken before a unit and the one after it."""
        return (self.samples[index] + self.samples[index + 1]) / 2
