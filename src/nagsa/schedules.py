"""Step-size and momentum schedules.

Step families:
    constant    alpha_k = c
    power       alpha_k = c / (k + s)^p

Momentum families:
    constant    theta_k = theta
    harmonic    theta_k = 1 / (k + s)
    power       theta_k = c / (k + s)^p

Indices are 1-based. Momentum values must stay inside [0, 1); constructors
refuse anything else, and any parameter that is inf or nan. A power value
whose (k + s)^p passes the float range is c / inf = 0.0. Each family's
formula is written once, in ``block``, which evaluates it per index on
Python floats; ``at`` and ``values`` take their values from it, so a block
of values equals the scalar values bit for bit. (A vectorised
``c / (k + s) ** p`` over an index array does not: numpy's SIMD power
differs from the scalar one in the last bit for some k.)

``classify`` reports the two summability properties the convergence
arguments need: a divergent step sum and a convergent sum of
squares (p-series facts: sum k^-p diverges iff p <= 1, sum k^-2p converges
iff p > 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _quote

__all__ = [
    "StepSchedule",
    "MomentumSchedule",
    "ValidityReport",
    "classify",
]


# values per block() call when a long run is materialized: a list of 2^14
# Python floats takes about 512 KiB, a quarter of the array at 2^18 values
_PIECE = 1 << 14


def _require_index(k: int) -> None:
    if k < 1:
        raise ValueError(f"schedule index must be >= 1, got {k}")


def _require_finite(kind: str, **parameters: float) -> None:
    # inf and nan pass the range checks below or evade them: 1.0 ** nan is
    # 1.0, so power momentum with p = nan starts at theta_1 = c and turns to
    # nan from theta_2 on
    for name, value in parameters.items():
        if not math.isfinite(value):
            raise ValueError(f"{kind} parameter {name} must be finite, got {value!r}")


def _power_block(c: float, s: float, p: float, start: int, count: int) -> list[float]:
    """c / (k + s)^p for k = start .. start + count - 1, the power family of
    both schedule kinds. Where (k + s)^p passes the float range, for which
    Python raises OverflowError, the value is c / inf = 0.0; only a block
    that raised is taken again one value at a time, so every other value
    keeps its bits."""
    indices = range(start, start + count)
    try:
        return [c / (k + s) ** p for k in indices]
    except OverflowError:
        return [_power_value(c, k + s, p) for k in indices]


def _power_value(c: float, base: float, p: float) -> float:
    try:
        return c / base**p
    except OverflowError:
        return c / math.inf


@dataclass(frozen=True)
class StepSchedule:
    family: str
    c: float
    s: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.family not in ("constant", "power"):
            raise ValueError(f"unknown step family {_quote(self.family)}")
        _require_finite("step", c=self.c, s=self.s, p=self.p)
        if not self.c > 0:
            raise ValueError("step constant c must be positive")
        if self.family == "power":
            if self.s < 0:
                raise ValueError("step offset s must be non-negative")
            if self.p < 0:
                raise ValueError("step exponent p must be non-negative")

    def block(self, start: int, count: int) -> list[float]:
        """alpha_start .. alpha_{start + count - 1}."""
        _require_index(start)
        if self.family == "constant":
            return [self.c] * count
        return _power_block(self.c, self.s, self.p, start, count)

    def at(self, k: int) -> float:
        return self.block(k, 1)[0]


@dataclass(frozen=True)
class MomentumSchedule:
    family: str
    theta: float = 0.0
    c: float = 0.0
    s: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.family not in ("constant", "harmonic", "power"):
            raise ValueError(f"unknown momentum family {_quote(self.family)}")
        _require_finite("momentum", theta=self.theta, c=self.c, s=self.s, p=self.p)
        if self.family == "constant":
            if not 0.0 <= self.theta < 1.0:
                raise ValueError(f"constant momentum must lie in [0, 1), got {self.theta}")
        elif self.family == "harmonic":
            # 1/(1 + s) rounds to 1 for s <= 2^-53
            if not (self.s > 0 and self.at(1) < 1.0):
                raise ValueError(
                    "harmonic momentum needs offset s > 0 so theta_1 = 1/(1 + s) < 1, "
                    f"got s = {self.s!r}"
                )
        else:
            if self.c < 0 or self.s < 0 or self.p < 0:
                raise ValueError("power momentum parameters must be non-negative")
            if not self.at(1) < 1.0:
                raise ValueError("power momentum must start below 1")

    def block(self, start: int, count: int) -> list[float]:
        """theta_start .. theta_{start + count - 1}."""
        _require_index(start)
        if self.family == "constant":
            return [self.theta] * count
        if self.family == "harmonic":
            s = self.s
            return [1.0 / (k + s) for k in range(start, start + count)]
        return _power_block(self.c, self.s, self.p, start, count)

    def at(self, k: int) -> float:
        return self.block(k, 1)[0]

    @property
    def bounds(self) -> tuple[float, float]:
        """Tight enclosing interval [lo, hi] of the value sequence over k >= 1."""
        first = self.at(1)
        if self.family == "constant" or (self.family == "power" and self.p == 0.0):
            return (first, first)
        # harmonic and decaying power families decrease toward 0
        return (0.0, first)

    @property
    def is_nonincreasing(self) -> bool:
        """Always true: constant is flat, harmonic decays, and power has p >= 0."""
        return True

    @property
    def is_constant(self) -> bool:
        lo, hi = self.bounds
        return lo == hi

    def values(self, count: int) -> np.ndarray:
        """Materialize theta_1 .. theta_count as an array, filled from block()
        in pieces of at most _PIECE values."""
        out = np.empty(count)
        for start in range(0, count, _PIECE):
            out[start : start + _PIECE] = self.block(start + 1, min(_PIECE, count - start))
        return out


@dataclass(frozen=True)
class ValidityReport:
    diverges_sum: bool
    square_summable: bool


def classify(schedule: StepSchedule) -> ValidityReport:
    """Summability classification of a step schedule.

    diverges_sum: the partial sums of alpha_k grow without bound.
    square_summable: the partial sums of alpha_k^2 converge.
    """
    if schedule.family == "constant":
        # partial sums grow linearly, and so do those of the squares
        return ValidityReport(diverges_sum=True, square_summable=False)
    p = schedule.p
    return ValidityReport(diverges_sum=p <= 1.0, square_summable=2.0 * p > 1.0)
