"""Two-by-two step-matrix algebra for momentum recursions.

The two-point momentum recursion u_{n+2} = (1+theta_n) u_{n+1} - theta_n u_n
is the linear map (u_n, u_{n+1}) -> (u_{n+1}, u_{n+2}) with step matrix

    M(theta) = [[0, -theta], [1, 1+theta]]

acting on the right of row-pair states. Both columns of M sum to 1, so the
property is preserved under products. Two product families matter:

* Head products P_n = M_1 M_2 ... M_n (new factor multiplied on the right).
  They keep the structural form [[-d_n, -c_n], [1+d_n, 1+c_n]] with
  d_n = sum_{k=1}^{n-1} prod_{j<=k} theta_j and c_n = d_n + prod_{j<=n} theta_j.
* Tail products Q_n = M_n Q_{n+1}, which collapse to the rank-one form
  [[-t_n, -t_n], [1+t_n, 1+t_n]] driven by the tail coefficients
  t_n = sum_{k>=n} prod_{j=n..k} theta_j, satisfying t_n = (1 + t_{n+1}) theta_n.

Matrices of the rank-one form are exactly the fixed points of right
multiplication by any M(theta); the squared distance of a head product to
that fixed-point family is (d_n - c_n)^2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, StructuralError
from .schedules import MomentumSchedule

__all__ = [
    "ProductState",
    "TailCoefficients",
    "companion_matrix",
    "head_product",
    "head_products",
    "head_coefficients",
    "fixed_point_matrix",
    "fixed_point_residual",
    "tail_coefficients",
    "tail_product",
]

_COLUMN_SUM_TOL = 1e-9


def companion_matrix(theta: float) -> np.ndarray:
    """Step matrix [[0, -theta], [1, 1+theta]] for one recursion step."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {theta}")
    return np.array([[0.0, -theta], [1.0, 1.0 + theta]])


@dataclass(frozen=True)
class ProductState:
    """A head or tail product with its sequence position.

    entries is the 2x2 matrix, index the product's n, kind "head" or "tail".
    """

    entries: np.ndarray
    index: int
    kind: str

    def __post_init__(self):
        if self.kind not in ("head", "tail"):
            raise ValueError(f"kind must be 'head' or 'tail', got {self.kind!r}")
        if self.entries.shape != (2, 2):
            raise ValueError("product entries must be 2x2")
        if self.index < 1:
            raise ValueError("product index must be >= 1")


def head_products(thetas: Iterable[float]) -> Iterator[ProductState]:
    """P_1, P_2, ... over the given momentum values, by one left fold:
    P_n = P_{n-1} M(theta_n), so a table of n products costs n steps."""
    p = None
    for n, theta in enumerate(thetas, 1):
        step = companion_matrix(theta)
        p = step if p is None else p @ step
        yield ProductState(entries=p, index=n, kind="head")


def head_product(thetas: Sequence[float], n: int) -> ProductState:
    """P_n = M(theta_1) ... M(theta_n), multiplying new factors on the right."""
    if n < 1:
        raise ValueError(f"head product needs n >= 1, got {n}")
    if len(thetas) < n:
        raise ValueError(f"need at least {n} momentum values, got {len(thetas)}")
    return next(itertools.islice(head_products(thetas), n - 1, None))


def head_coefficients(state: ProductState) -> tuple[float, float]:
    """Extract (d_n, c_n) from the structural form [[-d, -c], [1+d, 1+c]].

    Raises StructuralError when the column sums stray from (1, 1) by more
    than 1e-9, which is the signature of a matrix outside the product family.
    """
    p = state.entries
    sums = p.sum(axis=0)
    if not np.all(np.abs(sums - 1.0) <= _COLUMN_SUM_TOL):
        raise StructuralError(f"column sums {sums} differ from (1, 1) beyond 1e-9")
    return -p[0, 0], -p[0, 1]


def fixed_point_matrix(t: float) -> np.ndarray:
    """Rank-one fixed point [[-t, -t], [1+t, 1+t]] of right momentum steps."""
    return np.array([[-t, -t], [1.0 + t, 1.0 + t]])


def fixed_point_residual(state: ProductState, theta: float) -> float:
    """Squared Frobenius distance (d_n - c_n)^2 from the fixed-point family.

    The minimizing member has parameter t = (d_n + c_n)/2; as a consistency
    check this projection is verified to be fixed under a further step with
    the supplied theta, which holds for every member of the family.
    """
    d, c = head_coefficients(state)
    projection = fixed_point_matrix((d + c) / 2.0)
    moved = projection @ companion_matrix(theta)
    if not np.all(np.abs(moved - projection) <= 1e-12):
        raise StructuralError("projection failed the fixed-point identity")
    return (d - c) ** 2


@dataclass(frozen=True)
class TailCoefficients:
    """Tail coefficients t_1 .. t_{n_max} of a momentum schedule.

    values[i-1] holds t_i. horizon is the extra recursion depth K beyond
    n_max at which the backward recursion was seeded, chosen so the dropped
    geometric remainder d^(K+1) / (1-d) stays below tolerance.
    """

    values: np.ndarray
    horizon: int
    tolerance: float

    @property
    def n_max(self) -> int:
        return len(self.values)

    def t(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise ValueError(f"tail coefficient index {n} outside 1..{len(self.values)}")
        return float(self.values[n - 1])


def tail_coefficients(
    schedule: MomentumSchedule, n_max: int, tol: float = 1e-12
) -> TailCoefficients:
    """Compute t_n = (1 + t_{n+1}) theta_n for n = 1..n_max by backward recursion.

    The recursion starts K indices past n_max, where K makes the geometric
    remainder d^(K+1)/(1-d) smaller than tol for d = sup theta. Constant
    schedules seed the horizon with the exact limit theta/(1-theta); the sum
    then stays exact along the recursion. Momentum with sup >= 1 has no
    finite tail sum and raises DivergenceError.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, d = schedule.bounds
    if d >= 1.0:
        raise DivergenceError(f"tail coefficients diverge for momentum sup {d} >= 1")
    if d == 0.0:
        return TailCoefficients(values=np.zeros(n_max), horizon=0, tolerance=tol)
    if schedule.is_constant:
        horizon = 0
        seed = d / (1.0 - d)
    else:
        horizon = max(0, math.ceil(math.log(tol * (1.0 - d)) / math.log(d)) - 1)
        while d ** (horizon + 1) / (1.0 - d) >= tol:
            horizon += 1
        seed = 0.0
    top = n_max + horizon
    thetas = schedule.block(1, top)
    values = np.empty(n_max)
    t_next = seed
    for n in range(top, 0, -1):
        t_here = (1.0 + t_next) * thetas[n - 1]
        if n <= n_max:
            values[n - 1] = t_here
        t_next = t_here
    return TailCoefficients(values=values, horizon=horizon, tolerance=tol)


def tail_product(tc: TailCoefficients, n: int) -> ProductState:
    """Rank-one tail product Q_n = [[-t_n, -t_n], [1+t_n, 1+t_n]]."""
    return ProductState(entries=fixed_point_matrix(tc.t(n)), index=n, kind="tail")
