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
  tail_coefficients gives t_n, and fixed_point_matrix(t_n) is Q_n.

Matrices of the rank-one form are exactly the fixed points of right
multiplication by any M(theta); the squared distance of a head product to
that fixed-point family is (d_n - c_n)^2.

head_blocks is the one path to head products. It takes the momentum values
as one array and folds their products in blocks of at most 2^10 rows: one
array pass builds a block's step matrices and checks its momentum range
once, each product is one ``left.dot(step, out=...)`` of the previous
product and the next step matrix, and one pass takes d_n and c_n of the
whole block. The column sums are not checked: every factor comes from a
theta in [0, 1), so they equal 1 but for rounding, which grows with n and
|d_n| past any fixed tolerance. For C-contiguous 2x2 float64 arrays the
ndarray.dot method, np.dot and the matmul ``p @ M(theta)`` call the same
BLAS dgemm with the same arguments, so every bit equals the
one-factor-at-a-time fold; the method skips np.dot's __array_function__
dispatch and np.matmul's ufunc dispatch: about 0.4 us a product against
0.5 us for np.dot and 0.9 us for np.matmul. Since M(theta)[0, 0] = 0 and
M(theta)[1, 0] = 1, the dgemm forms P_n[0, 0] = P_{n-1}[0, 0] * 0 +
P_{n-1}[0, 1] * 1 exactly, so d_n is c_{n-1} bit for bit. P_n is the n-th
row it yields, the last one of head_blocks(thetas[:n]).
The ``nagsa algebra`` table writes each block as it comes, taking each
d_n's text from the c_{n-1} it has printed and formatting each distinct c
and residual of a block once. It holds theta and t_n (16 bytes per row)
plus one block and its text; README's algebra section gives its timings.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .schedules import _PIECE, MomentumSchedule

__all__ = [
    "TailCoefficients",
    "companion_matrix",
    "head_blocks",
    "fixed_point_matrix",
    "tail_coefficients",
]

# bound on the geometric remainder a tail coefficient leaves out
_TAIL_TOL = 1e-12
# longest horizon a tail recursion may walk past n_max, one Python step per
# index: the bound the algebra table's row count has too
_MAX_HORIZON = 1 << 25

# rows per head-product block: 1024 x 32 bytes = 32 KiB of products, and
# one write of the algebra table
_BLOCK = 1 << 10


def companion_matrix(theta: float) -> np.ndarray:
    """Step matrix [[0, -theta], [1, 1+theta]] for one recursion step."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {theta}")
    return np.array([[0.0, -theta], [1.0, 1.0 + theta]])


def head_blocks(
    thetas: Sequence[float] | np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Head products P_1, P_2, ... of a 1-D array or list of momentum
    values, sliced into blocks of at most ``_BLOCK`` rows, each as (p, d, c):
    p the read-only (rows, 2, 2) products, folded by
    P_k = P_{k-1} M(theta_k) with ndarray.dot, which calls the same dgemm
    as ``p @ step`` and so gives its bits, and d and c their coefficients,
    with no negative zero; d[k] is c[k - 1] bit for bit, across blocks too.
    A theta outside [0, 1) raises ValueError after the rows before it have
    come out."""
    values = np.asarray(thetas, dtype=float)
    prev = None
    for lo in range(0, len(values), _BLOCK):
        block = values[lo : lo + _BLOCK]
        bad = np.flatnonzero(~((block >= 0.0) & (block < 1.0)))
        stop = int(bad[0]) if bad.size else len(block)
        if stop:
            # the entries companion_matrix builds, one block at a time
            steps = np.empty((stop, 2, 2))
            steps[:, 0, 0] = 0.0
            steps[:, 0, 1] = -block[:stop]
            steps[:, 1, 0] = 1.0
            steps[:, 1, 1] = 1.0 + block[:stop]
            p = np.empty_like(steps)
            if prev is None:
                p[0] = steps[0]
            else:
                prev.dot(steps[0], out=p[0])
            rows = list(p)
            for left, step, out in zip(rows, steps[1:], rows[1:]):
                left.dot(step, out=out)
            p.setflags(write=False)
            # + 0.0 normalizes negative zero
            yield p, -p[:, 0, 0] + 0.0, -p[:, 0, 1] + 0.0
            prev = p[-1]
        if bad.size:
            raise ValueError(f"momentum must lie in [0, 1), got {float(block[stop])}")


def fixed_point_matrix(t: float) -> np.ndarray:
    """Rank-one fixed point [[-t, -t], [1+t, 1+t]] of right momentum steps."""
    return np.array([[-t, -t], [1.0 + t, 1.0 + t]])


@dataclass(frozen=True)
class TailCoefficients:
    """Tail coefficients t_1 .. t_{n_max} of a momentum schedule.

    values[i-1] holds t_i. horizon is the extra recursion depth K beyond
    n_max at which the backward recursion was seeded, chosen so the dropped
    geometric remainder d^(K+1) / (1-d) stays below 1e-12.
    """

    values: np.ndarray
    horizon: int

    def t(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise ValueError(f"tail coefficient index {n} outside 1..{len(self.values)}")
        return float(self.values[n - 1])


def tail_coefficients(schedule: MomentumSchedule, n_max: int) -> TailCoefficients:
    """Compute t_n = (1 + t_{n+1}) theta_n for n = 1..n_max by backward recursion.

    The recursion starts K indices past n_max, where K makes the geometric
    remainder d^(K+1)/(1-d) smaller than _TAIL_TOL = 1e-12 for d = sup theta. Constant
    schedules seed the horizon with the exact limit theta/(1-theta); the sum
    then stays exact along the recursion. Momentum with sup >= 1 has no
    finite tail sum and raises DivergenceError, and so does a sup so close
    to 1 that K passes _MAX_HORIZON = 2^25, before any step is taken.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lo, d = schedule.bounds
    if d >= 1.0:
        raise DivergenceError(f"tail coefficients diverge for momentum sup {d} >= 1")
    if d == 0.0:
        return TailCoefficients(values=np.zeros(n_max), horizon=0)
    if schedule.is_constant:
        horizon = 0
        seed = d / (1.0 - d)
    else:
        horizon = max(0, math.ceil(math.log(_TAIL_TOL * (1.0 - d)) / math.log(d)) - 1)
        if horizon > _MAX_HORIZON:
            raise DivergenceError(
                f"tail coefficients for momentum sup {d!r} need a horizon of {horizon} "
                f"indices, more than the limit of {_MAX_HORIZON}"
            )
        while d ** (horizon + 1) / (1.0 - d) >= _TAIL_TOL:
            horizon += 1
        seed = 0.0
    top = n_max + horizon
    values = np.empty(n_max)
    t_next = seed
    # theta from block() in pieces of at most _PIECE values, top piece first;
    # only the piece being walked is held
    for start in reversed(range(1, top + 1, _PIECE)):
        count = min(_PIECE, top + 1 - start)
        indices = range(start + count - 1, start - 1, -1)
        for n, theta in zip(indices, reversed(schedule.block(start, count))):
            t_next = (1.0 + t_next) * theta
            if n <= n_max:
                values[n - 1] = t_next
    return TailCoefficients(values=values, horizon=horizon)

