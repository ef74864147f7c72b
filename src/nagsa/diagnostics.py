"""Supermartingale diagnostics for delayed drift recursions.

The convergence arguments behind the momentum solvers all reduce to variants
of one statement: a nonnegative sequence r_n obeying the delayed drift bound

    E[r_{n+2} | F_{n+1}]  <=  (1 + theta_n) r_{n+1} - theta_n r_n
                              - eta_n + beta_n (+ coupling terms)

admits a Lyapunov combination V_n that is a nonnegative supermartingale,
hence converges, dragging r_n along and forcing the slack eta to be summable.
This module builds synthetic ensembles that satisfy such hypotheses by
construction, then checks the advertised conclusions empirically:

* supermartingale_check estimates E[V_{n+1} | F_n] by spawning conditional
  branches from frozen states and flags estimates exceeding V_n by more than
  three standard errors, keeping every probe's row in arrays;
* convergence_check is the finite-sample plateau surrogate for almost-sure
  convergence (max - min over a trailing window), one pass over every path
  of an ensemble;
* summability_check tests whether partial sums stop growing over the final
  decade of indices.

Seven named scenarios cover the drift variants, each with fixed constants
(the delayed ones in one table, _DELAYED); synth_paths lets a caller set only
the negative control, the noise scale sigma and the delayed scenarios'
initial values r1, r2. Synthetic paths use bounded zero-mean noise (uniform
on [-1, 1]) with geometrically decaying scale, so the almost-sure statements
acquire finite-horizon surrogates; every drift inequality holds with
certainty by construction, and initial values that could let a path go
negative (which would need clamping, biasing the test) are refused.

Each recursion and each Lyapunov value is written once. A Recursion holds the
per-step coefficients of r_{i+order} = mean(i, r_i, r_{i+order-1}) + sigma_i w;
an Ensemble holds the realized paths and the arrays of the form
V_n = (1 + t_n) s_{n+1} - t_n s_n + c_n on s = r + h z, which is
[s_n, s_{n+1}] Q_n phi + c_n for momentum_algebra's rank-one tail product
Q_n and any weights phi summing to 1. Paths and conditional branches step
the same mean and evaluate the same form, so with sigma = 0 every branch
reproduces the realized V_{n+1} bit for bit. supermartingale_check branches
a block of paths in one pass: the noise of every (path, step) row comes from
that row's own stream, and the mean, the Lyapunov form and the row
statistics run once over the block. Path and branch streams alike are drawn
in one _rng.word_doubles call per array, as numpy's random() doubles u, and
turned into numpy's uniform(lo, hi) draws by its own formula
lo + (hi - lo) u.

The hot loops are lean without changing a bit. Each Recursion decides once
which of its terms are zero at every step and leaves them out of mean, whose
one-step calls read their coefficients as Python floats; the walk scales all
its noise by sigma in one pass and adds each step's row to the mean in place.
word_doubles draws every stream straight into its row of one array. V is
formed over blocks of whole paths, written into V's rows, so no full-size
s = r + h z is held; a branch block forms V in place on its own noise, and
supermartingale_check runs numpy's mean and std(ddof=1) steps once per
block. At 200 paths x 2000 steps a traced synth_paths peaks at 6.6-7.2 MiB,
of which r and V hold 6.1 MiB. Drawing its 200 path streams of 1999 takes
3.7 ms, and 4,800 branch rows of 200 in blocks of 144 rows 25.4 ms: medians
of 41 calls on a loaded 2-core x86_64, Python 3.11.7, numpy 2.4.6.

The path-sized arrays (draws, noise, time-major states, paths, V) and the
branch blocks are written into a Scratch, and run_lemma_suite gives all its
scenarios the same one, so a suite allocates them once: a whole scenario
check on a warm Scratch traces 0.86-1.2 MiB at 200 x 2000 x 200, against
7.3-7.8 MiB with a Scratch of its own. A report keeps each probe's path,
step, V_n, estimate and z-score in five arrays, 40 B a probe, and
lemma_detail.csv is formatted from them a block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub

import numpy as np

from ._rng import STREAM_BRANCH, STREAM_PATH, seed_words, word_doubles
from .errors import ConfigurationError, DivergenceError
from .momentum_algebra import tail_coefficients
from .schedules import MomentumSchedule

__all__ = [
    "LEMMA_IDS",
    "SummableSequence",
    "CheckReport",
    "relay",
    "Scratch",
    "synth_paths",
    "supermartingale_check",
    "convergence_check",
    "summability_check",
    "run_lemma_check",
    "negative_controls",
]

# Scenario ids, named by the shape of the drift hypothesis they exercise.
LEMMA_IDS = (
    "relay",            # averaged relay tracking a convergent sequence
    "drift",            # delayed drift, varying (nonincreasing) momentum
    "drift_const",      # delayed drift, constant momentum
    "slack",            # delayed drift with summable perturbation and slack
    "coupled",          # drift coupled to a contracting auxiliary sequence
    "first_order",      # single-step drift with decreasing weights
    "coupled_weighted", # coupling driven by weighted increments of a bounded sequence
)


# ---------------------------------------------------------------------------
# summable families with exact tails

@dataclass(frozen=True)
class SummableSequence:
    """Nonnegative sequence whose tail sums have closed forms.

    geometric: scale * ratio^k, with tail sum scale * ratio^n / (1 - ratio) over k >= n
    zero:      identically zero
    Only families with exact tails are accepted so Lyapunov series carry no
    truncation bias. values and tails apply the scalar closed forms term by
    term: np.power differs from the scalar ``**`` in the last bit of about
    one term in twenty at ratios 0.85-0.99.
    """

    family: str
    scale: float = 0.0
    ratio: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "geometric"):
            raise ValueError(f"unknown summable family {self.family!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if self.family == "geometric" and not 0.0 <= self.ratio < 1.0:
            raise ValueError("geometric ratio must lie in [0, 1)")

    def values(self, count: int) -> np.ndarray:
        """The terms k = 1..count."""
        if self.family == "zero" or self.scale == 0.0:
            return np.zeros(count)
        scale, ratio = self.scale, self.ratio
        return np.array([scale * ratio**k for k in range(1, count + 1)])

    def tails(self, count: int) -> np.ndarray:
        """The exact tail sums over k >= n for n = 1..count."""
        if self.family == "zero" or self.scale == 0.0:
            return np.zeros(count)
        scale, ratio = self.scale, self.ratio
        return np.array([scale * ratio**n / (1.0 - ratio) for n in range(1, count + 1)])


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    lemma_id: str
    paths_tested: int
    checks: int = 0
    violations: int = 0
    worst_z: float = -math.inf
    converged_fraction: float | None = None
    eta_plateaued: bool | None = None
    failure_reason: str | None = None
    # one entry per probe, in path-then-step order
    path: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    step: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    v_n: np.ndarray = field(default_factory=lambda: np.empty(0))
    estimate: np.ndarray = field(default_factory=lambda: np.empty(0))
    z: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def violation_rate(self) -> float:
        return self.violations / self.checks if self.checks else 0.0

    @property
    def passed(self) -> bool:
        """False on a failure reason, a violation rate of 0.01 or more, a
        converged fraction below 0.99 or a slack that did not plateau. Below
        100 checks one 3-standard-error excursion fails a valid scenario: at
        length 2000 (up to 24 probes per path) that is 4 paths or fewer, with
        69 checks at 3 paths, 92-96 at 4 and 115-120 at 5."""
        if self.failure_reason is not None:
            return False
        if self.checks and self.violation_rate >= 0.01:
            return False
        if self.converged_fraction is not None and self.converged_fraction < 0.99:
            return False
        if self.eta_plateaued is False:
            return False
        return True


# ---------------------------------------------------------------------------
# the Lyapunov form and the averaged relay

def _lyapunov_form(t, s_n, s_next, c, out=None):
    """V_n = (1 + t_n) s_{n+1} - t_n s_n + c_n, the one Lyapunov form of
    synthetic paths and their branches (t = 0 is single-step). With `out`
    (which may be s_next or s_n itself) V is written there, and the only
    temporary of its size is t_n s_n. Either way the same operations run in
    the same order, so V has the same bits (but for a NaN's sign: an
    in-place add may take the NaN of either operand)."""
    lag = t * s_n
    out = np.multiply(1.0 + t, s_next, out=out)
    out -= lag
    out += c
    return out


def relay(
    thetas: np.ndarray, v_path: np.ndarray, r0: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Averaged relay r_{n+1} = (1 - theta_n) r_n + theta_n V_{n+1}.

    Returns r_1..r_L with r_1 = r0, driven by V_2..V_L of the given path. A
    leading path axis is stepped in one pass: v_path of shape (P, L), r0 of
    shape (P,) and thetas of shape (P, L - 1) give the P relays at once, each
    bit for bit its 1-D call. With `out`, an array of v_path's shape, the
    relay is written there.
    """
    thetas = np.asarray(thetas, dtype=float)
    v_path = np.asarray(v_path, dtype=float)
    length = v_path.shape[-1]
    if length < 1:
        raise ValueError("relay needs a non-empty driving path")
    if thetas.shape[-1] < length - 1:
        raise ValueError(f"need {length - 1} momentum values, got {thetas.shape[-1]}")
    thetas = thetas[..., : length - 1]
    if np.any((thetas < 0) | (thetas >= 1)):
        raise ValueError("relay momentum values must lie in [0, 1)")
    if out is not None and out.shape != v_path.shape:
        raise ValueError(f"out has shape {out.shape}, the driving path {v_path.shape}")
    r = np.empty(v_path.shape) if out is None else out
    r[..., 0] = r0
    for i in range(length - 1):
        r[..., i + 1] = (1.0 - thetas[..., i]) * r[..., i] + thetas[..., i] * v_path[..., i + 1]
    return r


# ---------------------------------------------------------------------------
# synthetic ensembles

@dataclass(frozen=True)
class _Delayed:
    """Constants of a delayed drift scenario: its momentum schedule, the
    slack eta subtracted and the perturbation beta added at each step, and
    the weight h of the auxiliary path z. z starts at z_1 = z_2 = 1, contracts
    by _ZETA per step and is driven down by a_ratio^k (rho_k - rho_{k-1}) with
    rho_k = rho_limit (1 - rho_ratio^k), where drive = (a_ratio, rho_limit,
    rho_ratio); (0, 0, 0) is no drive."""

    momentum: MomentumSchedule
    eta: SummableSequence = SummableSequence("zero")
    beta: SummableSequence = SummableSequence("zero")
    h: float = 0.0
    drive: tuple[float, float, float] = (0.0, 0.0, 0.0)


_DELAYED = {
    "drift": _Delayed(MomentumSchedule("harmonic", s=3.0)),
    "drift_const": _Delayed(MomentumSchedule("constant", theta=0.5)),
    "slack": _Delayed(
        MomentumSchedule("harmonic", s=3.0),
        eta=SummableSequence("geometric", scale=1e-3, ratio=0.97),
        beta=SummableSequence("geometric", scale=1e-3, ratio=0.97),
    ),
    "coupled": _Delayed(
        MomentumSchedule("constant", theta=0.5),
        eta=SummableSequence("geometric", scale=1e-4, ratio=0.97),
        h=1.0,
    ),
    "coupled_weighted": _Delayed(
        MomentumSchedule("constant", theta=0.5),
        eta=SummableSequence("geometric", scale=1e-4, ratio=0.97),
        beta=SummableSequence("geometric", scale=1e-5, ratio=0.97),
        h=1.0,
        drive=(0.97, 0.05, 0.85),
    ),
}
_ZETA = 0.1

# entries per block of the passes over whole paths (2^15 x 8 bytes = 256 KiB):
# 16 paths of V at length 2000 in synth_paths, and the branch samples of six
# paths at 24 probes x 200 branches in supermartingale_check
_BLOCK_ENTRIES = 1 << 15


class Scratch:
    """The arrays a scenario's paths, V and branch blocks are written into.

    Two hold paths x length doubles each: "a" takes the walk's draws, then
    its time-major states, then V; "b" takes the noise, then the paths r.
    "block" takes supermartingale_check's branch samples, one block at a
    time, and grows when a block needs more. An array handed out is a view
    that the next request for the same buffer overwrites, so an ensemble
    built on a Scratch holds only until the next synth_paths on it.

    run_lemma_suite passes one Scratch to all its scenarios, so the suite
    allocates its path-sized arrays once. Allocated and freed per scenario,
    they came from the heap (glibc serves them there once the first one has
    been freed), and whether a small long-lived allocation had split the
    freed space decided whether the heap grew by two of them: a suite's
    resident peak read about 56.7 or 62.3 MB from one run to the next.
    """

    def __init__(self, paths: int, length: int):
        self.paths, self.length = paths, length
        self._flat = {"a": np.empty(paths * length), "b": np.empty(paths * length)}
        self._flat["block"] = np.empty(0)

    def take(self, name: str, *shape: int) -> np.ndarray:
        """An uninitialised C-contiguous float64 array of `shape` over
        buffer `name`; "a" and "b" hold at most paths x length entries."""
        size = math.prod(shape)
        flat = self._flat[name]
        if size > flat.size:
            if name != "block":
                raise ValueError(
                    f"scratch {name!r} holds {self.paths} x {self.length} entries, not {shape}"
                )
            self._flat[name] = flat = np.empty(size)
        return flat[:size].reshape(shape)


# the params keys synth_paths accepts, with their defaults; every other
# constant of a scenario is fixed by _DELAYED or by its _build_* function
_PARAMS = {
    "relay": {"control": None},
    "first_order": {"control": None, "sigma": 1e-3},
    **dict.fromkeys(_DELAYED, {"control": None, "sigma": 1e-3, "r1": None, "r2": None}),
}


@dataclass(frozen=True)
class Recursion:
    """One step of a synthetic drift recursion, shared by paths and branches.

    r_{i+order} = mean(i, r_i, r_{i+order-1}) + sigma_i w with w uniform on
    [-1, 1] (0-based i). order 2 is the delayed drift recursion; order 1 with
    theta = beta = 0 is the single-step one, whose two states coincide.

    mean leaves out what is zero at every step, decided once per recursion:
    each of beta, eta and the coupling that is, and the lag terms
    (1 + theta) curr - theta prev -> curr when order is 1 and theta is.
    Leaving out x + 0.0 or x - 0.0 changes no bit unless x is -0.0, and no
    state is: paths start positive or at +0.0 (r1 and r2 are normalized)
    and every step adds sigma w. (The lag is left out only on the
    single-step recursion, whose states stay finite, so 0 * prev is never
    0 * inf.)
    """

    order: int
    thetas: np.ndarray
    beta: np.ndarray
    eta: np.ndarray     # subtracted drive; a_i (eta_{i+1} - eta_i) single-step
    couple: np.ndarray  # added coupling; the upward drift of a drift control
    sigma: np.ndarray

    def __post_init__(self):
        lag = self.order != 1 or self.thetas.any()
        lags = (1.0 + self.thetas, self.thetas) if lag else ()
        terms = [
            (op, values)
            for op, values in ((add, self.beta), (sub, self.eta), (add, self.couple))
            if values.any()
        ]
        # [scalar steps, array steps]: coefficients as Python floats for one
        # step, as arrays to gather from for many
        plans = [
            ([a.tolist() for a in lags], [(op, v.tolist()) for op, v in terms]),
            (list(lags), terms),
        ]
        object.__setattr__(self, "_plans", plans)

    def mean(self, i, prev, curr):
        """(1 + theta_i) curr - theta_i prev + beta_i - eta_i + couple_i,
        left to right, without the terms that are zero at every step; i is
        one step or an array of steps, broadcast against prev and curr."""
        lags, terms = self._plans[isinstance(i, np.ndarray)]
        if lags:
            one_plus, theta = lags
            m = one_plus[i] * curr - theta[i] * prev
        else:
            m = curr
        for op, values in terms:
            m = op(m, values[i])
        return m


@dataclass(frozen=True)
class Ensemble:
    """Realized synthetic paths and the arrays they were built from.

    r has shape (paths, length); v holds V_n per path for n = v_offset+1 ..
    v_offset+v.shape[1] (1-based), the Lyapunov form with per-n arrays t and
    c on s = r + h z. v is None when the momentum values admit no finite tail
    sum (failure_reason says so). recursion is None for the relay, whose
    driver V is deterministic.
    """

    lemma_id: str
    seed: int
    r: np.ndarray
    v: np.ndarray | None
    v_offset: int = 0
    recursion: Recursion | None = None
    t: np.ndarray | None = None
    c: np.ndarray | None = None
    h: float = 0.0
    z: np.ndarray | None = None    # auxiliary path, zero without coupling
    eta: np.ndarray | None = None  # slack sequence when the scenario asserts summability
    failure_reason: str | None = None

    @property
    def paths(self) -> int:
        return self.r.shape[0]

    @property
    def length(self) -> int:
        return self.r.shape[1]

    @property
    def theta_valid(self) -> bool:
        return self.failure_reason is None

    def branch_values(
        self,
        p,
        steps: np.ndarray,
        branches: int,
        words: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """`branches` draws of V_{n+1} from the frozen state at (p, n), one row
        per entry of the 1-D array `steps`; p is one path index or an array
        of them, broadcast against `steps`, so one call can probe several
        paths. Each row is drawn from the (seed, path, step) branch stream
        seeded from its own key, so probe order never changes results; the
        recursion mean and the Lyapunov form are evaluated once over all
        rows. `words` holds the rows' seed words as seed_words gives them for
        those keys (supermartingale_check seeds all its probes in one pass);
        without it they are seeded here. With `out`, a C-contiguous float64
        array of shape (len(steps), branches), the values are formed there."""
        if self.v is None:
            raise DivergenceError("no Lyapunov series for momentum >= 1")
        steps = np.asarray(steps)
        if steps.ndim != 1:
            raise ValueError("branch steps must be a 1-D array")
        p, steps = np.broadcast_arrays(p, steps)
        if steps.ndim != 1:
            raise ValueError("branch paths must be one index or a 1-D array")
        j = steps - self.v_offset  # V_{n+1} is v[p, j]
        outside = (j < 1) | (j >= self.v.shape[1])
        if outside.any():
            lo, hi = self.v_offset + 1, self.v_offset + self.v.shape[1] - 1
            raise ValueError(f"branch step {steps[outside][0]} outside {lo}..{hi}")
        rec = self.recursion
        if out is None:
            out = np.empty((len(steps), branches))
        if rec is None:
            out[...] = self.v[p, j][:, None]
            return out
        if words is None:
            words = seed_words(_stream_keys(STREAM_BRANCH, self.seed, p, steps))
        elif words.shape != (len(steps), 4):
            raise ValueError(f"need seed words of shape ({len(steps)}, 4), got {words.shape}")
        w = _uniform(word_doubles(words, branches, out=out), -1.0, 1.0)
        q = j + 1  # the redrawn states r_q
        i = q - rec.order
        # s_{n+1} = (mean + sigma w) + h z, formed in place on the noise (h z
        # left out with h = 0, as in _path_form), and V in place on s_{n+1}
        w *= rec.sigma[i][:, None]
        w += rec.mean(i, self.r[p, i], self.r[p, q - 1])[:, None]
        if self.h:
            w += (self.h * self.z[q])[:, None]
        s_n = self.r[p, q - 1] + self.h * self.z[q - 1]
        return _lyapunov_form(self.t[j][:, None], s_n[:, None], w, self.c[j][:, None], out=w)


def _stream_keys(tag: int, seed: int, *columns) -> np.ndarray:
    """One key (tag, seed, *columns) per row for seed_words, the columns
    broadcast together; a seed past int64 is kept exact in an object array."""
    columns = np.broadcast_arrays(*columns)
    keys = np.empty((columns[0].size, 2 + len(columns)), dtype=np.int64 if seed < 2**63 else object)
    keys[:, 0], keys[:, 1] = tag, seed
    for k, col in enumerate(columns):
        keys[:, 2 + k] = col.ravel()
    return keys


def _uniform(u: np.ndarray, lo, hi) -> np.ndarray:
    """numpy's Generator.uniform(lo, hi) formed in place from its random()
    doubles u: lo + (hi - lo) u, rounded as numpy rounds it. lo and hi may be
    arrays that broadcast against u."""
    u *= hi - lo
    u += lo
    return u


def _walk(
    rec: Recursion, seed: int, paths: int, length: int, init, scratch: Scratch | None = None
) -> np.ndarray:
    """Paths of the recursion on the per-path streams, shape (paths, length),
    in scratch's "b" (a new Scratch's by default). Each stream gives one
    uniform [0, 1) spread, from which init(spreads) sets the first `order`
    columns, then the uniform [-1, 1) noise of every step. The walk runs
    time-major, on (steps, paths) noise and (length, paths) states, so each
    step reads and writes contiguous rows; the draws, the noise, the states
    and the paths take the two path-sized buffers in turn, so no third array
    of their size is held."""
    steps = length - rec.order
    if scratch is None:
        scratch = Scratch(paths, length)
    words = seed_words(_stream_keys(STREAM_PATH, seed, np.arange(paths)))
    u = word_doubles(words, 1 + steps, out=scratch.take("a", paths, 1 + steps))
    spreads = u[:, 0].copy()
    noise = scratch.take("b", steps, paths)
    np.copyto(noise, u[:, 1:].T)
    noise = _uniform(noise, -1.0, 1.0)
    noise *= rec.sigma[:steps, None]  # sigma_i w for every step in one pass
    r = scratch.take("a", length, paths)  # over the draws, now copied out
    r[: rec.order] = np.broadcast_to(init(spreads), (paths, rec.order)).T
    rows = list(r)
    for i in range(steps):
        q = i + rec.order
        np.add(rec.mean(i, rows[i], rows[q - 1]), noise[i], out=rows[q])
    del rows
    out = scratch.take("b", paths, length)  # over the noise, every step taken
    np.copyto(out, r.T)
    return out


def _path_form(
    r: np.ndarray, h: float, z: np.ndarray, t: np.ndarray, c: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """V = _lyapunov_form on s = r + h z for every path, formed over blocks of
    whole paths of at most _BLOCK_ENTRIES entries (one path at least) and
    written into the rows of v, shape (paths, length - 1), so no full-size
    s or temporary is held. With h = 0, s is r itself: r + 0.0 is r for
    every state but -0.0, which no path reaches."""
    paths, length = r.shape
    block = max(1, _BLOCK_ENTRIES // length)
    for first in range(0, paths, block):
        s = r[first : first + block]
        if h:
            s = s + h * z
        _lyapunov_form(t, s[:, :-1], s[:, 1:], c, out=v[first : first + block])
    return v


def _noise_scales(sigma: float, length: int) -> np.ndarray:
    """sigma 0.99^k for k = 1..length, the noise scale of a synthetic path."""
    return sigma * 0.99 ** np.arange(1, length + 1, dtype=float)


def _build_delayed(
    lemma_id: str, cfg: dict, seed: int, paths: int, length: int, scratch: Scratch
) -> Ensemble:
    scn = _DELAYED[lemma_id]
    control = cfg["control"]
    theta_valid = control != "theta"
    # momentum values theta_1..theta_{L}
    thetas = scn.momentum.values(length) if theta_valid else np.full(length, 1.05)
    # a persistent upward drift breaks the hypothesis
    eta = np.full(length, -1e-3) if control == "drift" else scn.eta.values(length)

    # deterministic auxiliary path z and its downward drive
    z = np.zeros(length)
    if scn.h > 0.0:
        a_ratio, rho_limit, rho_ratio = scn.drive
        a_weights = a_ratio ** np.arange(1, length + 1, dtype=float)
        rho_incr = rho_limit * (1.0 - rho_ratio) * rho_ratio ** np.arange(0, length, dtype=float)
        drive = a_weights * rho_incr
        z[0] = z[1] = 1.0
        for i in range(length - 2):
            z[i + 2] = (1.0 - _ZETA) * z[i + 1] - drive[i]

    # nonnegativity floor: worst-case downward forcing accumulated over the run
    down = cfg["sigma"] + float(np.max(np.maximum(eta, 0.0), initial=0.0))
    d_sup = scn.momentum.bounds[1]
    floor = length * down * (1.0 + d_sup) / (1.0 - d_sup) if theta_valid else 0.0
    r1, r2 = cfg["r1"], cfg["r2"]
    if (r1 is None) != (r2 is None):
        raise ConfigurationError("give both r1 and r2 or neither")
    if r1 is not None:
        r1, r2 = r1 + 0.0, r2 + 0.0  # no path starts at -0.0
        if min(r1, r2) < floor:
            raise ConfigurationError(
                f"initial values below the nonnegativity floor {floor:g}; "
                "clamping would bias the check, so this is refused"
            )

    def init(spreads: np.ndarray) -> np.ndarray:
        if r1 is not None:
            return np.array([r1, r2])
        start = (1.05 * floor + 1.0) * (1.0 + 0.5 * spreads)
        # a positive initial increment keeps the theta control's blowup one-sided
        return np.column_stack([start, start if theta_valid else start + 1.0])

    rec = Recursion(
        order=2,
        thetas=thetas,
        beta=scn.beta.values(length),
        eta=eta,
        couple=scn.h * _ZETA * z[1:],
        sigma=_noise_scales(cfg["sigma"], length),
    )
    r = _walk(rec, seed, paths, length, init, scratch)
    if not theta_valid:
        failure = "momentum at or above 1 admits no finite tail sum"
        return Ensemble(lemma_id, seed, r, None, recursion=rec, failure_reason=failure)
    if np.any(r < 0):
        raise ConfigurationError("path went negative despite the floor; widen it")

    # Lyapunov series on s = r + h z with exact tail bookkeeping
    t = tail_coefficients(scn.momentum, length).values[: length - 1]
    c = 2.0 * (scn.beta.tails(length - 1) + scn.h * thetas[0] * z[: length - 1])
    v = _path_form(r, scn.h, z, t, c, scratch.take("a", paths, length - 1))
    # a scenario with slack asserts that the slack is summable
    asserted = scn.eta.family != "zero" and control is None
    return Ensemble(
        lemma_id, seed, r, v, recursion=rec, t=t, c=c, h=scn.h, z=z, eta=eta if asserted else None
    )


def _build_first_order(
    cfg: dict, seed: int, paths: int, length: int, scratch: Scratch
) -> Ensemble:
    a = 0.97 ** np.arange(1, length + 1, dtype=float)  # a_1..a_L, decreasing
    etaseq = 2.0 * (1.0 - 0.85 ** np.arange(1, length + 1))
    sigma = _noise_scales(cfg["sigma"], length)
    drive = a[:-1] * np.diff(etaseq)
    r_start = 1.1 * (float(np.sum(drive)) + float(np.sum(sigma))) + 1.0
    zeros = np.zeros(length)
    drift = 1e-3 if cfg["control"] == "drift" else 0.0
    rec = Recursion(
        order=1, thetas=zeros, beta=zeros, eta=drive, couple=np.full(length - 1, drift), sigma=sigma
    )
    def init(spreads: np.ndarray) -> np.ndarray:
        return (r_start * (1.0 + 0.5 * spreads))[:, None]

    r = _walk(rec, seed, paths, length, init, scratch)
    if cfg["control"] is None and np.any(r < 0):
        raise ConfigurationError("path went negative despite the floor; widen it")
    # V_n = r_n + a_{n-1} eta_n for n = 2..L: the form with t = 0 and no z
    t, c = zeros[1:], a[: length - 1] * etaseq[1:]
    v = _path_form(r, 0.0, zeros, t, c, scratch.take("a", paths, length - 1))
    return Ensemble("first_order", seed, r, v, v_offset=1, recursion=rec, t=t, c=c, z=zeros)


def _build_relay(cfg: dict, seed: int, paths: int, length: int, scratch: Scratch) -> Ensemble:
    # each path stream draws theta, v_inf, amp, decay and r0, in that order
    lo = np.array([0.1, 0.5, 0.1, 0.8, 0.0])
    hi = np.array([0.9, 2.0, 1.0, 0.95, 3.0])
    words = seed_words(_stream_keys(STREAM_PATH, seed, np.arange(paths)))
    thetas, v_inf, amp, decay, r0 = _uniform(word_doubles(words, 5), lo, hi).T
    ns = np.arange(1, length + 1, dtype=float)
    # v_inf + amp decay^n (or v_inf + 0.002 n, which drifts and never
    # converges) formed in place; + and * commute exactly, so the bits are
    # those of the written-out expression
    v_all = scratch.take("a", paths, length)
    if cfg["control"] == "drift":
        np.add(v_inf[:, None], 0.002 * ns, out=v_all)
    else:
        np.power(decay[:, None], ns, out=v_all)
        v_all *= amp[:, None]
        v_all += v_inf[:, None]
    thetas = np.broadcast_to(thetas[:, None], (paths, length - 1))
    r = relay(thetas, v_all, r0, out=scratch.take("b", paths, length))
    return Ensemble("relay", seed, r, v_all[:, : length - 1])


def synth_paths(
    lemma_id: str,
    params: dict | None,
    seed: int,
    paths: int,
    length: int,
    scratch: Scratch | None = None,
) -> Ensemble:
    """Build a synthetic ensemble satisfying the named drift hypothesis.

    Each scenario's constants are fixed (_DELAYED, _build_relay and
    _build_first_order); params sets only these keys:
    * control, every scenario: "drift", or "theta" for the five delayed
      ones, builds the deliberately broken variant (default None);
    * sigma, every scenario but the relay: step k draws its noise as
      sigma 0.99^k times a uniform [-1, 1] value (default 1e-3);
    * r1 and r2, the five delayed scenarios: both or neither, the shared
      first two values of every path, refused below the nonnegativity floor
      (default: drawn per path above the floor).
    Any other key is refused with ConfigurationError.

    The ensemble's r and v are written into `scratch` (a new one for these
    paths by default), so they hold until the next synth_paths on it.
    """
    if lemma_id not in LEMMA_IDS:
        raise ConfigurationError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    if paths < 1:
        raise ValueError("need at least one path")
    if length < 4:
        raise ValueError("need path length >= 4")
    cfg = dict(_PARAMS[lemma_id])
    unknown = set(params or {}) - set(cfg)
    if unknown:
        raise ConfigurationError(
            f"unknown scenario parameters {sorted(unknown)} for {lemma_id!r} "
            f"(accepted: {', '.join(cfg)})"
        )
    cfg.update(params or {})
    if cfg["control"] not in (None, *negative_controls(lemma_id)):
        raise ConfigurationError(f"unknown negative control {cfg['control']!r}")
    if scratch is None:
        scratch = Scratch(paths, length)
    if lemma_id in _DELAYED:
        return _build_delayed(lemma_id, cfg, seed, paths, length, scratch)
    if lemma_id == "first_order":
        return _build_first_order(cfg, seed, paths, length, scratch)
    return _build_relay(cfg, seed, paths, length, scratch)


def negative_controls(lemma_id: str) -> tuple[str, ...]:
    """Control modes that must produce failing reports for this scenario."""
    if lemma_id in _DELAYED:
        return ("drift", "theta")
    return ("drift",)


# ---------------------------------------------------------------------------
# checks

# probed steps per path of supermartingale_check (fewer when the rounded
# geometric steps repeat), and the z-score above which a probe is a violation
_PROBES = 24
_TOL_Z = 3.0


def supermartingale_check(
    ensemble: Ensemble, branches: int = 200, scratch: Scratch | None = None
) -> CheckReport:
    """Estimate E[V_{n+1} | F_n] by conditional branching and flag violations.

    At each probed (path, step) of every path the frozen state is branched
    `branches` times; the estimate exceeding V_n by more than _TOL_Z
    standard errors counts as a violation. Branches whose spread is within
    rounding of zero are treated as deterministic: they violate only when
    the next value exceeds V_n beyond rounding (a degenerate standard error
    would otherwise turn summation noise into huge z-scores). Fewer than 30
    branches have no statistical power and are refused.

    The report keeps one entry per probe in its path, step, v_n, estimate
    and z arrays, in path-then-step order. The seed words of every (path,
    step) branch stream come from one seed_words pass over their keys. The
    probes are then checked in blocks of as many whole paths as fit in
    _BLOCK_ENTRIES branch samples (one path when a single path needs more):
    one branch_values call gives the block's rows, and the estimates,
    standard errors and z-scores are row-wise array operations written into
    the report's arrays. Every row is still drawn from its own stream,
    seeded from its own (seed, path, step) key, so no probe's draws depend
    on the others, on the block size or on how many paths the ensemble has,
    and every entry equals that of one probe at a time bit for bit. Every
    block is formed in one array, scratch's "block" when a Scratch is given.
    """
    if branches < 30:
        raise ValueError("need at least 30 branches for a meaningful standard error")
    if not ensemble.theta_valid:
        return CheckReport(
            ensemble.lemma_id, ensemble.paths, failure_reason=ensemble.failure_reason
        )

    lo = 1 + ensemble.v_offset
    hi = ensemble.v_offset + ensemble.v.shape[1] - 1  # V_{n+1} must exist
    probe_steps = np.unique(np.round(np.geomspace(lo, hi, _PROBES)).astype(int))
    path = np.repeat(np.arange(ensemble.paths), len(probe_steps))
    step = np.tile(probe_steps, ensemble.paths)
    v_n = ensemble.v[path, step - 1 - ensemble.v_offset]
    estimate, z = np.empty(len(v_n)), np.empty(len(v_n))
    words = seed_words(_stream_keys(STREAM_BRANCH, ensemble.seed, path, step))
    block = len(probe_steps) * max(1, _BLOCK_ENTRIES // (len(probe_steps) * branches))
    if scratch is None:
        scratch = Scratch(0, 0)
    block_values = scratch.take("block", min(block, len(v_n)), branches)
    for first in range(0, len(v_n), block):
        rows = slice(first, min(first + block, len(v_n)))
        out = block_values[: rows.stop - first]
        samples = ensemble.branch_values(path[rows], step[rows], branches, words[rows], out=out)
        # numpy's mean and std(ddof=1) steps, each run once: the row sums over
        # the count give the estimate, the centred squares the variance
        est = np.divide(samples.sum(axis=1), branches, out=estimate[rows])
        samples -= est[:, None]
        samples *= samples
        se = np.sqrt(samples.sum(axis=1) / (branches - 1)) / math.sqrt(branches)
        diff = est - v_n[rows]
        rounding = 1e-12 * np.maximum(1.0, np.abs(v_n[rows]))
        # deterministic branches read inf or 0, a violation exactly when
        # z > _TOL_Z (> 0)
        z[rows] = np.where(diff > rounding, math.inf, 0.0)
        np.divide(diff, se, out=z[rows], where=se > rounding)
    return CheckReport(
        ensemble.lemma_id,
        ensemble.paths,
        checks=len(z),
        violations=int(np.count_nonzero(z > _TOL_Z)),
        worst_z=float(z.max(initial=-math.inf)),
        path=path,
        step=step,
        v_n=v_n,
        estimate=estimate,
        z=z,
    )


def convergence_check(
    x: np.ndarray, window: int | None = None, tol: float = 1e-4
) -> bool | np.ndarray:
    """Finite-sample plateau test: max - min over the trailing window < tol,
    False for a series with a non-finite entry. A 1-D series gives a bool;
    a 2-D array is tested row by row in one pass and gives a bool array."""
    x = np.asarray(x, dtype=float)
    length = x.shape[-1]
    if window is None:
        window = max(100, length // 10)
    if window < 2 or window > length:
        raise ValueError(f"window {window} outside 2..{length}")
    tail = x[..., -window:]
    with np.errstate(invalid="ignore"):  # inf - inf; isfinite fails such a row
        plateau = tail.max(axis=-1) - tail.min(axis=-1) < tol
    converged = np.isfinite(x).all(axis=-1) & plateau
    return bool(converged) if converged.ndim == 0 else converged


# growth of the partial sums over the final decade that still counts as a plateau
_PLATEAU_TOL = 1e-3


def summability_check(eta: np.ndarray) -> bool:
    """True when the partial sums grow less than _PLATEAU_TOL = 1e-3 over the
    final decade of indices (S_L - S_{L/10} < 1e-3)."""
    eta = np.asarray(eta, dtype=float)
    if len(eta) < 10:
        raise ValueError("need at least 10 terms to form a decade")
    if np.any(eta < 0):
        raise ValueError("summability check expects non-negative terms")
    sums = np.cumsum(eta)
    return bool(sums[-1] - sums[len(eta) // 10 - 1] < _PLATEAU_TOL)


def run_lemma_check(
    lemma_id: str,
    paths: int = 200,
    length: int = 2000,
    branches: int = 200,
    seed: int = 1,
    params: dict | None = None,
    scratch: Scratch | None = None,
) -> CheckReport:
    """Full pipeline for one scenario: build, branch-check, convergence,
    summability, each check at its fixed tolerance. The ensemble is built
    and checked on `scratch` (see Scratch), a new one by default."""
    if scratch is None:
        scratch = Scratch(paths, length)
    ensemble = synth_paths(lemma_id, params, seed, paths, length, scratch)
    report = supermartingale_check(ensemble, branches, scratch)
    converged = int(np.count_nonzero(convergence_check(ensemble.r)))
    report.converged_fraction = converged / ensemble.paths
    if ensemble.eta is not None:
        report.eta_plateaued = summability_check(ensemble.eta)
    return report
