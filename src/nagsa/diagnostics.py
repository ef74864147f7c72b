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
  tol_z standard errors;
* convergence_check is the finite-sample plateau surrogate for almost-sure
  convergence (max - min over a trailing window);
* summability_check tests whether partial sums stop growing over the final
  decade of indices.

Seven named scenarios cover the drift variants. Synthetic paths use bounded
zero-mean noise (uniform on [-1, 1]) with geometrically decaying scale, so
the almost-sure statements acquire finite-horizon surrogates; every drift
inequality holds with certainty by construction, and parameter sets that
could push a path negative (which would need clamping, biasing the test)
are refused at configuration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_BRANCH, STREAM_PATH, make_generator
from .errors import ConfigurationError, DivergenceError
from .momentum_algebra import TailCoefficients, tail_coefficients
from .schedules import MomentumSchedule, constant_momentum, harmonic_momentum

__all__ = [
    "LEMMA_IDS",
    "SummableSequence",
    "zero_sequence",
    "geometric_sequence",
    "power_sequence",
    "PairSeries",
    "LyapunovSeries",
    "CheckReport",
    "pair_series_from_trace",
    "lyapunov",
    "prox_lyapunov",
    "relay",
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

    geometric: scale * ratio^k, tail(n) = scale * ratio^n / (1 - ratio)
    power:     scale / k^exponent (exponent > 1), tail via the Hurwitz zeta
    zero:      identically zero
    Only families with exact tails are accepted so Lyapunov series carry no
    truncation bias.
    """

    family: str
    scale: float = 0.0
    ratio: float = 0.0
    exponent: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "geometric", "power"):
            raise ValueError(f"unknown summable family {self.family!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if self.family == "geometric" and not 0.0 <= self.ratio < 1.0:
            raise ValueError("geometric ratio must lie in [0, 1)")
        if self.family == "power" and not self.exponent > 1.0:
            raise ValueError("power family needs exponent > 1 for a finite tail")

    def value(self, k: int) -> float:
        if k < 1:
            raise ValueError("index must be >= 1")
        if self.family == "zero" or self.scale == 0.0:
            return 0.0
        if self.family == "geometric":
            return self.scale * self.ratio**k
        return self.scale / k**self.exponent

    def values(self, count: int) -> np.ndarray:
        return np.array([self.value(k) for k in range(1, count + 1)])

    def tail(self, n: int) -> float:
        """Exact sum over k >= n."""
        if n < 1:
            raise ValueError("index must be >= 1")
        if self.family == "zero" or self.scale == 0.0:
            return 0.0
        if self.family == "geometric":
            return self.scale * self.ratio**n / (1.0 - self.ratio)
        # scipy costs about 0.2 s and 25 MB to import, and only this tail
        # needs it, so the import waits for the first power-family tail
        from scipy.special import zeta

        return self.scale * float(zeta(self.exponent, n))

    def tails(self, count: int) -> np.ndarray:
        return np.array([self.tail(n) for n in range(1, count + 1)])


def zero_sequence() -> SummableSequence:
    return SummableSequence("zero")


def geometric_sequence(ratio: float, scale: float = 1.0) -> SummableSequence:
    return SummableSequence("geometric", scale=scale, ratio=ratio)


def power_sequence(exponent: float, scale: float = 1.0) -> SummableSequence:
    return SummableSequence("power", scale=scale, exponent=exponent)


# ---------------------------------------------------------------------------
# series containers

@dataclass(frozen=True)
class PairSeries:
    """Aligned nonnegative series (r_k, z_k) with the momentum values used."""

    r: np.ndarray
    z: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        if not (len(self.r) == len(self.z) == len(self.thetas)):
            raise ValueError("r, z, thetas must have equal lengths")
        if np.any(self.r < 0) or np.any(self.z < 0):
            raise ValueError("pair series must be non-negative")


@dataclass(frozen=True)
class LyapunovSeries:
    """V_1..V_{L-1} plus the ingredients it was built from."""

    v: np.ndarray
    t: TailCoefficients
    phi: tuple[float, float]
    beta_tail: np.ndarray


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
    details: list[tuple[str, int, int, float, float, float]] = field(default_factory=list)

    @property
    def violation_rate(self) -> float:
        return self.violations / self.checks if self.checks else 0.0

    @property
    def passed(self) -> bool:
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
# Lyapunov constructions

def pair_series_from_trace(trace, inst) -> PairSeries:
    """Square a dense trace's distances and increments into a pair series.

    Requires consecutively indexed checkpoints: the drift recursions pair
    adjacent iterates, so geometric-stride traces are rejected rather than
    silently pairing non-adjacent ones.
    """
    if inst.reference_optimum is None:
        raise ConfigurationError("instance has no reference optimum")
    if trace.diverged:
        raise ValueError("pair series requires a non-diverged trace")
    ks = np.array([cp.k for cp in trace.checkpoints])
    if len(ks) < 2 or np.any(np.diff(ks) != 1):
        raise ValueError("pair series requires consecutively indexed checkpoints")
    r = np.array([cp.dist**2 for cp in trace.checkpoints])
    z = np.array([cp.increment**2 for cp in trace.checkpoints])
    thetas = np.array([cp.theta for cp in trace.checkpoints])
    return PairSeries(r=r, z=z, thetas=thetas)


def _check_phi(phi: tuple[float, float]) -> tuple[float, float]:
    p1, p2 = float(phi[0]), float(phi[1])
    if p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-12:
        raise ValueError("phi must be a nonnegative pair summing to 1")
    return p1, p2


def lyapunov(
    series: PairSeries,
    t: TailCoefficients,
    phi: tuple[float, float] = (0.5, 0.5),
    betas: SummableSequence | None = None,
) -> LyapunovSeries:
    """Rank-one Lyapunov combination of a pair series.

    V_n = (phi_1 + phi_2) ((1 + t_n) r_{n+1} - t_n r_n) + 2 sum_{k>=n} beta_k
    for n = 1..L-1, the expansion of [r_n, r_{n+1}] Q_n phi with Q_n the
    rank-one tail product. The tail coefficients must cover the series and
    match its momentum values through t_n = (1 + t_{n+1}) theta_n.
    """
    p1, p2 = _check_phi(phi)
    betas = betas if betas is not None else zero_sequence()
    r = series.r
    length = len(r)
    if length < 2:
        raise ValueError("need at least two entries")
    if t.n_max < length:
        raise ValueError(f"tail coefficients cover {t.n_max} < series length {length}")
    tv = t.values[:length]
    residual = np.abs(tv[:-1] - (1.0 + tv[1:]) * series.thetas[:-1])
    if np.any(residual > 1e-9):
        raise ValueError("tail coefficients do not match the series momentum values")
    beta_tail = betas.tails(length - 1)
    v = (p1 + p2) * ((1.0 + tv[:-1]) * r[1:] - tv[:-1] * r[:-1]) + 2.0 * beta_tail
    return LyapunovSeries(v=v, t=t, phi=(p1, p2), beta_tail=beta_tail)


def prox_lyapunov(r: np.ndarray, a: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Single-step Lyapunov values V_n = r_n + a_{n-1} eta_n for n = 2..L.

    a[i-1] holds a_i (so a needs length >= L-1) and must be positive and
    non-increasing; eta must be non-negative with eta[0] unused.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    length = len(r)
    if length < 2:
        raise ValueError("need at least two entries")
    if len(a) < length - 1 or len(eta) < length:
        raise ValueError("weight or eta sequence shorter than the series")
    a = a[: length - 1]
    if np.any(a <= 0) or np.any(np.diff(a) > 0):
        raise ValueError("weights must be positive and non-increasing")
    if np.any(eta[1:length] < 0):
        raise ValueError("eta must be non-negative")
    return r[1:] + a * eta[1:length]


def relay(thetas: np.ndarray, v_path: np.ndarray, r0: float) -> np.ndarray:
    """Averaged relay r_{n+1} = (1 - theta_n) r_n + theta_n V_{n+1}.

    Returns r_1..r_L with r_1 = r0, driven by V_2..V_L of the given path.
    """
    thetas = np.asarray(thetas, dtype=float)
    v_path = np.asarray(v_path, dtype=float)
    length = len(v_path)
    if length < 1:
        raise ValueError("relay needs a non-empty driving path")
    if len(thetas) < length - 1:
        raise ValueError(f"need {length - 1} momentum values, got {len(thetas)}")
    if np.any((thetas[: length - 1] < 0) | (thetas[: length - 1] >= 1)):
        raise ValueError("relay momentum values must lie in [0, 1)")
    r = np.empty(length)
    r[0] = r0
    for i in range(length - 1):
        r[i + 1] = (1.0 - thetas[i]) * r[i] + thetas[i] * v_path[i + 1]
    return r


# ---------------------------------------------------------------------------
# synthetic ensembles

_DELAYED_IDS = ("drift", "drift_const", "slack", "coupled", "coupled_weighted")


@dataclass
class Ensemble:
    """Realized synthetic paths plus everything needed to branch them.

    r has shape (paths, length); v holds V_n per path for the n range
    v_offset+1 .. v_offset+v_len (1-based). branch_v(p, n, B) redraws the
    one-step-ahead V_{n+1} distribution from the frozen state at (p, n)
    using a dedicated (seed, path, step) stream, so probe order never
    changes results. theta_valid is False when the momentum values admit
    no finite tail sum (then no Lyapunov series exists to check).
    """

    lemma_id: str
    seed: int
    paths: int
    length: int
    params: dict
    r: np.ndarray
    z: np.ndarray | None
    thetas: np.ndarray | None
    eta: np.ndarray | None   # slack sequence when the scenario asserts summability
    sigma: np.ndarray | None
    v: np.ndarray | None
    v_offset: int
    theta_valid: bool
    failure_reason: str | None
    _branch_mean_se: object = None  # callable (p, n, B) -> (mean, se) via streams
    _conv_series: object = None     # callable (p) -> series asserted to converge

    def v_value(self, p: int, n: int) -> float:
        i = n - 1 - self.v_offset
        if self.v is None or not 0 <= i < self.v.shape[1]:
            raise ValueError(f"V_{n} not available")
        return float(self.v[p, i])

    def branch_values(self, p: int, n: int, branches: int) -> np.ndarray:
        return self._branch_mean_se(p, n, branches)

    def convergence_series(self, p: int) -> np.ndarray:
        return self._conv_series(p)

    def pair_series(self, p: int) -> PairSeries:
        z = self.z[p] if self.z is not None and self.z.ndim == 2 else (
            self.z if self.z is not None else np.zeros(self.length)
        )
        thetas = self.thetas if self.thetas is not None else np.zeros(self.length)
        return PairSeries(r=self.r[p].copy(), z=np.array(z, copy=True), thetas=thetas.copy())


def _path_generator(seed: int, p: int):
    return make_generator(STREAM_PATH, seed, p)


def _branch_generator(seed: int, p: int, n: int):
    return make_generator(STREAM_BRANCH, seed, p, n)


def _geometric_scale_array(scale: float, ratio: float, length: int) -> np.ndarray:
    return scale * ratio ** np.arange(1, length + 1, dtype=float)


def _delayed_defaults(lemma_id: str) -> dict:
    base = {
        "sigma": 1e-3,
        "sigma_ratio": 0.99,
        "eta": zero_sequence(),
        "beta": zero_sequence(),
        "betabar": zero_sequence(),
        "h": 0.0,
        "zeta": 0.0,
        "z_init": 0.0,
        "a_ratio": 0.0,
        "rho_limit": 0.0,
        "rho_ratio": 0.0,
        "r1": None,
        "r2": None,
        "control": None,
    }
    if lemma_id == "drift":
        base["momentum"] = harmonic_momentum(3.0)
    elif lemma_id == "drift_const":
        base["momentum"] = constant_momentum(0.5)
    elif lemma_id == "slack":
        base["momentum"] = harmonic_momentum(3.0)
        base["eta"] = geometric_sequence(0.97, scale=1e-3)
        base["beta"] = geometric_sequence(0.97, scale=1e-3)
    elif lemma_id == "coupled":
        base["momentum"] = constant_momentum(0.5)
        base["eta"] = geometric_sequence(0.97, scale=1e-4)
        base.update(h=1.0, zeta=0.1, z_init=1.0)
    elif lemma_id == "coupled_weighted":
        base["momentum"] = constant_momentum(0.5)
        base["eta"] = geometric_sequence(0.97, scale=1e-4)
        base["beta"] = geometric_sequence(0.97, scale=1e-5)
        base.update(h=1.0, zeta=0.1, z_init=1.0, a_ratio=0.97, rho_limit=0.05, rho_ratio=0.85)
    return base


def _build_delayed(lemma_id: str, params: dict, seed: int, paths: int, length: int) -> Ensemble:
    cfg = _delayed_defaults(lemma_id)
    unknown = set(params) - set(cfg)
    if unknown:
        raise ConfigurationError(f"unknown scenario parameters {sorted(unknown)}")
    cfg.update(params)
    control = cfg["control"]
    if control not in (None, "drift", "theta"):
        raise ConfigurationError(f"unknown negative control {control!r}")

    # momentum values theta_1..theta_{L}
    if control == "theta":
        thetas = np.full(length, 1.05)
        theta_valid = False
        d_sup = 1.05
    else:
        momentum: MomentumSchedule = cfg["momentum"]
        thetas = momentum.values(length)
        theta_valid = True
        d_sup = momentum.bounds[1]

    sigma = _geometric_scale_array(cfg["sigma"], cfg["sigma_ratio"], length)
    beta_seq: SummableSequence = cfg["beta"]
    betabar_seq: SummableSequence = cfg["betabar"]
    eta_spec = cfg["eta"]
    if control == "drift":
        eta = np.full(length, -1e-3)  # persistent upward drift breaks the hypothesis
    elif isinstance(eta_spec, SummableSequence):
        eta = eta_spec.values(length)
    else:
        eta = np.asarray(eta_spec, dtype=float)
        if len(eta) < length:
            raise ConfigurationError("eta sequence shorter than the path length")
    beta = beta_seq.values(length)

    h, zeta_c, z_init = cfg["h"], cfg["zeta"], cfg["z_init"]
    coupled = h > 0.0

    # deterministic auxiliary path z and its downward drive
    z = np.zeros(length)
    if coupled:
        if z_init <= 0:
            raise ConfigurationError("coupled scenarios need z_init > 0")
        drive = np.zeros(length)
        if cfg["a_ratio"] > 0:
            a_weights = cfg["a_ratio"] ** np.arange(1, length + 1, dtype=float)
            rho_incr = (
                cfg["rho_limit"]
                * (1.0 - cfg["rho_ratio"])
                * cfg["rho_ratio"] ** np.arange(0, length, dtype=float)
            )
            drive = a_weights * rho_incr
        z[0] = z[1] = z_init
        for i in range(length - 2):
            z[i + 2] = (1.0 - zeta_c) * z[i + 1] - drive[i] + betabar_seq.value(i + 1)
        if np.any(z < 0):
            raise ConfigurationError(
                "auxiliary path would go negative; shrink its downward drive"
            )
        if np.any(np.diff(z) > 1e-15):
            raise ConfigurationError(
                "auxiliary path must be non-increasing for the telescoped tail"
            )
        if theta_valid and thetas.max() != thetas.min():
            raise ConfigurationError("coupled scenarios require constant momentum")

    # nonnegativity floor: worst-case downward forcing accumulated over the run
    if theta_valid:
        down = cfg["sigma"] + float(np.max(np.maximum(eta, 0.0), initial=0.0))
        floor = length * down * (1.0 + d_sup) / (1.0 - d_sup)
    else:
        floor = 0.0
    explicit_init = cfg["r1"] is not None or cfg["r2"] is not None
    if explicit_init and (cfg["r1"] is None or cfg["r2"] is None):
        raise ConfigurationError("give both r1 and r2 or neither")
    if explicit_init and min(cfg["r1"], cfg["r2"]) < floor:
        raise ConfigurationError(
            f"initial values below the nonnegativity floor {floor:g}; "
            "clamping would bias the check, so this is refused"
        )

    r = np.empty((paths, length))
    noise = np.empty((paths, length - 2)) if length > 2 else np.zeros((paths, 0))
    spreads = np.empty(paths)
    for p in range(paths):
        g = _path_generator(seed, p)
        spreads[p] = g.random()
        if length > 2:
            noise[p] = g.uniform(-1.0, 1.0, length - 2)
    if explicit_init:
        r[:, 0] = cfg["r1"]
        r[:, 1] = cfg["r2"]
    else:
        r[:, 0] = (1.05 * floor + 1.0) * (1.0 + 0.5 * spreads)
        if control == "theta":
            r[:, 1] = r[:, 0] + 1.0  # positive initial increment keeps blowup one-sided
        else:
            r[:, 1] = r[:, 0]

    couple_term = h * zeta_c * z if coupled else np.zeros(length)
    for i in range(length - 2):
        r[:, i + 2] = (
            (1.0 + thetas[i]) * r[:, i + 1]
            - thetas[i] * r[:, i]
            + beta[i]
            - eta[i]
            + couple_term[i + 1]
            + sigma[i] * noise[:, i]
        )
    if theta_valid and np.any(r < 0):
        raise ConfigurationError("path went negative despite the floor; widen it")

    # Lyapunov series on s = r + h z with exact tail bookkeeping
    v = None
    tcoef = None
    failure = None
    if theta_valid:
        momentum_for_tail = (
            constant_momentum(thetas[0]) if thetas.max() == thetas.min() else cfg["momentum"]
        )
        tcoef = tail_coefficients(momentum_for_tail, length, tol=1e-12)
        tv = tcoef.values
        s = r + h * z[None, :]
        tail_extra = np.array(
            [
                beta_seq.tail(n) + h * betabar_seq.tail(n) + h * thetas[0] * z[n - 1]
                for n in range(1, length)
            ]
        )
        v = (1.0 + tv[: length - 1]) * s[:, 1:] - tv[: length - 1] * s[:, :-1]
        v = v + 2.0 * tail_extra[None, :]
    else:
        failure = "momentum at or above 1 admits no finite tail sum"

    ens = Ensemble(
        lemma_id=lemma_id,
        seed=seed,
        paths=paths,
        length=length,
        params=cfg,
        r=r,
        z=z if coupled else None,
        thetas=thetas,
        eta=eta if (lemma_id in ("slack", "coupled", "coupled_weighted") and control is None) else None,
        sigma=sigma,
        v=v,
        v_offset=0,
        theta_valid=theta_valid,
        failure_reason=failure,
    )

    def branch(p: int, n: int, branches: int) -> np.ndarray:
        # state at (r_n, r_{n+1}); redraw r_{n+2} and evaluate V_{n+1}
        if not theta_valid:
            raise DivergenceError("no Lyapunov series for momentum >= 1")
        if not 1 <= n <= length - 2:
            raise ValueError(f"branch step {n} outside 1..{length - 2}")
        i = n - 1
        g = _branch_generator(seed, p, n)
        w = g.uniform(-1.0, 1.0, branches)
        r_next = (
            (1.0 + thetas[i]) * r[p, i + 1]
            - thetas[i] * r[p, i]
            + beta[i]
            - eta[i]
            + couple_term[i + 1]
            + sigma[i] * w
        )
        s_next = r_next + h * z[i + 2]
        s_curr = r[p, i + 1] + h * z[i + 1]
        tail_next = (
            beta_seq.tail(n + 1)
            + h * betabar_seq.tail(n + 1)
            + h * thetas[0] * z[i + 1]
        )
        return (1.0 + tv[i + 1]) * s_next - tv[i + 1] * s_curr + 2.0 * tail_next

    ens._branch_mean_se = branch
    ens._conv_series = lambda p: r[p]
    return ens


def _build_first_order(params: dict, seed: int, paths: int, length: int) -> Ensemble:
    cfg = {
        "sigma": 1e-3,
        "sigma_ratio": 0.99,
        "a_ratio": 0.97,
        "eta_limit": 2.0,
        "eta_ratio": 0.85,
        "control": None,
    }
    unknown = set(params) - set(cfg)
    if unknown:
        raise ConfigurationError(f"unknown scenario parameters {sorted(unknown)}")
    cfg.update(params)
    control = cfg["control"]
    if control not in (None, "drift"):
        raise ConfigurationError(f"unknown negative control {control!r}")

    a = cfg["a_ratio"] ** np.arange(1, length + 1, dtype=float)  # a_1..a_L, decreasing
    etaseq = cfg["eta_limit"] * (1.0 - cfg["eta_ratio"] ** np.arange(1, length + 1))
    sigma = _geometric_scale_array(cfg["sigma"], cfg["sigma_ratio"], length)
    drift = 1e-3 if control == "drift" else 0.0

    fall = float(np.sum(a[:-1] * np.diff(etaseq))) + float(np.sum(sigma))
    r_init_base = 1.1 * fall + 1.0

    r = np.empty((paths, length))
    noise = np.empty((paths, length - 1))
    spreads = np.empty(paths)
    for p in range(paths):
        g = _path_generator(seed, p)
        spreads[p] = g.random()
        noise[p] = g.uniform(-1.0, 1.0, length - 1)
    r[:, 0] = r_init_base * (1.0 + 0.5 * spreads)
    for i in range(length - 1):
        r[:, i + 1] = (
            r[:, i] - a[i] * (etaseq[i + 1] - etaseq[i]) + drift + sigma[i] * noise[:, i]
        )
    if control is None and np.any(r < 0):
        raise ConfigurationError("path went negative despite the floor; widen it")

    # V_n = r_n + a_{n-1} eta_n for n = 2..L
    v = r[:, 1:] + (a[: length - 1] * etaseq[1:])[None, :]

    ens = Ensemble(
        lemma_id="first_order",
        seed=seed,
        paths=paths,
        length=length,
        params=cfg,
        r=r,
        z=None,
        thetas=None,
        eta=None,
        sigma=sigma,
        v=v,
        v_offset=1,
        theta_valid=True,
        failure_reason=None,
    )

    def branch(p: int, n: int, branches: int) -> np.ndarray:
        if not 2 <= n <= length - 1:
            raise ValueError(f"branch step {n} outside 2..{length - 1}")
        i = n - 1
        g = _branch_generator(seed, p, n)
        w = g.uniform(-1.0, 1.0, branches)
        r_next = r[p, i] - a[i] * (etaseq[i + 1] - etaseq[i]) + drift + sigma[i] * w
        return r_next + a[i] * etaseq[i + 1]

    ens._branch_mean_se = branch
    ens._conv_series = lambda p: r[p]
    return ens


def _build_relay(params: dict, seed: int, paths: int, length: int) -> Ensemble:
    cfg = {"theta_lo": 0.1, "theta_hi": 0.9, "control": None}
    unknown = set(params) - set(cfg)
    if unknown:
        raise ConfigurationError(f"unknown scenario parameters {sorted(unknown)}")
    cfg.update(params)
    control = cfg["control"]
    if control not in (None, "drift"):
        raise ConfigurationError(f"unknown negative control {control!r}")

    r = np.empty((paths, length))
    v_all = np.empty((paths, length))
    thetas_per_path = np.empty(paths)
    for p in range(paths):
        g = _path_generator(seed, p)
        theta_p = g.uniform(cfg["theta_lo"], cfg["theta_hi"])
        v_inf = g.uniform(0.5, 2.0)
        amp = g.uniform(0.1, 1.0)
        decay = g.uniform(0.8, 0.95)
        r0 = g.uniform(0.0, 3.0)
        ns = np.arange(1, length + 1, dtype=float)
        if control == "drift":
            path_v = v_inf + 0.002 * ns  # drifts, never converges
        else:
            path_v = v_inf + amp * decay**ns
        v_all[p] = path_v
        thetas_per_path[p] = theta_p
        r[p] = relay(np.full(length - 1, theta_p), path_v, r0)

    ens = Ensemble(
        lemma_id="relay",
        seed=seed,
        paths=paths,
        length=length,
        params=cfg,
        r=r,
        z=None,
        thetas=None,
        eta=None,
        sigma=None,
        v=v_all[:, : length - 1],
        v_offset=0,
        theta_valid=True,
        failure_reason=None,
    )

    def branch(p: int, n: int, branches: int) -> np.ndarray:
        if not 1 <= n <= length - 1:
            raise ValueError(f"branch step {n} outside 1..{length - 1}")
        return np.full(branches, v_all[p, n])  # deterministic driver

    ens._branch_mean_se = branch
    ens._conv_series = lambda p: r[p]
    return ens


def synth_paths(
    lemma_id: str, params: dict | None, seed: int, paths: int, length: int
) -> Ensemble:
    """Build a synthetic ensemble satisfying the named drift hypothesis.

    params overrides the scenario defaults; pass {"control": "drift"} or
    {"control": "theta"} for the deliberately broken variants.
    """
    if lemma_id not in LEMMA_IDS:
        raise ConfigurationError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    if paths < 1:
        raise ValueError("need at least one path")
    if length < 4:
        raise ValueError("need path length >= 4")
    params = dict(params or {})
    if lemma_id in _DELAYED_IDS:
        return _build_delayed(lemma_id, params, seed, paths, length)
    if lemma_id == "first_order":
        return _build_first_order(params, seed, paths, length)
    return _build_relay(params, seed, paths, length)


def negative_controls(lemma_id: str) -> tuple[str, ...]:
    """Control modes that must produce failing reports for this scenario."""
    if lemma_id in _DELAYED_IDS:
        return ("drift", "theta")
    return ("drift",)


# ---------------------------------------------------------------------------
# checks

def supermartingale_check(
    ensemble: Ensemble,
    paths: int | None = None,
    branches: int = 200,
    tol_z: float = 3.0,
    steps_per_path: int = 24,
) -> CheckReport:
    """Estimate E[V_{n+1} | F_n] by conditional branching and flag violations.

    At each probed (path, step) the frozen state is branched `branches`
    times; the estimate exceeding V_n by more than tol_z standard errors
    counts as a violation. Branches whose spread is within rounding of zero
    are treated as deterministic: they violate only when the next value
    exceeds V_n beyond rounding (a degenerate standard error would otherwise
    turn summation noise into huge z-scores). Fewer than 30 branches have no
    statistical power and are refused.
    """
    if branches < 30:
        raise ValueError("need at least 30 branches for a meaningful standard error")
    if tol_z <= 0:
        raise ValueError("tol_z must be positive")
    n_paths = ensemble.paths if paths is None else min(paths, ensemble.paths)
    if n_paths < 1:
        raise ValueError("need at least one path to probe")
    report = CheckReport(lemma_id=ensemble.lemma_id, paths_tested=n_paths)
    if not ensemble.theta_valid:
        report.failure_reason = ensemble.failure_reason
        return report

    lo = 1 + ensemble.v_offset
    hi = ensemble.length - 2 + ensemble.v_offset
    hi = min(hi, ensemble.length - 1)
    probe_steps = np.unique(
        np.round(np.geomspace(lo, hi, steps_per_path)).astype(int)
    )
    scale_eps = 1e-12
    for p in range(n_paths):
        for n in probe_steps:
            samples = ensemble.branch_values(p, int(n), branches)
            estimate = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / math.sqrt(branches))
            v_n = ensemble.v_value(p, int(n))
            diff = estimate - v_n
            rounding = scale_eps * max(1.0, abs(v_n))
            if se > rounding:
                zscore = diff / se
                violated = zscore > tol_z
            else:
                violated = diff > rounding
                zscore = math.inf if violated else 0.0
            report.checks += 1
            if violated:
                report.violations += 1
            report.worst_z = max(report.worst_z, zscore)
            report.details.append(
                (ensemble.lemma_id, p, int(n), v_n, estimate, zscore)
            )
    return report


def convergence_check(x: np.ndarray, window: int | None = None, tol: float = 1e-4) -> bool:
    """Finite-sample plateau test: max - min over the trailing window < tol."""
    x = np.asarray(x, dtype=float)
    if window is None:
        window = max(100, len(x) // 10)
    if window < 2 or window > len(x):
        raise ValueError(f"window {window} outside 2..{len(x)}")
    if not np.all(np.isfinite(x)):
        return False
    tail = x[-window:]
    return bool(tail.max() - tail.min() < tol)


def summability_check(eta: np.ndarray, plateau_tol: float = 1e-3) -> bool:
    """True when the partial sums grow less than plateau_tol over the final
    decade of indices (S_L - S_{L/10} < plateau_tol)."""
    eta = np.asarray(eta, dtype=float)
    if len(eta) < 10:
        raise ValueError("need at least 10 terms to form a decade")
    if np.any(eta < 0):
        raise ValueError("summability check expects non-negative terms")
    sums = np.cumsum(eta)
    return bool(sums[-1] - sums[len(eta) // 10 - 1] < plateau_tol)


def run_lemma_check(
    lemma_id: str,
    paths: int = 200,
    length: int = 2000,
    branches: int = 200,
    seed: int = 1,
    params: dict | None = None,
    tol_z: float = 3.0,
    convergence_tol: float = 1e-4,
    plateau_tol: float = 1e-3,
) -> CheckReport:
    """Full pipeline for one scenario: build, branch-check, convergence, summability."""
    ensemble = synth_paths(lemma_id, params, seed, paths, length)
    report = supermartingale_check(ensemble, paths=paths, branches=branches, tol_z=tol_z)
    converged = sum(
        convergence_check(ensemble.convergence_series(p), tol=convergence_tol)
        for p in range(ensemble.paths)
    )
    report.converged_fraction = converged / ensemble.paths
    if ensemble.eta is not None:
        report.eta_plateaued = summability_check(ensemble.eta[:length], plateau_tol)
    return report
