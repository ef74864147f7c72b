"""Momentum-extrapolated stochastic solvers.

All three methods share the two-point extrapolation
    x_{k+1} = (1 + theta_k) v_k - theta_k v_{k-1}
and differ in how the sampled oracle turns x_{k+1} into v_{k+1}:

    ssgd        v_{k+1} = project(x_{k+1} - alpha_k g(x_{k+1}, xi))
    prox_rm     v_{k+1} = argmin_v sample-term(v) + ||v - x_{k+1}||^2 / (2 alpha_k)
    composite   two stages on the sampled quadratic and the l1 term
                (explicit_first: gradient step then soft threshold;
                 implicit_first: proximal step then l1 subgradient step)

A run starts from v_1 = v_2 (standard normal by default) and advances to the
iterate with index N; the update producing v_{k+1} consumes schedule values
alpha_k, theta_k, so the first executable step index is k = 2. ``run`` is one
loop over the pair (v_{k-1}, v_k): each step extrapolates once, takes its row
index, forms the sampled residual r_k = a_i.x_{k+1} - b_i and updates in
stages, each written once and picked by flags set before the loop: the
proximal stage (prox_rm, composite implicit_first) or the gradient stage,
both calling the private row kernels of ``problems`` with r_k, then
composite's l1 stage or the projection onto a set constraint. A run refuses
what these stages cannot honour: composite off lasso, ssgd or prox_rm on
lasso, a constraint with prox_rm or composite. The first non-finite iterate
v_j ends the run with ``diverged_at = j`` and the checkpoints recorded so far.

Everything fixed for a whole run is settled before the loop. The momentum
range is checked once, so the loop computes v_k + theta_k (v_k - v_{k-1})
unchecked; rows and targets are bound as Python lists and the proximal
stage binds the squared row norms.
Row indices and the schedule values alpha_k, theta_k come in blocks of at
most ``_DRAW_BLOCK`` steps, so memory stays bounded for any N; the
schedules' ``block`` applies their scalar formula per index, so the values
equal ``at(k)`` bit for bit.

Finiteness is decided by the residual the step forms anyway. v_{k-1} is
known to be finite, so a non-finite v_k makes x_{k+1} = v_k + theta_k (v_k -
v_{k-1}) non-finite (+-inf stays +-inf for theta > 0, inf + 0 inf is nan for
theta = 0, nan stays nan), and the dot a_i.x_{k+1} then takes in a nan or
+-inf product (0 inf is nan for a zero row entry): a finite r_k certifies
v_k. Only a non-finite r_k runs ``np.isfinite(v_k).all()``, which keeps a
finite iterate whose residual overflows; if it fails, the run ends with
diverged_at = k. Every checkpoint, N included, runs that entry-wise check
before it records, so no non-finite iterate is recorded and the last iterate
is always checked. Instrumentation records step k only after v_k passed.

Run RNG stream layout (fixed, documented for bitwise reproducibility): the
init vector consumes Box-Muller normals first when init is gaussian, then the
N - 2 uniform row indices follow, one per step. They are drawn in blocks
through ``sample_index(..., size=...)``; a block of K draws equals K scalar
draws from the same generator state, which
``test_block_index_draws_equal_scalar_draws`` pins.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._rng import RNG_ID, STREAM_RUN, make_generator, normals
from .errors import ConfigurationError
from .problems import (
    ConstraintSet,
    ProblemInstance,
    _norm,
    _prox_row,
    _subgrad_row,
    objective,
    project,
    prox_l1,
    sample_index,
    whole_space,
)
from .schedules import MomentumSchedule, StepSchedule, classify

__all__ = [
    "METHODS",
    "SolverConfig",
    "Checkpoint",
    "SolverTrace",
    "run",
]

METHODS = ("ssgd", "prox_rm", "composite")
COMPOSITE_ORDERS = ("explicit_first", "implicit_first")
INITS = ("gaussian", "zeros")
# checkpoints a run may record; each costs a full objective pass
_MAX_CHECKPOINTS = 1 << 20
# steps per block of row indices and schedule values: 128 KB of int64 and
# two 16384-entry float lists at most
_DRAW_BLOCK = 1 << 14


@dataclass(frozen=True)
class SolverConfig:
    method: str
    step: StepSchedule
    momentum: MomentumSchedule
    iterations: int
    seed: int
    constraint: ConstraintSet = field(default_factory=whole_space)
    stride: float = 1.1
    composite_order: str = "explicit_first"
    init: str = "gaussian"
    instrument: bool = False

    def __post_init__(self):
        fault = _settings_fault(
            self.method, self.iterations, self.stride, self.composite_order, self.init
        )
        if fault is not None:
            raise ConfigurationError(fault[1])


@dataclass(frozen=True)
class Checkpoint:
    k: int
    dist: float
    obj_gap: float
    increment: float
    alpha: float
    theta: float


@dataclass
class SolverTrace:
    checkpoints: list[Checkpoint]
    metadata: dict[str, str]
    diverged: bool = False
    diverged_at: int | None = None
    instrumentation: list[tuple[int, float, float]] | None = None

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def _pairing_fault(
    method: str, kind: str, constraint: str
) -> tuple[tuple[str, ...], str] | None:
    """(config keys at fault, reason) when the method cannot run on this
    problem kind or under this constraint kind, else None. composite is the
    lasso method and the only one that applies the l1 term; ssgd and prox_rm
    solve the other two kinds; only ssgd projects onto a constraint."""
    if constraint != "whole_space" and method != "ssgd":
        return ("constraint",), f"constraints apply to method ssgd only, not {method}"
    if (method == "composite") != (kind == "lasso"):
        return ("method", "kind"), (
            f"method {method} does not solve kind {kind} "
            "(composite solves lasso; ssgd and prox_rm solve least_squares and least_absolute)"
        )
    return None


def _settings_fault(
    method: str, iterations: int, stride: float, composite_order: str, init: str
) -> tuple[tuple[str, ...], str] | None:
    """(config keys at fault, reason) when a SolverConfig value is invalid,
    else None."""
    if method not in METHODS:
        return ("method",), f"unknown method {method!r} (known: {', '.join(METHODS)})"
    if iterations < 2:
        return ("N",), f"iteration budget N must be >= 2, got {iterations}"
    if not 1.0 < stride < math.inf:
        return ("stride",), f"checkpoint stride must be finite and exceed 1, got {stride}"
    if composite_order not in COMPOSITE_ORDERS:
        known = ", ".join(COMPOSITE_ORDERS)
        return ("composite.order",), f"unknown composite order {composite_order!r} (known: {known})"
    if init not in INITS:
        return ("init",), f"unknown init {init!r} (known: {', '.join(INITS)})"
    return None


def _checkpoint_fault(iterations: int, stride: float) -> tuple[tuple[str, ...], str] | None:
    """(config keys at fault, reason) when the run would record more than
    _MAX_CHECKPOINTS checkpoints, else None. The marks are counted, not
    stored, and the count stops one past the limit."""
    marks = _checkpoint_indices(iterations, stride)
    if sum(1 for _ in itertools.islice(marks, _MAX_CHECKPOINTS + 1)) <= _MAX_CHECKPOINTS:
        return None
    return ("N", "stride"), (
        f"N = {iterations} at stride {stride!r} records more than {_MAX_CHECKPOINTS} "
        "checkpoints; raise stride or lower N"
    )


def _steps(config: SolverConfig, inst: ProblemInstance, g: np.random.Generator):
    """(k, 0-based row index, alpha_k, theta_k) for k = 2 .. N - 1, produced
    in blocks of at most ``_DRAW_BLOCK`` steps. The indices equal one scalar
    draw per step and the schedule values equal ``at(k)``."""
    stop = config.iterations
    for start in range(2, stop, _DRAW_BLOCK):
        count = min(_DRAW_BLOCK, stop - start)
        yield from zip(
            range(start, start + count),
            (sample_index(inst, g, size=count) - 1).tolist(),
            config.step.block(start, count),
            config.momentum.block(start, count),
        )


def _checkpoint_indices(n_final: int, stride: float) -> Iterator[int]:
    """The checkpointed k in increasing order: 1, 2, then k -> max(k + 1,
    int(k stride)) while below n_final, then n_final (n_final >= 2). k stride
    is capped at n_final before int(), which ends the marks as int(k stride)
    would, also where k stride overflows to inf."""
    yield 1
    k = 2
    while k < n_final:
        yield k
        k = max(k + 1, int(min(k * stride, n_final)))
    yield n_final


def _validity_metadata(cfg: SolverConfig) -> dict[str, str]:
    report = classify(cfg.step)
    lo, hi = cfg.momentum.bounds
    if not (report.diverges_sum and report.square_summable) or hi >= 1.0:
        profile = "unverified"
    elif lo == hi == 0.0:
        profile = "no-momentum"
    elif cfg.momentum.is_constant and lo > 0.0:
        profile = "constant-momentum"
    else:
        # every momentum family is nonincreasing (MomentumSchedule.is_nonincreasing)
        profile = "nonincreasing-momentum"
    return {
        "valid.step_diverges_sum": str(report.diverges_sum).lower(),
        "valid.step_square_summable": str(report.square_summable).lower(),
        "valid.mom_lo": format(lo, ".17g"),
        "valid.mom_hi": format(hi, ".17g"),
        "valid.mom_nonincreasing": str(cfg.momentum.is_nonincreasing).lower(),
        "hypothesis_profile": profile,
    }


def run(config: SolverConfig, inst: ProblemInstance) -> SolverTrace:
    """Run the configured method to iterate index N and collect checkpoints.

    Checkpoints land on k in {1, 2} cup {geometric stride} cup {N} and record
    dist to the reference optimum, objective gap, iterate increment, and the
    schedule values at that index; more than _MAX_CHECKPOINTS of them are
    refused before the first step. The first non-finite iterate v_j ends the
    run early: the trace keeps the checkpoints so far, with diverged set and
    diverged_at = j.
    """
    if inst.reference_optimum is None:
        raise ConfigurationError(
            "instance has no reference optimum; compute one before running"
        )
    for fault in (
        _pairing_fault(config.method, inst.kind, config.constraint.kind),
        _checkpoint_fault(config.iterations, config.stride),
    ):
        if fault is not None:
            raise ConfigurationError(fault[1])
    # the one momentum-range check of the run; the loop extrapolates unchecked
    lo, hi = config.momentum.bounds
    if not (0.0 <= lo and hi < 1.0):
        raise ValueError(f"momentum must lie in [0, 1), got values in [{lo}, {hi}]")
    ref = inst.reference_optimum
    f_ref = objective(inst, ref)
    g = make_generator(STREAM_RUN, config.seed)
    # iterates are never modified in place, so v_1 and v_2 may share storage
    v_prev = v_curr = normals(g, inst.n) if config.init == "gaussian" else np.zeros(inst.n)

    marks = set(_checkpoint_indices(config.iterations, config.stride))
    checkpoints: list[Checkpoint] = []
    instrumentation: list[tuple[int, float, float]] | None = (
        [] if config.instrument else None
    )

    def record(k: int, v_curr: np.ndarray, v_prev: np.ndarray) -> None:
        checkpoints.append(
            Checkpoint(
                k=k,
                dist=_norm(v_curr - ref),
                obj_gap=objective(inst, v_curr) - f_ref,
                increment=_norm(v_curr - v_prev),
                alpha=config.step.at(k),
                theta=config.momentum.at(k),
            )
        )

    record(1, v_curr, v_prev)
    record(2, v_curr, v_prev)

    metadata = {
        "package": f"nagsa {__version__}",
        "rng": RNG_ID,
        "method": config.method,
        "kind": inst.kind,
        "m": str(inst.m),
        "n": str(inst.n),
        "problem_seed": str(inst.seed),
        "lambda": format(inst.lam, ".17g"),
        "seed": str(config.seed),
        "N": str(config.iterations),
        "stride": format(config.stride, ".17g"),
        "init": config.init,
        "constraint": config.constraint.kind,
        "step.family": config.step.family,
        "step.c": format(config.step.c, ".17g"),
        "step.s": format(config.step.s, ".17g"),
        "step.p": format(config.step.p, ".17g"),
        "mom.family": config.momentum.family,
        "mom.theta": format(config.momentum.theta, ".17g"),
        "mom.s": format(config.momentum.s, ".17g"),
    }
    if config.method == "composite":
        metadata["composite.order"] = config.composite_order
    metadata.update(_validity_metadata(config))

    trace = SolverTrace(
        checkpoints=checkpoints, metadata=metadata, instrumentation=instrumentation
    )
    rows = list(inst.rows)
    targets = inst.targets.tolist()
    absolute = inst.kind == "least_absolute"
    composite = config.method == "composite"
    proximal = config.method == "prox_rm" or (
        composite and config.composite_order == "implicit_first"
    )
    norms = np.vecdot(inst.rows, inst.rows).tolist() if proximal else None
    lam = inst.lam
    constraint = None if config.constraint.kind == "whole_space" else config.constraint

    def diverged(k: int) -> SolverTrace:
        trace.diverged = True
        trace.diverged_at = k
        return trace

    # exploding iterates are caught by the finiteness checks, so the
    # intermediate overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k, i, alpha, theta in _steps(config, inst, g):
            # (1 + theta) v_k - theta v_{k-1} in increment form: an exact
            # no-op when the two iterates coincide (the first step, by
            # construction), and the step identity ||x - v_k|| = theta
            # ||v_k - v_{k-1}|| stays tight at rounding scale; the expanded
            # form loses both to cancellation
            x = v_curr + theta * (v_curr - v_prev)
            r = float(rows[i].dot(x)) - targets[i]
            # v_{k-1} is finite, so a non-finite v_k makes x and then r
            # non-finite: a finite r certifies v_k
            if not math.isfinite(r) and not np.isfinite(v_curr).all():
                return diverged(k)
            if instrumentation is not None:
                instrumentation.append(
                    (
                        k,
                        float(np.linalg.norm(x - v_curr)),
                        theta * float(np.linalg.norm(v_curr - v_prev)),
                    )
                )
            if proximal:
                v = _prox_row(rows[i], r, x, norms[i], alpha, absolute)
            else:
                v = x - alpha * _subgrad_row(rows[i], r, absolute)[1]
            if composite:
                # implicit_first: an l1 subgradient step, with sign(0) = 0
                v = v - alpha * lam * np.sign(v) if proximal else prox_l1(v, alpha * lam)
            if constraint is not None:
                v = project(v, constraint)
            v_prev, v_curr = v_curr, v
            if k + 1 in marks:
                if not np.isfinite(v_curr).all():
                    return diverged(k + 1)
                record(k + 1, v_curr, v_prev)
    return trace
