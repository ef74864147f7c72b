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
loop over the pair (v_{k-1}, v_k): each step extrapolates once (not at all
when theta_k = 0 at every k, see below), takes its row index, forms the
sampled residual r_k = a_i.x_{k+1} - b_i and updates in
stages, each written once and picked by flags set before the loop: the
proximal stage (prox_rm, composite implicit_first) or the gradient stage,
both taking the scalar of the row step (2 r_k, sign(r_k) or the proximal
gamma, whose absolute-term form makes no call) from the private row
formulas of ``problems`` with r_k, then
composite's l1 stage or the projection onto a set constraint. A run refuses
what these stages cannot honour: composite off lasso, ssgd or prox_rm on
lasso, a constraint with prox_rm or composite. The first non-finite iterate
v_j ends the run with ``diverged_at = j`` and the checkpoints recorded so far.

Everything fixed for a whole run is settled before the loop, buffers
included. Every momentum schedule keeps its values in [0, 1) by
construction, so the loop computes v_k + theta_k (v_k - v_{k-1}) unchecked.
When its upper bound is 0 (constant momentum 0, or power momentum with
c = 0), theta_k = 0 at every k and the step takes x_{k+1} = v_k itself,
with no call. The extrapolated vector would equal v_k but for a -0.0 entry
turned +0.0, which no dot, norm or objective tells apart, and for finite
iterates whose difference overflows, where 0 inf would make it nan
(composite implicit_first with alpha lambda near the float maximum). The
rows, the targets and the squared row norms come as Python lists from the
instance's run table, with the objective at the reference: the instance
builds it on its first run and keeps it, so the runs of a sweep share one
(see ``problems.ProblemInstance``).
The iterates live in a ring of three buffers, v_{k-1}, v_k and a spare: each
step forms x_{k+1} and the scaled row in two scratch vectors with ``out=``
ufuncs, each scalar factor held in a 0-d float64 array, in the operation
order of the plain expressions, so every value is bitwise the same; it
writes v_{k+1} into the spare and rotates the three, so an uninstrumented
ssgd or prox_rm step without a constraint allocates no array. A stage that
returns a new array (soft threshold, box clip, ball projection from outside)
or the zero row's copy of x is copied into the spare; neither x nor a
returned array joins the ring. Checkpoints are an ordered walk of
``_checkpoint_indices``: the loop compares k + 1 with the next mark only,
and no set of marks is built. A checkpoint takes k, dist, increment, alpha_k
and theta_k at once and copies v_k into a pending batch of up to
``problems._pass_shape`` points (about 1 MB of points and of residuals,
bounded by both m and n); each batch gets its objectives from one blocked
pass over A in at most two matmul calls (``problems._row_products``);
numpy runs them point by point, so A is still read once per point: a batch
saves hand-offs and calls, not reads of A. A full batch goes to the run's
executor, a ``concurrent.futures.ThreadPoolExecutor`` with one worker,
which takes the passes in order while the loop steps on: the pass's matmul
calls, subtraction and least-absolute reductions release the GIL, so a
second core runs them beside the steps (they are about a fifth of a
``lad-proxrm`` run on one core). Before it hands over a batch, the loop
waits for the pass ``_PASSES_IN_FLIGHT + 1`` batches back, so at most
``_PASSES_IN_FLIGHT + 1`` batches are handed over and unfinished and memory
stays bounded for any N and stride. The rest of the points go when the run ends and before a
diverged run returns; the main thread then reads the values of the passes
in order and builds the checkpoints. Each value is bitwise the one
``objective`` gives at that point (see ``problems._objective_values``), on
whichever thread. A pass allocates its own residual, sets its own numpy
error state, which numpy keeps per thread, and calls only private
functions. ``run`` raises a failed pass's exception when the loop next
waits for that pass, or at the end of the run, after the passes already
handed over have run: leaving the executor waits for its worker, after an
exception in the loop as well, so no thread outlives a run.
Row indices and the schedule values alpha_k, theta_k come in blocks of at
most ``_DRAW_BLOCK`` steps, so memory stays bounded for any N; the
schedules' ``block`` applies their scalar formula per index, so the values
equal ``at(k)`` bit for bit. ``_steps`` yields each block as one iterator
and ``run`` loops over the blocks and then over their steps, so a step
resumes no generator.

Finiteness is decided by the residual the step forms anyway. v_{k-1} is
known to be finite, so a non-finite v_k makes x_{k+1} = v_k + theta_k (v_k -
v_{k-1}) non-finite (+-inf stays +-inf for theta > 0, inf + 0 inf is nan for
theta = 0, nan stays nan; a momentum-free run takes v_k itself), and the dot
a_i.x_{k+1} then takes in a nan or +-inf product (0 inf is nan for a zero
row entry): a finite r_k certifies v_k. Only a non-finite r_k runs
``np.isfinite(v_k).all()``, which keeps a finite iterate whose residual
overflows; if it fails, the run ends with diverged_at = k. Every checkpoint,
N included, runs that entry-wise check before it records, so no non-finite
iterate is recorded and the last iterate is always checked. Instrumentation
records step k only after v_k passed.

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
from ._format import _fmt
from ._rng import RNG_ID, STREAM_RUN, make_generator, normals
from .errors import ConfigurationError, _count, _quote
from .problems import (
    ConstraintSet,
    ProblemInstance,
    _norm,
    _objective_values,
    _pass_shape,
    _prox_gamma,
    _subgrad_scale,
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
# checkpoints a run may record; each adds a point to a batched objective pass
_MAX_CHECKPOINTS = 1 << 20
# largest iteration budget N: step indices stay exact in float64
_MAX_ITERATIONS = 1 << 53
# steps per block of row indices and schedule values: 128 KB of int64 and
# two 16384-entry float lists at most
_DRAW_BLOCK = 1 << 14
# batches of checkpoint points that may wait for a run's pass worker beside
# the one it is taking; the loop waits for the oldest before one more
_PASSES_IN_FLIGHT = 4


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
    diverged_at: int | None = None
    instrumentation: list[tuple[int, float, float]] | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

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
        return ("method",), f"unknown method {_quote(method)} (known: {', '.join(METHODS)})"
    if not 2 <= iterations <= _MAX_ITERATIONS:
        # the schedules evaluate k + s in float64, which is exact up to 2^53 only
        return ("N",), f"iteration budget N must lie in [2, 2^53], got {_count(iterations)}"
    if not 1.0 < stride < math.inf:
        return ("stride",), f"checkpoint stride must be finite and exceed 1, got {stride}"
    if composite_order not in COMPOSITE_ORDERS:
        known = ", ".join(COMPOSITE_ORDERS)
        return ("composite.order",), (
            f"unknown composite order {_quote(composite_order)} (known: {known})"
        )
    if init not in INITS:
        return ("init",), f"unknown init {_quote(init)} (known: {', '.join(INITS)})"
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
    """Blocks of at most ``_DRAW_BLOCK`` steps, each an iterator of (k,
    0-based row index, alpha_k, theta_k), together for k = 2 .. N - 1. The
    indices equal one scalar draw per step and the schedule values equal
    ``at(k)``. A block is drawn only when the one before it is used up."""
    stop = config.iterations
    for start in range(2, stop, _DRAW_BLOCK):
        count = min(_DRAW_BLOCK, stop - start)
        yield zip(
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
        "valid.mom_lo": _fmt(lo),
        "valid.mom_hi": _fmt(hi),
        "valid.mom_nonincreasing": str(cfg.momentum.is_nonincreasing).lower(),
        "hypothesis_profile": profile,
    }


def run(config: SolverConfig, inst: ProblemInstance) -> SolverTrace:
    """Run the configured method to iterate index N and collect checkpoints.

    Checkpoints land on k in {1, 2} cup {geometric stride} cup {N} and record
    dist to the reference optimum, objective gap, iterate increment, and the
    schedule values at that index; more than _MAX_CHECKPOINTS of them are
    refused before the first step. The first non-finite iterate v_j ends the
    run early: the trace keeps the checkpoints so far, with diverged_at = j
    (so diverged is true).
    """
    # imported here, not at the top: it pulls in logging, which ``import
    # nagsa.cli``, the algebra table and the lemma suite would load for nothing
    import concurrent.futures

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
    # theta_k = 0 at every k: the step takes x_{k+1} = v_k and skips the
    # extrapolation (see the module docstring)
    momentum_free = config.momentum.bounds[1] == 0.0
    ref = inst.reference_optimum
    # the rows, targets, squared row norms and objective at the reference,
    # built once per instance and shared by all its runs
    rows, targets, norms, f_ref = inst._run_table
    g = make_generator(STREAM_RUN, config.seed)
    # the iterate ring: v_{k-1}, v_k and the spare that v_{k+1} is written
    # into; every step overwrites the spare and rotates the three, so the
    # start v_1 = v_2 needs two buffers
    v_curr = normals(g, inst.n) if config.init == "gaussian" else np.zeros(inst.n)
    v_prev = v_curr.copy()
    spare = np.empty(inst.n)
    # scratch for x_{k+1} and for the scaled row, and a 0-d array that holds
    # each scalar factor: numpy multiplies by a float64 array faster than by
    # a Python float, and the product is the same
    x = np.empty(inst.n)
    scaled = np.empty(inst.n)
    coef = np.empty(())
    # the marks after 1 and 2 in increasing order: the loop compares k + 1
    # with the next one and advances on a hit (0, which no k + 1 equals,
    # after the last)
    marks = itertools.islice(_checkpoint_indices(config.iterations, config.stride), 2, None)
    mark = next(marks, 0)
    checkpoints: list[Checkpoint] = []
    instrumentation: list[tuple[int, float, float]] | None = (
        [] if config.instrument else None
    )
    # checkpoint objectives are taken in batches: a recorded iterate waits in
    # ``pending`` until the batch is full, which then goes to the run's
    # worker thread for one blocked pass over A, and a fresh buffer takes the
    # next points; the rest go when the run ends or diverges, and the
    # checkpoints are built from the passes' values in order
    batch = _pass_shape(inst.m, inst.n)[0]
    pending = np.empty((batch, inst.n))
    held: list[tuple[int, float, float, float, float]] = []
    values: list[float] = []
    passes: list[concurrent.futures.Future] = []

    def hand_over(points: np.ndarray) -> None:
        # the worker takes the passes in order, so waiting for the oldest
        # keeps at most _PASSES_IN_FLIGHT + 1 unfinished; its result() raises
        # the pass's exception, if any. The caller leaves ``points`` alone
        if len(passes) > _PASSES_IN_FLIGHT:
            values.extend(passes.pop(0).result())
        passes.append(pool.submit(_objective_values, inst, points))

    def record(k: int, v_curr: np.ndarray, v_prev: np.ndarray) -> None:
        nonlocal pending
        filled = len(held) % batch
        pending[filled] = v_curr
        held.append(
            (
                k,
                _norm(v_curr - ref),
                _norm(v_curr - v_prev),
                config.step.at(k),
                config.momentum.at(k),
            )
        )
        if filled + 1 == batch:
            hand_over(pending)
            pending = np.empty((batch, inst.n))

    def finish() -> None:
        rest = len(held) % batch
        if rest:
            hand_over(pending[:rest])
        for future in passes:
            values.extend(future.result())
        for (k, dist, increment, alpha, theta), value in zip(held, values):
            checkpoints.append(
                Checkpoint(
                    k=k,
                    dist=dist,
                    obj_gap=value - f_ref,
                    increment=increment,
                    alpha=alpha,
                    theta=theta,
                )
            )

    metadata = {
        "package": f"nagsa {__version__}",
        "rng": RNG_ID,
        "method": config.method,
        "kind": inst.kind,
        "m": str(inst.m),
        "n": str(inst.n),
        "problem_seed": str(inst.seed),
        "lambda": _fmt(inst.lam),
        "seed": str(config.seed),
        "N": str(config.iterations),
        "stride": _fmt(config.stride),
        "init": config.init,
        "constraint": config.constraint.kind,
        "step.family": config.step.family,
        "step.c": _fmt(config.step.c),
        "step.s": _fmt(config.step.s),
        "step.p": _fmt(config.step.p),
        "mom.family": config.momentum.family,
        "mom.theta": _fmt(config.momentum.theta),
        "mom.s": _fmt(config.momentum.s),
    }
    if config.method == "composite":
        metadata["composite.order"] = config.composite_order
    metadata.update(_validity_metadata(config))

    trace = SolverTrace(
        checkpoints=checkpoints, metadata=metadata, instrumentation=instrumentation
    )
    absolute = inst.kind == "least_absolute"
    composite = config.method == "composite"
    proximal = config.method == "prox_rm" or (
        composite and config.composite_order == "implicit_first"
    )
    lam = inst.lam
    constraint = None if config.constraint.kind == "whole_space" else config.constraint
    # the step's ufuncs, looked up once: on vectors of n = 20 to 100 entries a
    # step is a handful of calls, and the lookups are a measurable part of it
    subtract, multiply, add = np.subtract, np.multiply, np.add

    def diverged(k: int) -> SolverTrace:
        finish()
        trace.diverged_at = k
        return trace

    # exploding iterates are caught by the finiteness checks, so the
    # intermediate overflow warnings are noise; leaving the block waits for
    # the worker, after an exception in the loop too, so no thread outlives
    # the run
    with (
        np.errstate(over="ignore", invalid="ignore"),
        concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool,
    ):
        record(1, v_curr, v_prev)
        record(2, v_curr, v_prev)
        for block in _steps(config, inst, g):
            for k, i, alpha, theta in block:
                # (1 + theta) v_k - theta v_{k-1} in increment form: an exact
                # no-op when the two iterates coincide (the first step, by
                # construction), and the step identity ||x - v_k|| = theta
                # ||v_k - v_{k-1}|| stays tight at rounding scale; the expanded
                # form loses both to cancellation
                if momentum_free:
                    x = v_curr
                else:
                    subtract(v_curr, v_prev, x)
                    coef[()] = theta
                    multiply(x, coef, x)
                    add(v_curr, x, x)
                a = rows[i]
                r = float(a.dot(x)) - targets[i]
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
                # every stage writes into the spare; what a stage returns as a
                # new array is copied in, so neither x nor a returned array
                # enters the ring
                if proximal:
                    gamma = _prox_gamma(r, norms[i], alpha, absolute)
                    if gamma is None:
                        np.copyto(spare, x)
                    else:
                        coef[()] = gamma
                        multiply(a, coef, scaled)
                        subtract(x, scaled, spare)
                else:
                    coef[()] = _subgrad_scale(r, absolute)
                    multiply(a, coef, scaled)
                    coef[()] = alpha
                    multiply(scaled, coef, scaled)
                    subtract(x, scaled, spare)
                if composite:
                    if proximal:
                        # implicit_first: an l1 subgradient step, with sign(0) = 0
                        np.sign(spare, scaled)
                        coef[()] = alpha * lam
                        multiply(scaled, coef, scaled)
                        subtract(spare, scaled, spare)
                    else:
                        np.copyto(spare, prox_l1(spare, alpha * lam))
                if constraint is not None:
                    v = project(spare, constraint)
                    if v is not spare:
                        np.copyto(spare, v)
                v_prev, v_curr, spare = v_curr, spare, v_prev
                if k + 1 == mark:
                    if not np.isfinite(v_curr).all():
                        return diverged(k + 1)
                    record(k + 1, v_curr, v_prev)
                    mark = next(marks, 0)
        finish()
    return trace
