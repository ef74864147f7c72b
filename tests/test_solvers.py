"""Single steps against hand-computed values (read off every-step
checkpoints of short runs), whole runs against an independent in-test
reference loop, and the solver contract details:
checkpoint placement, divergence flagging, constraint feasibility, and the
extrapolation identity."""

import concurrent.futures
import dataclasses
import functools
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagsa import problems, solvers
from nagsa._rng import STREAM_RUN, make_generator, normals
from nagsa.errors import ConfigurationError
from nagsa.problems import (
    ProblemInstance,
    ball,
    box,
    gen,
    lasso_reference,
    objective,
    with_reference,
)
from nagsa.schedules import MomentumSchedule, StepSchedule
from nagsa.solvers import (
    _DRAW_BLOCK,
    _MAX_CHECKPOINTS,
    SolverConfig,
    _checkpoint_fault,
    _checkpoint_indices,
    _steps,
    run,
)


def _hand_instance(kind, rows, targets, lam=0.0):
    return ProblemInstance(
        kind=kind,
        rows=np.asarray(rows, dtype=float),
        targets=np.asarray(targets, dtype=float),
        lam=lam,
        seed=0,
    )


def _origin_referenced(inst):
    """The instance with its reference moved to the origin, so dist is ||v_k||
    (|v_k| when n = 1)."""
    return with_reference(inst, np.zeros(inst.n))


def _every_step(method, inst, alpha, theta, iterations=6, seed=2, **kw):
    """Constant-step run whose stride just above 1 checkpoints every k.

    Seed 2 starts from v_1 = v_2 = -0.98957... when n = 1.
    """
    config = SolverConfig(
        method=method,
        step=StepSchedule("constant", alpha),
        momentum=MomentumSchedule("constant", theta=theta),
        iterations=iterations,
        seed=seed,
        stride=1.0 + 1e-9,
        **kw,
    )
    trace = run(config, inst)
    assert [cp.k for cp in trace.checkpoints] == list(range(1, len(trace.checkpoints) + 1))
    return trace


def _dists(trace):
    return {cp.k: cp.dist for cp in trace.checkpoints}


def test_ssgd_step_hand_case():
    # single row 1, b = 0: gradient 2 v, so every step maps v to 0.8 v
    inst = _origin_referenced(_hand_instance("least_squares", [[1.0]], [0.0]))
    trace = _every_step("ssgd", inst, alpha=0.1, theta=0.0)
    dist = _dists(trace)
    assert dist[1] == dist[2] > 0.5
    for k in range(3, 7):
        assert dist[k] == pytest.approx(0.8 * dist[k - 1], rel=1e-14)
    assert trace.checkpoints[2].increment == pytest.approx(0.2 * dist[2], rel=1e-14)


def test_ssgd_step_momentum_noop_on_equal_pair():
    # v_1 = v_2 makes the first extrapolation exact, so theta plays no role yet
    inst = _origin_referenced(_hand_instance("least_squares", [[1.0]], [0.0]))
    with_momentum = _dists(_every_step("ssgd", inst, alpha=0.1, theta=0.5))
    without = _dists(_every_step("ssgd", inst, alpha=0.1, theta=0.0))
    assert with_momentum[3] == without[3]
    assert with_momentum[4] != without[4]


def test_prox_rm_step_hand_case():
    # generous alpha zeroes the absolute-deviation residual outright
    inst = _origin_referenced(_hand_instance("least_absolute", [[1.0]], [0.0]))
    trace = _every_step("prox_rm", inst, alpha=10.0, theta=0.0)
    dist = _dists(trace)
    assert dist[3] == 0.0
    assert trace.checkpoints[2].increment == dist[2]


def test_composite_step_explicit_first():
    # gradient step to 0.8 v, then soft threshold by alpha lambda = 0.1
    inst = _origin_referenced(_hand_instance("lasso", [[1.0]], [0.0], lam=1.0))
    dist = _dists(_every_step("composite", inst, alpha=0.1, theta=0.0))
    for k in range(3, 7):
        assert dist[k] == pytest.approx(max(0.8 * dist[k - 1] - 0.1, 0.0), rel=1e-12)
    assert dist[6] > 0.0


def test_composite_step_implicit_first():
    # proximal quadratic step to 5/6 v, then subtract alpha lambda sign(v)
    inst = _origin_referenced(_hand_instance("lasso", [[1.0]], [0.0], lam=1.0))
    dist = _dists(
        _every_step("composite", inst, alpha=0.1, theta=0.0, composite_order="implicit_first")
    )
    for k in range(3, 7):
        assert dist[k] == pytest.approx(abs(5.0 / 6.0 * dist[k - 1] - 0.1), rel=1e-12)


@pytest.mark.parametrize("kind", ["least_squares", "least_absolute"])
def test_steps_fix_the_optimum(kind):
    # zero targets put an optimum at the origin; a run started there stays,
    # momentum included
    rows = gen(kind, m=1, n=4, seed=5).rows
    inst = _origin_referenced(_hand_instance(kind, rows, [0.0]))
    for method in ("ssgd", "prox_rm"):
        trace = _every_step(method, inst, alpha=0.3, theta=0.7, iterations=20, init="zeros")
        assert all(cp.dist == 0.0 for cp in trace.checkpoints)


def test_divergence_records_first_nonfinite_step():
    # v_3 = (1 - 2e200) v_2 is still finite, and so is its residual, which
    # certifies it; the step to v_4 overflows, and the entry-wise check that
    # precedes every checkpoint ends the trace after the checkpoint at k = 3,
    # whose distance and increment are recorded without overflow
    inst = _origin_referenced(_hand_instance("least_squares", [[1.0]], [0.0]))
    with np.errstate(over="ignore"):
        trace = _every_step("ssgd", inst, alpha=1e200, theta=0.0, iterations=10)
    assert trace.diverged
    assert trace.diverged_at == 4
    assert [cp.k for cp in trace.checkpoints] == [1, 2, 3]
    last = trace.checkpoints[2]
    v_2 = trace.checkpoints[1].dist
    assert last.dist == pytest.approx((2e200 - 1.0) * v_2, rel=1e-15)
    assert last.increment == pytest.approx(2e200 * v_2, rel=1e-15)


# ---------------------------------------------------------------------------
# whole runs


def _small_config(method="ssgd", theta=0.5, iterations=300, seed=1, **kw):
    return SolverConfig(
        method=method,
        step=StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=MomentumSchedule("constant", theta=theta),
        iterations=iterations,
        seed=seed,
        **kw,
    )


@dataclasses.dataclass(frozen=True)
class _Case:
    """A whole run on the 50 x 6 instance of its kind (problem seed 8, run
    seed 4). ``variant`` is an ssgd constraint ("ball" of radius ``bound``,
    "box" of half-width ``bound``) or a composite order; ``step`` is a
    constant step size (None: the power step of ``_small_config``) and
    ``theta`` a constant momentum (None: harmonic momentum, 1 / (k + 2)),
    which ``power`` = (c, s, p) replaces by power momentum c / (k + s)^p."""

    method: str
    kind: str
    variant: str | None = None
    bound: float = 0.0
    step: float | None = None
    theta: float | None = 0.5
    iterations: int = 300
    diverges: bool = False
    power: tuple[float, float, float] | None = None


@functools.cache
def _case_instance(kind):
    if kind == "lasso":
        inst = gen("lasso", m=50, n=6, seed=8, lam=0.3)
        return with_reference(inst, lasso_reference(inst))
    return gen(kind, m=50, n=6, seed=8)


def _case_config(case, **kw):
    if case.variant == "ball":
        kw["constraint"] = ball(case.bound)
    elif case.variant == "box":
        kw["constraint"] = box(np.full(6, -case.bound), np.full(6, case.bound))
    elif case.variant is not None:
        kw["composite_order"] = case.variant
    config = _small_config(method=case.method, iterations=case.iterations, seed=4, **kw)
    if case.step is not None:
        config = dataclasses.replace(config, step=StepSchedule("constant", case.step))
    if case.power is not None:
        c, s, p = case.power
        return dataclasses.replace(config, momentum=MomentumSchedule("power", c=c, s=s, p=p))
    if case.theta is None:
        return dataclasses.replace(config, momentum=MomentumSchedule("harmonic", s=2.0))
    return dataclasses.replace(config, momentum=MomentumSchedule("constant", theta=case.theta))


def _reference_update(case, inst, x, i, alpha):
    """One update rule written out from the documented formulas, with the
    solver's operation order, so the comparison below can be bitwise."""
    a = inst.rows[i - 1]
    r = float(a @ x - inst.targets[i - 1])
    if case.method == "ssgd":
        g = np.sign(r) * a if case.kind == "least_absolute" else (2.0 * r) * a
        y = x - alpha * g
        if case.variant == "ball":
            # the true distance, also where squaring it overflows
            dist = _reference_norm(y)
            return y if dist <= case.bound * (1.0 + 1e-12) else (case.bound / dist) * y
        if case.variant == "box":
            return np.clip(y, -case.bound, case.bound)
        return y
    q = float(a @ a)
    if case.method == "prox_rm" or case.variant == "implicit_first":
        if q == 0.0:
            # a zero row leaves x unchanged
            v = x.copy()
        else:
            if case.kind == "least_absolute":
                gamma = np.sign(r) * min(alpha, abs(r) / q)
            else:
                gamma = 2.0 * alpha * r / (1.0 + 2.0 * alpha * q)
            v = x - gamma * a
        if case.method == "prox_rm":
            return v
        return v - alpha * inst.lam * np.sign(v)
    v = x - alpha * ((2.0 * r) * a)
    return np.sign(v) * np.maximum(np.abs(v) - alpha * inst.lam, 0.0)


def _reference_norm(v):
    """The documented checkpoint norm: the plain one, or s ||v / s|| with
    s = max_j |v_j| when the plain one overflows on a finite vector."""
    out = float(np.linalg.norm(v))
    if out == np.inf and np.isfinite(v).all():
        s = float(np.abs(v).max())
        out = s * float(np.linalg.norm(v / s))
    return out


def _reference_run(case, inst, iterates=None):
    """({k: (dist, increment)} for every finite v_k, diverged_at) of an
    independent loop over the run stream: one scalar row draw per step and
    an entry-wise finiteness check of every new iterate. ``iterates``, when
    given, receives {k: v_k} for the same k."""
    g = make_generator(STREAM_RUN, 4)
    v_prev = v = normals(g, inst.n)
    ref = inst.reference_optimum
    expected = {1: (_reference_norm(v - ref), 0.0), 2: (_reference_norm(v - ref), 0.0)}
    if iterates is not None:
        iterates[1] = iterates[2] = v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, case.iterations):
            if case.step is None:
                alpha = (1.0 / 16.0) / (k + 3.0) ** (8.0 / 9.0)
            else:
                alpha = case.step
            if case.power is not None:
                c, s, p = case.power
                theta = c / (k + s) ** p
            else:
                theta = 1.0 / (k + 2.0) if case.theta is None else case.theta
            x = v + theta * (v - v_prev)
            i = int(g.integers(1, inst.m + 1))
            v_next = _reference_update(case, inst, x, i, alpha)
            if not np.isfinite(v_next).all():
                return expected, k + 1
            v_prev, v = v, v_next
            expected[k + 1] = (_reference_norm(v - ref), _reference_norm(v - v_prev))
            if iterates is not None:
                iterates[k + 1] = v
    return expected, None


def _assert_run_matches_reference(case, inst=None, **kw):
    """The run of ``case`` (on ``inst``, default its case instance; ``kw``
    go to its config) against the reference loop."""
    inst = _case_instance(case.kind) if inst is None else inst
    config = _case_config(case, **kw)
    trace = run(config, inst)
    expected, diverged_at = _reference_run(case, inst)
    assert trace.diverged_at == diverged_at
    assert trace.diverged == (diverged_at is not None)
    # a run that does not diverge checkpoints every mark; a diverged one stops early
    marks = _checkpoint_indices(case.iterations, config.stride)
    assert [cp.k for cp in trace.checkpoints] == [k for k in marks if k in expected]
    for cp in trace.checkpoints:
        assert (cp.dist, cp.increment) == expected[cp.k], f"checkpoint {cp.k} left the reference"
    return trace


_CASES = {
    "ssgd-least_squares-none": _Case("ssgd", "least_squares"),
    "ssgd-least_squares-ball": _Case("ssgd", "least_squares", "ball", 0.5),
    "ssgd-least_squares-box": _Case("ssgd", "least_squares", "box", 0.25),
    "ssgd-least_squares-harmonic": _Case("ssgd", "least_squares", theta=None),
    "ssgd-least_squares-harmonic-long": _Case(
        "ssgd", "least_squares", theta=None, iterations=_DRAW_BLOCK + 300
    ),
    "ssgd-least_squares-diverging": _Case("ssgd", "least_squares", step=2.0, diverges=True),
    "ssgd-least_absolute-none": _Case("ssgd", "least_absolute"),
    "prox_rm-least_squares": _Case("prox_rm", "least_squares"),
    "prox_rm-least_absolute": _Case("prox_rm", "least_absolute"),
    "composite-lasso-explicit_first": _Case("composite", "lasso", "explicit_first"),
    "composite-lasso-implicit_first": _Case("composite", "lasso", "implicit_first"),
    # every update rule of _RULES below at theta = 0, where the step takes
    # x_{k+1} = v_k without extrapolating, and a theta = 0 schedule outside
    # the constant family
    "ssgd-least_squares-theta0": _Case("ssgd", "least_squares", theta=0.0),
    "ssgd-least_squares-ball-theta0": _Case("ssgd", "least_squares", "ball", 0.5, theta=0.0),
    "ssgd-least_squares-box-theta0": _Case("ssgd", "least_squares", "box", 0.25, theta=0.0),
    "ssgd-least_squares-wide-box-theta0": _Case(
        "ssgd", "least_squares", "box", 1e307, theta=0.0
    ),
    "ssgd-least_absolute-theta0": _Case("ssgd", "least_absolute", theta=0.0),
    "ssgd-least_absolute-ball-theta0": _Case("ssgd", "least_absolute", "ball", 0.5, theta=0.0),
    "ssgd-least_absolute-box-theta0": _Case("ssgd", "least_absolute", "box", 0.25, theta=0.0),
    "ssgd-least_absolute-wide-box-theta0": _Case(
        "ssgd", "least_absolute", "box", 1e307, theta=0.0
    ),
    "prox_rm-least_squares-theta0": _Case("prox_rm", "least_squares", theta=0.0),
    "prox_rm-least_absolute-theta0": _Case("prox_rm", "least_absolute", theta=0.0),
    "composite-lasso-explicit_first-theta0": _Case(
        "composite", "lasso", "explicit_first", theta=0.0
    ),
    "composite-lasso-implicit_first-theta0": _Case(
        "composite", "lasso", "implicit_first", theta=0.0
    ),
    "prox_rm-least_absolute-power-c0": _Case(
        "prox_rm", "least_absolute", power=(0.0, 1.0, 0.5)
    ),
    # runs that end in divergence, and one whose residuals overflow on finite
    # iterates: the box keeps every iterate finite near +-1e307
    "ssgd-least_squares-theta0-diverging": _Case(
        "ssgd", "least_squares", step=2.0, theta=0.0, diverges=True
    ),
    "ssgd-least_squares-ball-diverging": _Case(
        "ssgd", "least_squares", "ball", 0.5, step=1e307, diverges=True
    ),
    "ssgd-least_squares-box-overflow": _Case("ssgd", "least_squares", "box", 1e307, step=1e306),
    "ssgd-least_absolute-diverging": _Case(
        "ssgd", "least_absolute", step=1e306, theta=0.99, diverges=True
    ),
    "prox_rm-least_squares-diverging": _Case(
        "prox_rm", "least_squares", step=1e306, theta=0.9, diverges=True
    ),
    "prox_rm-least_absolute-diverging": _Case(
        "prox_rm", "least_absolute", step=1e306, theta=0.99, iterations=5000, diverges=True
    ),
    "composite-lasso-explicit_first-diverging": _Case(
        "composite", "lasso", "explicit_first", step=3.0, diverges=True
    ),
    "composite-lasso-implicit_first-diverging": _Case(
        "composite", "lasso", "implicit_first", step=1e300, diverges=True
    ),
}


@pytest.mark.parametrize("case_id", list(_CASES))
def test_run_matches_reference_loop(case_id):
    """An independent loop over the same stream, one scalar row draw per step
    and an exact finiteness check of every iterate, must reproduce every
    checkpoint distance and increment bitwise, momentum included, and a
    diverging run must stop at the same step. The long case runs past the
    first block of row draws and schedule values."""
    case = _CASES[case_id]
    trace = _assert_run_matches_reference(case)
    assert trace.diverged == case.diverges


# every update rule, ssgd under each constraint kind; the wide box lets
# finite iterates reach the overflow range
_RULES = [
    _Case("ssgd", kind, variant, bound)
    for kind in ("least_squares", "least_absolute")
    for variant, bound in ((None, 0.0), ("ball", 0.5), ("box", 0.25), ("box", 1e307))
] + [
    _Case("prox_rm", "least_squares"),
    _Case("prox_rm", "least_absolute"),
    _Case("composite", "lasso", "explicit_first"),
    _Case("composite", "lasso", "implicit_first"),
]


@settings(max_examples=100)
@given(
    rule=st.sampled_from(_RULES),
    theta=st.sampled_from([0.0, 0.5, 0.9]),
    exponent=st.floats(0.0, 306.0),
)
def test_run_divergence_matches_exact_reference(rule, theta, exponent):
    """For any update rule, momentum and constant step in [1, 1e306], the
    run stops at the reference loop's first non-finite iterate and records
    the same checkpoints bit for bit."""
    step = min(10.0**exponent, 1e306)
    _assert_run_matches_reference(
        dataclasses.replace(rule, step=step, theta=theta, iterations=120)
    )


# runs on 3000 x 100 instances, whose objective pass takes three row blocks
# (1280, 1280 and 440 rows) and checkpoints in batches of 43
_PASS_CASES = {
    "ssgd-least_squares": _Case("ssgd", "least_squares", step=1e-6),
    "prox_rm-least_absolute": _Case("prox_rm", "least_absolute"),
    "composite-lasso": _Case("composite", "lasso", "explicit_first", step=1e-4),
    "ssgd-least_squares-diverging": _Case("ssgd", "least_squares", step=1.0, diverges=True),
}


@functools.cache
def _pass_instance(kind):
    if kind == "lasso":
        # any reference serves: the gaps are taken against its objective
        inst = gen("lasso", m=3000, n=100, seed=8, lam=0.3)
        return with_reference(inst, np.full(100, 0.25))
    return gen(kind, m=3000, n=100, seed=8)


@pytest.mark.parametrize("case_id", list(_PASS_CASES))
def test_checkpoint_objectives_equal_per_point_objectives(case_id):
    """Over three row blocks and several batches, every checkpoint's obj_gap
    equals objective(v_k) - objective(ref) bit for bit at the reference
    loop's v_k. The diverging run ends with a part-filled batch, which it
    must flush before it returns."""
    case = _PASS_CASES[case_id]
    inst = _pass_instance(case.kind)
    assert problems._pass_shape(inst.m, inst.n) == (43, 1280)
    trace = _assert_run_matches_reference(case, inst, stride=1.0 + 1e-9)
    assert trace.diverged == case.diverges
    if case.diverges:
        assert len(trace.checkpoints) % 43 != 0
    iterates = {}
    _reference_run(case, inst, iterates)
    f_ref = objective(inst, inst.reference_optimum)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [objective(inst, iterates[cp.k]) - f_ref for cp in trace.checkpoints]
    assert [cp.obj_gap.hex() for cp in trace.checkpoints] == [gap.hex() for gap in gaps]


@pytest.mark.parametrize("case_id", [name for name, case in _CASES.items() if case.diverges])
def test_diverging_run_instruments_steps_before_divergence(case_id):
    """Instrumentation covers exactly the steps k = 2 .. diverged_at - 1: those
    that extrapolate from finite iterates, the last of which produces the
    first non-finite one."""
    case = _CASES[case_id]
    trace = run(_case_config(case, instrument=True), _case_instance(case.kind))
    assert trace.diverged_at is not None
    assert [k for k, _, _ in trace.instrumentation] == list(range(2, trace.diverged_at))


def _zero_row_instance(kind):
    """The case instance of kind with its first ten rows and their targets
    zeroed: about a fifth of the steps sample a row with ||a||^2 = 0."""
    inst = _case_instance(kind)
    rows = inst.rows.copy()
    targets = inst.targets.copy()
    rows[:10] = 0.0
    targets[:10] = 0.0
    return dataclasses.replace(inst, rows=rows, targets=targets)


def _origin_case_instance(kind):
    return _origin_referenced(_case_instance(kind))


# runs whose stages return a copy of x (a zero row under prox_rm), their
# argument (a ball projection from inside), a new array (from outside, every
# box clip, the soft threshold) or write in place (implicit_first's l1 step)
_RING_CASES = {
    "prox_rm-least_squares-zero-rows": (_Case("prox_rm", "least_squares"), _zero_row_instance),
    "prox_rm-least_absolute-zero-rows": (_Case("prox_rm", "least_absolute"), _zero_row_instance),
    "ssgd-ball": (_Case("ssgd", "least_squares", "ball", 0.5), _origin_case_instance),
    "ssgd-box": (_Case("ssgd", "least_squares", "box", 0.25), _case_instance),
    "composite-explicit_first": (_Case("composite", "lasso", "explicit_first"), _case_instance),
    "composite-implicit_first": (_Case("composite", "lasso", "implicit_first"), _case_instance),
}


@pytest.mark.parametrize("instrument", [False, True])
@pytest.mark.parametrize("case_id", list(_RING_CASES))
def test_iterate_ring_matches_reference_at_every_step(case_id, instrument):
    """Each step writes v_{k+1} into the spare buffer of the iterate ring,
    whatever its stages return; a stage output or x adopted into the ring
    would be overwritten by a later step. Checkpointed at every k, the run
    equals the reference loop bit for bit, with instrumentation on or off."""
    case, make_instance = _RING_CASES[case_id]
    trace = _assert_run_matches_reference(
        case, make_instance(case.kind), stride=1.0 + 1e-9, instrument=instrument
    )
    assert len(trace.checkpoints) == case.iterations


def test_ring_cases_reach_every_stage_branch():
    """The zero-row runs sample zero rows, and the ball run has steps that
    land inside the ball (projection returns its argument) and steps
    projected onto its sphere (a new array)."""
    g = make_generator(STREAM_RUN, 4)
    normals(g, 6)
    assert (g.integers(1, 51, size=298) <= 10).sum() >= 20
    case, make_instance = _RING_CASES["ssgd-ball"]
    trace = run(_case_config(case, stride=1.0 + 1e-9), make_instance(case.kind))
    # the reference is the center, so dist is ||v_k||
    dists = [cp.dist for cp in trace.checkpoints[2:]]
    assert sum(d < 0.999 * case.bound for d in dists) >= 50
    assert sum(abs(d - case.bound) <= 1e-12 * case.bound for d in dists) >= 50


def test_runs_share_no_state():
    """Running A, then B, then A again gives two equal A traces: every run
    owns its buffers."""
    def once(case_id):
        case, make_instance = _RING_CASES[case_id]
        return run(_case_config(case, instrument=True), make_instance(case.kind))

    first = once("ssgd-ball")
    once("prox_rm-least_absolute-zero-rows")
    again = once("ssgd-ball")
    assert first.checkpoints == again.checkpoints
    assert first.instrumentation == again.instrumentation


def _checkpoint_bits(trace):
    """(diverged_at, every checkpoint field as exact bits)."""
    fields = [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(cp))
        for cp in trace.checkpoints
    ]
    return trace.diverged_at, fields


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize(
    "case",
    _RULES + [case for case in _CASES.values() if case.diverges],
    ids=lambda case: f"{case.method}-{case.kind}-{case.variant}-{case.bound}-{case.step}-{case.theta}",
)
def test_queued_passes_keep_the_checkpoint_bits(case, batch, monkeypatch):
    """Checkpointed at every k in batches of 1 to 3 points, a run hands its
    helper up to hundreds of passes, which queue up to the in-flight bound;
    every trace, diverged ones included, equals the run in full-size
    batches bit for bit."""
    config = _case_config(case, stride=1.0 + 1e-9)
    inst = _case_instance(case.kind)
    expected = _checkpoint_bits(run(config, inst))
    shape = problems._pass_shape(inst.m, inst.n)
    monkeypatch.setattr(solvers, "_pass_shape", lambda m, n: (batch, shape[1]))
    assert _checkpoint_bits(run(config, inst)) == expected
    assert (expected[0] is not None) == case.diverges


def test_loop_waits_while_the_queue_is_full(monkeypatch):
    """With passes slower than the steps, the batches handed over and not
    yet finished reach _PASSES_IN_FLIGHT + 1 (the queue and the pass under
    way) and the loop then waits for the worker, so they never pass it for
    any N and stride."""
    handed = []
    finished = []
    unfinished = []
    submit = concurrent.futures.ThreadPoolExecutor.submit
    values = solvers._objective_values

    def counted(self, fn, *args):
        handed.append(fn)
        future = submit(self, fn, *args)
        unfinished.append(len(handed) - len(finished))
        return future

    def slow(inst, points):
        unfinished.append(len(handed) - len(finished))
        time.sleep(0.001)
        result = values(inst, points)
        finished.append(result)
        return result

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", counted)
    monkeypatch.setattr(solvers, "_objective_values", slow)
    monkeypatch.setattr(solvers, "_pass_shape", lambda m, n: (1, 64))
    trace = run(_small_config(iterations=100, stride=1.0 + 1e-9), _case_instance("least_squares"))
    assert len(trace.checkpoints) == len(handed) == len(finished) == 100
    assert max(unfinished) == solvers._PASSES_IN_FLIGHT + 1


def test_finished_and_diverged_runs_leave_no_thread():
    before = threading.active_count()
    assert not run(_small_config(), _case_instance("least_squares")).diverged
    assert threading.active_count() == before
    case = _CASES["ssgd-least_squares-diverging"]
    assert run(_case_config(case), _case_instance(case.kind)).diverged
    assert threading.active_count() == before


def test_runs_on_one_instance_share_its_run_table(monkeypatch):
    """The objective at the reference is taken once per instance, by its
    run table, however many runs follow, and the runs keep the bits of runs
    on fresh instances."""
    calls = []
    objective = problems.objective

    def counted(inst, x):
        calls.append(inst)
        return objective(inst, x)

    monkeypatch.setattr(problems, "objective", counted)
    inst = gen("least_absolute", m=200, n=5, seed=4)
    configs = [_small_config(method, seed=seed) for method in ("ssgd", "prox_rm") for seed in (1, 2)]
    shared = [_checkpoint_bits(run(config, inst)) for config in configs]
    assert calls == [inst]
    fresh = [_checkpoint_bits(run(config, gen("least_absolute", 200, 5, 4))) for config in configs]
    assert shared == fresh
    assert len(calls) == 1 + len(configs)


def test_concurrent_first_runs_share_one_run_table():
    """Four runs start at once on one instance whose run table is not built
    yet, under a 10 us switch interval: each trace equals its run on a
    fresh instance bit for bit."""
    configs = [_small_config(method, seed=seed) for method in ("ssgd", "prox_rm") for seed in (1, 2)]
    expected = [_checkpoint_bits(run(config, gen("least_absolute", 200, 5, 4))) for config in configs]
    inst = gen("least_absolute", 200, 5, 4)
    got = [None] * len(configs)

    def work(j):
        got[j] = _checkpoint_bits(run(configs[j], inst))

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_changing_an_array_handed_to_an_instance_leaves_its_runs_unchanged():
    """The instance keeps a copy of a writable array, so its run table and
    its objective passes both see the values it was made with."""
    base = gen("least_squares", m=50, n=6, seed=8)
    rows, targets = base.rows.copy(), base.targets.copy()
    inst = ProblemInstance("least_squares", rows, targets, 0.0, 8, base.reference_optimum)
    config = _small_config("prox_rm")
    first = _checkpoint_bits(run(config, inst))
    rows *= 2.0
    targets += 1.0
    assert _checkpoint_bits(run(config, inst)) == first
    assert first == _checkpoint_bits(run(config, base))


def test_failed_pass_is_raised_by_run(monkeypatch):
    """A pass that raises stops the loop at its next wait for the worker:
    the passes queued after the failed one still run, at most
    _PASSES_IN_FLIGHT of them, the thread ends, and run raises the same
    exception."""
    failure = ArithmeticError("pass failed")
    calls = []
    values = solvers._objective_values

    def failing(inst, points):
        calls.append(len(points))
        if len(calls) == 2:
            raise failure
        return values(inst, points)

    monkeypatch.setattr(solvers, "_objective_values", failing)
    monkeypatch.setattr(solvers, "_pass_shape", lambda m, n: (1, 64))
    before = threading.active_count()
    config = _small_config(iterations=100, stride=1.0 + 1e-9)
    with pytest.raises(ArithmeticError) as raised:
        run(config, _case_instance("least_squares"))
    assert raised.value is failure
    assert calls[:2] == [1, 1]
    assert len(calls) <= 2 + solvers._PASSES_IN_FLIGHT
    assert threading.active_count() == before


def test_failed_step_stops_the_helper(monkeypatch):
    """An exception in the loop propagates from run after the helper has
    ended."""
    projections = []

    def failing(v, constraint):
        projections.append(v)
        if len(projections) == 150:
            raise FloatingPointError("projection failed")
        return v

    monkeypatch.setattr(solvers, "project", failing)
    monkeypatch.setattr(solvers, "_pass_shape", lambda m, n: (2, 64))
    before = threading.active_count()
    config = _small_config(stride=1.0 + 1e-9, constraint=ball(0.5))
    with pytest.raises(FloatingPointError, match="projection failed"):
        run(config, _case_instance("least_squares"))
    assert len(projections) == 150
    assert threading.active_count() == before


def test_concurrent_runs_keep_their_bits(monkeypatch):
    """Four runs at once on their own threads, each with its helper and
    batches of one point, under a 10 us switch interval: every trace equals
    the run alone bit for bit, so no run reads another's queue, values or
    error, and a run started off the main thread sets its own error state."""
    cases = [_RULES[0], _RULES[5], _RULES[9], _CASES["ssgd-least_squares-diverging"]]
    monkeypatch.setattr(solvers, "_pass_shape", lambda m, n: (1, 64))

    def once(case):
        return _checkpoint_bits(run(_case_config(case, stride=1.0 + 1e-9), _case_instance(case.kind)))

    expected = [once(case) for case in cases]
    got = [None] * len(cases)

    def work(j):
        got[j] = once(cases[j])

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_pass_buffers_are_bounded_by_n():
    """On 8 rows of 65536 entries (A is 4 MiB, made before tracing), a
    200-step run traces less than A's size plus 8 MiB: a batch holds at
    most about 1 MiB of points whatever the shape of A, and at most
    _PASSES_IN_FLIGHT + 2 batches exist at once. Sized by m alone, the batch
    held 64 points (32 MiB), and the run traced 35.5 MiB."""
    inst = gen("least_squares", m=8, n=1 << 16, seed=3)
    config = _small_config(iterations=200)
    run(_small_config(iterations=3), inst)  # the first call's imports
    tracemalloc.start()
    try:
        trace = run(config, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.checkpoints) > 2 * (solvers._PASSES_IN_FLIGHT + 2)
    assert peak < inst.rows.nbytes + 8 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "iterations, stride",
    [
        (2, 1.1),
        (3, 1.1),
        (3, 1.0 + 1e-9),
        (40, 1.0 + 1e-9),
        (_DRAW_BLOCK + 2, 1.1),
        (_DRAW_BLOCK + 3, 1.1),
        (_DRAW_BLOCK + 3, 1.0 + 1e-9),
    ],
)
def test_recorded_checkpoints_walk_the_marks_in_order(iterations, stride):
    """The loop walks the marks in order, comparing k + 1 with the next one:
    a run records exactly _checkpoint_indices, at the smallest budgets, with
    every k a mark, and past the first block of draws."""
    trace = run(
        _small_config(iterations=iterations, stride=stride), _case_instance("least_squares")
    )
    assert [cp.k for cp in trace.checkpoints] == list(_checkpoint_indices(iterations, stride))


@pytest.mark.parametrize("stride", [1.1, 1.0 + 1e-9])
def test_diverging_run_records_a_prefix_of_the_marks(stride):
    """A diverged run records the marks below diverged_at and no other; the
    next mark is at or past it."""
    case = _CASES["ssgd-least_squares-diverging"]
    trace = run(_case_config(case, stride=stride), _case_instance(case.kind))
    marks = list(_checkpoint_indices(case.iterations, stride))
    ks = [cp.k for cp in trace.checkpoints]
    assert trace.diverged
    assert ks == marks[: len(ks)]
    assert ks[-1] < trace.diverged_at <= marks[len(ks)]


@pytest.mark.parametrize("m", [1, 2, 7, 300, 2000, 10000, 2**31, 2**33])
def test_block_index_draws_equal_scalar_draws(m):
    """The run stream's row indices may be drawn in blocks: after the
    Box-Muller init draw, consecutive integers(1, m + 1, size=K) blocks yield
    the same indices as one scalar draw each and leave the generator in the
    same state. Only the generator is exercised, so no size-m array is ever
    allocated."""
    for seed in (1, 4, 10):
        block_gen = make_generator(STREAM_RUN, seed)
        scalar_gen = make_generator(STREAM_RUN, seed)
        normals(block_gen, 20)
        normals(scalar_gen, 20)
        blocks = [block_gen.integers(1, m + 1, size=size) for size in (700, 1, 299)]
        scalar = [int(scalar_gen.integers(1, m + 1)) for _ in range(1000)]
        assert np.concatenate(blocks).tolist() == scalar
        assert block_gen.random() == scalar_gen.random()


@pytest.mark.parametrize(
    "step, momentum",
    [
        (StepSchedule("constant", 0.3), MomentumSchedule("constant", theta=0.5)),
        (StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0), MomentumSchedule("harmonic", s=2.0)),
        (
            StepSchedule("power", 0.5, 0.0, 0.7),
            MomentumSchedule("power", c=0.9, s=1.0, p=8.0 / 9.0),
        ),
    ],
    ids=["constant", "power-harmonic", "power-power"],
)
def test_step_blocks_equal_scalar_schedule_values(step, momentum):
    """The loop's alpha_k and theta_k come in blocks; on both sides of a block
    edge they equal the scalar at(k) bit for bit, and the row indices equal
    one scalar draw per step."""
    inst = gen("least_squares", m=7, n=2, seed=1)
    iterations = 2 * _DRAW_BLOCK + 5
    config = SolverConfig(
        method="ssgd", step=step, momentum=momentum, iterations=iterations, seed=3
    )
    g = make_generator(STREAM_RUN, 3)
    scalar_g = make_generator(STREAM_RUN, 3)
    steps = list(itertools.chain.from_iterable(_steps(config, inst, g)))
    # k = 2 .. N - 1 crosses two block edges (after k = _DRAW_BLOCK + 1 and
    # k = 2 _DRAW_BLOCK + 1)
    assert [k for k, _, _, _ in steps] == list(range(2, iterations))
    for k, i, alpha, theta in steps:
        assert i == int(scalar_g.integers(1, 8)) - 1
        assert (alpha, theta) == (step.at(k), momentum.at(k)), k


@pytest.mark.parametrize(
    "kind, m, n", [("least_squares", 2000, 20), ("least_absolute", 10000, 100)]
)
def test_vecdot_row_norms_equal_per_row_dots(kind, m, n):
    """The proximal rules take every squared row norm from one np.vecdot
    call; on the preset instances (problem.seed 10) each equals the per-row
    a @ a bit for bit."""
    inst = gen(kind, m=m, n=n, seed=10)
    per_row = np.array([float(a @ a) for a in inst.rows])
    batched = np.vecdot(inst.rows, inst.rows)
    assert np.array_equal(batched.view(np.int64), per_row.view(np.int64))


def test_run_is_bitwise_deterministic():
    inst = gen("least_absolute", m=40, n=5, seed=9)
    a = run(_small_config(method="prox_rm", iterations=400, seed=2), inst)
    b = run(_small_config(method="prox_rm", iterations=400, seed=2), inst)
    assert [cp.__dict__ for cp in a.checkpoints] == [cp.__dict__ for cp in b.checkpoints]
    c = run(_small_config(method="prox_rm", iterations=400, seed=3), inst)
    assert a.final.dist != c.final.dist


def test_run_minimum_iterations():
    inst = gen("least_squares", m=10, n=3, seed=1)
    trace = run(_small_config(iterations=2), inst)
    assert [cp.k for cp in trace.checkpoints] == [1, 2]
    assert trace.checkpoints[0].increment == 0.0
    assert trace.checkpoints[1].increment == 0.0
    assert trace.checkpoints[0].dist == trace.checkpoints[1].dist


def test_run_checkpoint_structure():
    inst = gen("least_squares", m=10, n=3, seed=1)
    trace = run(_small_config(iterations=1000), inst)
    ks = [cp.k for cp in trace.checkpoints]
    assert ks[0] == 1 and ks[1] == 2 and ks[-1] == 1000
    assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))
    assert len(ks) >= 50  # geometric stride 1.1 samples log-log plots densely


def _zero_lambda_pair():
    """A lasso instance with lambda = 0 and the least-squares instance of the
    same rows, targets and reference, which ssgd and prox_rm solve."""
    inst = gen("lasso", m=30, n=4, seed=11, lam=0.0)
    inst = with_reference(inst, lasso_reference(inst))
    return inst, dataclasses.replace(inst, kind="least_squares")


def test_run_composite_with_zero_lambda_reduces_to_ssgd():
    inst, smooth = _zero_lambda_pair()
    composite = run(_small_config(method="composite", iterations=250, seed=5), inst)
    plain = run(_small_config(method="ssgd", iterations=250, seed=5), smooth)
    assert [cp.dist for cp in composite.checkpoints] == [cp.dist for cp in plain.checkpoints]


def test_run_composite_implicit_with_zero_lambda_reduces_to_prox_rm():
    inst, smooth = _zero_lambda_pair()
    composite = run(
        _small_config(
            method="composite", iterations=250, seed=5, composite_order="implicit_first"
        ),
        inst,
    )
    plain = run(_small_config(method="prox_rm", iterations=250, seed=5), smooth)
    assert [cp.dist for cp in composite.checkpoints] == [cp.dist for cp in plain.checkpoints]


@pytest.mark.parametrize(
    "method, kind, constraint, match",
    [
        ("prox_rm", "least_squares", ball(1.0), "constraints apply to method ssgd only"),
        ("prox_rm", "least_absolute", box([-1.0] * 3, [1.0] * 3), "ssgd only, not prox_rm"),
        ("composite", "lasso", ball(1.0), "ssgd only, not composite"),
        ("composite", "least_squares", None, "method composite does not solve kind"),
        ("composite", "least_absolute", None, "method composite does not solve kind"),
        ("ssgd", "lasso", None, "method ssgd does not solve kind lasso"),
        ("prox_rm", "lasso", None, "method prox_rm does not solve kind lasso"),
    ],
)
def test_run_refuses_pairings_it_would_ignore(method, kind, constraint, match):
    """A SolverConfig used directly meets the same refusal as a config file:
    no constraint outside ssgd, composite on lasso and only there."""
    inst = gen(kind, m=10, n=3, seed=1, lam=0.2)
    if kind == "lasso":
        inst = with_reference(inst, lasso_reference(inst))
    kw = {} if constraint is None else {"constraint": constraint}
    with pytest.raises(ConfigurationError, match=match):
        run(_small_config(method=method, iterations=10, **kw), inst)


def test_run_requires_reference():
    inst = gen("lasso", m=10, n=3, seed=1, lam=0.5)
    with pytest.raises(ConfigurationError):
        run(_small_config(), inst)


def test_run_flags_divergence_instead_of_raising():
    # an aggressive constant step explodes the least-squares iteration
    inst = gen("least_squares", m=50, n=6, seed=8)
    config = SolverConfig(
        method="ssgd",
        step=StepSchedule("constant", 10.0),
        momentum=MomentumSchedule("constant", theta=0.9),
        iterations=5000,
        seed=1,
    )
    trace = run(config, inst)
    assert trace.diverged
    assert trace.diverged_at is not None and trace.diverged_at >= 3
    assert trace.checkpoints  # partial trace is kept


def test_run_ball_constraint_feasibility():
    inst = gen("least_squares", m=30, n=4, seed=13)
    radius = 0.5 * float(np.linalg.norm(inst.reference_optimum))
    trace = _every_step(
        "ssgd", _origin_referenced(inst), alpha=0.02, theta=0.5, iterations=200,
        seed=3, constraint=ball(radius), init="zeros",
    )
    dists = [cp.dist for cp in trace.checkpoints]
    assert len(dists) == 200
    assert max(dists) <= radius * (1.0 + 1e-12)
    assert max(dists) >= radius * (1.0 - 1e-12)  # the projection was active


def test_run_box_constraint_feasibility():
    inst = gen("least_squares", m=30, n=1, seed=13)
    half = 0.5 * abs(float(inst.reference_optimum[0]))
    trace = _every_step(
        "ssgd", _origin_referenced(inst), alpha=0.05, theta=0.5, iterations=200,
        seed=3, constraint=box([-half], [half]), init="zeros",
    )
    dists = [cp.dist for cp in trace.checkpoints]
    assert len(dists) == 200
    assert max(dists) == half  # |v_k| <= half everywhere, and the clip was active


def test_prox_rm_stays_bounded_with_large_momentum():
    inst = gen("least_squares", m=100, n=8, seed=14)
    config = SolverConfig(
        method="prox_rm",
        step=StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=MomentumSchedule("constant", theta=0.9),
        iterations=2000,
        seed=1,
    )
    trace = run(config, inst)
    assert not trace.diverged
    assert max(cp.dist for cp in trace.checkpoints) < 1e3


@pytest.mark.parametrize("method", ["ssgd", "prox_rm", "composite"])
def test_extrapolation_identity_on_instrumented_runs(method, relative_error):
    """||x_{k+1} - v_k|| must equal theta_k ||v_k - v_{k-1}|| step for step."""
    if method == "composite":
        inst = gen("lasso", m=30, n=5, seed=16, lam=0.3)
        inst = with_reference(inst, lasso_reference(inst))
    else:
        inst = gen("least_squares", m=30, n=5, seed=16)
    config = _small_config(method=method, theta=0.5, iterations=502, instrument=True)
    trace = run(config, inst)
    assert trace.instrumentation is not None
    assert len(trace.instrumentation) == 500
    for k, lhs, rhs in trace.instrumentation:
        assert relative_error(lhs, rhs) <= 1e-10, (k, lhs, rhs)


def test_extrapolate_zero_momentum():
    """At theta = 0 the extrapolated point is v_k itself at every step."""
    inst = gen("least_squares", m=30, n=5, seed=16)
    config = _small_config(theta=0.0, iterations=102, instrument=True)
    instrumentation = run(config, inst).instrumentation
    assert len(instrumentation) == 100
    assert all(lhs == 0.0 for _, lhs, _ in instrumentation)


@pytest.mark.parametrize(
    "momentum",
    [MomentumSchedule("constant", theta=0.0), MomentumSchedule("power", c=0.0, s=1.0, p=0.5)],
    ids=["constant", "power"],
)
def test_momentum_free_step_takes_the_iterate_itself(momentum):
    """With theta_k = 0 at every k the step takes x_{k+1} = v_k. Here
    implicit_first's l1 step (alpha lambda near the float maximum) moves v_3
    and v_4 so far apart that v_4 - v_3 overflows, though both are finite;
    v_4 + 0 (v_4 - v_3) would be nan and end the run at k = 5. The run goes
    on, as the exact update does, step for step."""
    case = _Case("composite", "lasso", "implicit_first")
    inst = _origin_referenced(
        _hand_instance("lasso", [[1.0]], [0.0], lam=np.finfo(float).max)
    )
    config = SolverConfig(
        method="composite", step=StepSchedule("constant", 0.7), momentum=momentum, iterations=30,
        seed=2, stride=1.0 + 1e-9, composite_order="implicit_first",
    )
    trace = run(config, inst)
    assert not trace.diverged
    assert trace.checkpoints[3].increment == np.inf
    v = normals(make_generator(STREAM_RUN, 2), 1)
    dists = [_reference_norm(v)] * 2
    with np.errstate(over="ignore"):
        for _ in range(2, 30):
            v = _reference_update(case, inst, v, 1, 0.7)
            dists.append(_reference_norm(v))
    assert [cp.dist for cp in trace.checkpoints] == dists


def test_extrapolate_equal_pair_is_identity():
    """v_1 = v_2 at the first step, so the increment form moves nothing
    there even under large momentum."""
    inst = gen("least_squares", m=30, n=5, seed=16)
    config = _small_config(theta=0.9, iterations=12, instrument=True)
    assert run(config, inst).instrumentation[0] == (2, 0.0, 0.0)


def test_instrumentation_off_by_default():
    inst = gen("least_squares", m=10, n=3, seed=1)
    assert run(_small_config(iterations=10), inst).instrumentation is None


def test_metadata_records_validity_profile():
    inst = gen("least_squares", m=10, n=3, seed=1)
    md = run(_small_config(theta=0.5, iterations=10), inst).metadata
    assert md["hypothesis_profile"] == "constant-momentum"
    assert md["valid.step_diverges_sum"] == "true"
    assert md["valid.step_square_summable"] == "true"
    assert md["rng"] == "pcg64/box-muller"
    assert "composite.order" not in md

    md = run(_small_config(theta=0.0, iterations=10), inst).metadata
    assert md["hypothesis_profile"] == "no-momentum"

    config = SolverConfig(
        method="ssgd",
        step=StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=MomentumSchedule("harmonic", s=3.0),
        iterations=10,
        seed=1,
    )
    assert run(config, inst).metadata["hypothesis_profile"] == "nonincreasing-momentum"

    config = SolverConfig(
        method="ssgd",
        step=StepSchedule("constant", 0.01),
        momentum=MomentumSchedule("constant", theta=0.5),
        iterations=10,
        seed=1,
    )
    assert run(config, inst).metadata["hypothesis_profile"] == "unverified"


def test_metadata_has_composite_order_for_composite():
    inst = gen("lasso", m=10, n=3, seed=1, lam=0.2)
    inst = with_reference(inst, lasso_reference(inst))
    md = run(_small_config(method="composite", iterations=10), inst).metadata
    assert md["composite.order"] == "explicit_first"


def test_solver_config_validation():
    step = StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0)
    mom = MomentumSchedule("constant", theta=0.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(method="sgd", step=step, momentum=mom, iterations=10, seed=1)
    with pytest.raises(ConfigurationError):
        SolverConfig(method="ssgd", step=step, momentum=mom, iterations=1, seed=1)
    with pytest.raises(ConfigurationError):
        SolverConfig(method="ssgd", step=step, momentum=mom, iterations=10, seed=1, stride=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(
            method="ssgd", step=step, momentum=mom, iterations=10, seed=1, stride=float("inf")
        )
    with pytest.raises(ConfigurationError):
        SolverConfig(
            method="composite", step=step, momentum=mom, iterations=10, seed=1,
            composite_order="sideways",
        )
    with pytest.raises(ConfigurationError):
        SolverConfig(method="ssgd", step=step, momentum=mom, iterations=10, seed=1, init="ones")
    too_many = r"N must lie in \[2, 2\^53\], got 9007199254740993$"
    with pytest.raises(ConfigurationError, match=too_many):
        SolverConfig(method="ssgd", step=step, momentum=mom, iterations=2**53 + 1, seed=1)
    # past str()'s digit limit, N is told by its size
    with pytest.raises(ConfigurationError, match="got an integer of 16610 bits$"):
        SolverConfig(method="ssgd", step=step, momentum=mom, iterations=10**5000, seed=1)


def _stored_checkpoint_indices(n_final, stride):
    """Reference marks: the stride rule with every mark stored in a set, then sorted."""
    ks = {1, 2, n_final}
    k = 2
    while k < n_final:
        k = max(k + 1, int(k * stride))
        if k < n_final:
            ks.add(k)
    return sorted(ks)


def test_checkpoint_indices_equal_the_stored_set():
    for stride in (1.0 + 1e-9, 1.01, 1.1, 1.5, 2.0, 7.3, 1e300):
        for n_final in (2, 3, 4, 5, 17, 300, 20_000):
            want = _stored_checkpoint_indices(n_final, stride)
            assert list(_checkpoint_indices(n_final, stride)) == want, (n_final, stride)


def test_checkpoint_count_is_bounded():
    """Dense marks up to 2^20 pass; one more is refused naming N and stride,
    at parse time and by run for a SolverConfig used directly, before any
    mark is stored."""
    assert _checkpoint_fault(_MAX_CHECKPOINTS, 1.0 + 1e-9) is None
    keys, why = _checkpoint_fault(_MAX_CHECKPOINTS + 1, 1.0 + 1e-9)
    assert keys == ("N", "stride")
    assert str(_MAX_CHECKPOINTS) in why
    assert _checkpoint_fault(10**300, 1.1) is None  # geometric marks stay few
    config = _small_config(iterations=10**7, stride=1.0 + 1e-12)
    with pytest.raises(ConfigurationError, match="raise stride or lower N"):
        run(config, _case_instance("least_squares"))


def test_checkpoint_stride_whose_product_overflows():
    """A finite stride with k stride past the float range marks 1, 2 and
    n_final, and parses, where int(k stride) used to raise OverflowError."""
    assert list(_checkpoint_indices(300, 1e308)) == [1, 2, 300]
    assert list(_checkpoint_indices(3, 1e308)) == [1, 2, 3]
    assert _checkpoint_fault(300, 1e308) is None
