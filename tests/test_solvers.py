"""Single steps against hand-computed values (read off every-step
checkpoints of short runs), whole runs against an independent in-test
reference loop, and the solver contract details:
checkpoint placement, divergence flagging, constraint feasibility, and the
extrapolation identity."""

import dataclasses

import numpy as np
import pytest

from nagsa._rng import STREAM_RUN, make_generator, normals
from nagsa.errors import ConfigurationError
from nagsa.problems import (
    ProblemInstance,
    ball,
    box,
    gen,
    lasso_reference,
    with_reference,
)
from nagsa.schedules import (
    constant_momentum,
    constant_step,
    harmonic_momentum,
    power_momentum,
    power_step,
)
from nagsa.solvers import _DRAW_BLOCK, SolverConfig, _steps, extrapolate, run


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
        step=constant_step(alpha),
        momentum=constant_momentum(theta),
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


def test_extrapolate_hand_case():
    out = extrapolate(np.array([2.0]), np.array([1.0]), 0.5)
    assert out[0] == 2.5


def test_extrapolate_zero_momentum():
    v = np.array([3.0, -1.0])
    assert np.array_equal(extrapolate(v, np.array([9.0, 9.0]), 0.0), v)


def test_extrapolate_equal_pair_is_identity():
    v = np.array([1.5, 2.5])
    assert np.array_equal(extrapolate(v, v, 0.9), v)


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        extrapolate(np.zeros(2), np.zeros(2), 1.0)


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
    # v_3 = (1 - 2e200) v_2 is still finite (its squared norm is not); the
    # step to v_4 overflows, so the trace ends with the checkpoint at k = 3,
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
        step=power_step(1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=constant_momentum(theta),
        iterations=iterations,
        seed=seed,
        **kw,
    )


def _reference_update(case, inst, x, i, alpha):
    """One update rule written out from the documented formulas, with the
    solver's operation order, so the comparison below can be bitwise."""
    method, kind, extra = case
    a = inst.rows[i - 1]
    r = float(a @ x - inst.targets[i - 1])
    if method == "ssgd":
        g = np.sign(r) * a if kind == "least_absolute" else (2.0 * r) * a
        y = x - alpha * g
        if extra == "ball":
            dist = np.linalg.norm(y)
            return y if dist <= 0.5 * (1.0 + 1e-12) else (0.5 / dist) * y
        if extra == "box":
            return np.clip(y, -0.25, 0.25)
        return y
    q = float(a @ a)
    if method == "prox_rm" or extra == "implicit_first":
        if kind == "least_absolute":
            gamma = np.sign(r) * min(alpha, abs(r) / q)
        else:
            gamma = 2.0 * alpha * r / (1.0 + 2.0 * alpha * q)
        v = x - gamma * a
        if method == "prox_rm":
            return v
        return v - alpha * inst.lam * np.sign(v)
    v = x - alpha * ((2.0 * r) * a)
    return np.sign(v) * np.maximum(np.abs(v) - alpha * inst.lam, 0.0)


@pytest.mark.parametrize(
    "case",
    [
        ("ssgd", "least_squares", "none"),
        ("ssgd", "least_squares", "ball"),
        ("ssgd", "least_squares", "box"),
        ("ssgd", "least_squares", "harmonic"),
        ("ssgd", "least_squares", "harmonic-long"),
        ("ssgd", "least_squares", "diverging"),
        ("ssgd", "least_absolute", "none"),
        ("prox_rm", "least_squares", None),
        ("prox_rm", "least_absolute", None),
        ("composite", "lasso", "explicit_first"),
        ("composite", "lasso", "implicit_first"),
    ],
    ids=lambda case: "-".join(str(part) for part in case if part is not None),
)
def test_run_matches_reference_loop(case):
    """An independent loop over the same stream, one scalar row draw per step,
    must reproduce every checkpoint distance and increment bitwise, momentum
    included, and a diverging run must stop at the same step. The long case
    runs past the first block of row draws and schedule values."""
    method, kind, extra = case
    iterations = _DRAW_BLOCK + 300 if extra == "harmonic-long" else 300
    kw = {}
    if method == "composite":
        inst = gen("lasso", m=50, n=6, seed=8, lam=0.3)
        inst = with_reference(inst, lasso_reference(inst))
        kw["composite_order"] = extra
    else:
        inst = gen(kind, m=50, n=6, seed=8)
    if extra == "ball":
        kw["constraint"] = ball(0.5)
    elif extra == "box":
        kw["constraint"] = box(np.full(6, -0.25), np.full(6, 0.25))
    config = _small_config(method=method, theta=0.5, iterations=iterations, seed=4, **kw)
    if extra in ("harmonic", "harmonic-long"):
        config = dataclasses.replace(config, momentum=harmonic_momentum(2.0))
    elif extra == "diverging":
        config = dataclasses.replace(config, step=constant_step(2.0))
    trace = run(config, inst)

    g = make_generator(STREAM_RUN, 4)
    v_prev = v = normals(g, 6)
    ref = inst.reference_optimum
    expected = {1: (float(np.linalg.norm(v - ref)), 0.0), 2: (float(np.linalg.norm(v - ref)), 0.0)}
    diverged_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, iterations):
            if extra == "diverging":
                alpha = 2.0
            else:
                alpha = (1.0 / 16.0) / (k + 3.0) ** (8.0 / 9.0)
            theta = 1.0 / (k + 2.0) if extra in ("harmonic", "harmonic-long") else 0.5
            x = v + theta * (v - v_prev)
            i = int(g.integers(1, 51))
            v_next = _reference_update(case, inst, x, i, alpha)
            if not np.isfinite(v_next).all():
                diverged_at = k + 1
                break
            v_prev, v = v, v_next
            expected[k + 1] = (
                float(np.linalg.norm(v - ref)),
                float(np.linalg.norm(v - v_prev)),
            )
    assert trace.diverged_at == diverged_at
    assert trace.diverged == (extra == "diverging")
    # a run that does not diverge checkpoints every mark; a diverged one stops early
    marks = [cp.k for cp in run(_small_config(iterations=iterations), inst).checkpoints]
    assert [cp.k for cp in trace.checkpoints] == [k for k in marks if k in expected]
    for cp in trace.checkpoints:
        want = expected[cp.k]
        if not np.isfinite(want).all():
            continue  # the plain norm overflowed on a finite iterate
        assert (cp.dist, cp.increment) == want, f"checkpoint {cp.k} left the reference"


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
        (constant_step(0.3), constant_momentum(0.5)),
        (power_step(1.0 / 16.0, 3.0, 8.0 / 9.0), harmonic_momentum(2.0)),
        (power_step(0.5, 0.0, 0.7), power_momentum(0.9, 1.0, 8.0 / 9.0)),
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
    steps = list(_steps(config, inst, g))
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


def test_run_composite_with_zero_lambda_reduces_to_ssgd():
    inst = gen("lasso", m=30, n=4, seed=11, lam=0.0)
    inst = with_reference(inst, lasso_reference(inst))
    composite = run(_small_config(method="composite", iterations=250, seed=5), inst)
    plain = run(_small_config(method="ssgd", iterations=250, seed=5), inst)
    assert [cp.dist for cp in composite.checkpoints] == [cp.dist for cp in plain.checkpoints]


def test_run_composite_implicit_with_zero_lambda_reduces_to_prox_rm():
    inst = gen("lasso", m=30, n=4, seed=11, lam=0.0)
    inst = with_reference(inst, lasso_reference(inst))
    composite = run(
        _small_config(
            method="composite", iterations=250, seed=5, composite_order="implicit_first"
        ),
        inst,
    )
    plain = run(_small_config(method="prox_rm", iterations=250, seed=5), inst)
    assert [cp.dist for cp in composite.checkpoints] == [cp.dist for cp in plain.checkpoints]


def test_run_requires_reference():
    inst = gen("lasso", m=10, n=3, seed=1, lam=0.5)
    with pytest.raises(ConfigurationError):
        run(_small_config(), inst)


def test_run_flags_divergence_instead_of_raising():
    # an aggressive constant step explodes the least-squares iteration
    inst = gen("least_squares", m=50, n=6, seed=8)
    config = SolverConfig(
        method="ssgd",
        step=constant_step(10.0),
        momentum=constant_momentum(0.9),
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
        step=power_step(1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=constant_momentum(0.9),
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
        step=power_step(1.0 / 16.0, 3.0, 8.0 / 9.0),
        momentum=harmonic_momentum(3.0),
        iterations=10,
        seed=1,
    )
    assert run(config, inst).metadata["hypothesis_profile"] == "nonincreasing-momentum"

    config = SolverConfig(
        method="ssgd",
        step=constant_step(0.01),
        momentum=constant_momentum(0.5),
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
    step = power_step(1.0 / 16.0, 3.0, 8.0 / 9.0)
    mom = constant_momentum(0.5)
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
