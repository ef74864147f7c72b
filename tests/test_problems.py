"""Instance generation, per-sample oracles, and the text dump format.

Closed-form oracles are cross-checked against derivative-free searches:
prox results against a 1-D ternary search on the actual sampled objective,
subgradients against finite differences and the subgradient inequality.
"""

import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nagsa import problems
from nagsa._rng import make_generator
from nagsa.cli import main
from nagsa.errors import ConfigurationError
from nagsa.problems import (
    KINDS,
    ProblemInstance,
    ball,
    box,
    dump_instance,
    gen,
    lasso_reference,
    load_instance,
    objective,
    project,
    prox_l1,
    prox_sample,
    sample_index,
    subgrad,
    whole_space,
    with_reference,
)


def test_gen_least_squares_dimensions():
    inst = gen("least_squares", m=2000, n=20, seed=1)
    assert inst.rows.shape == (2000, 20)
    assert inst.targets.shape == (2000,)
    assert inst.reference_optimum is not None
    assert np.all(np.isfinite(inst.rows))


def test_gen_least_absolute_dimensions():
    inst = gen("least_absolute", m=100, n=7, seed=1)
    assert (inst.m, inst.n) == (100, 7)
    assert inst.reference_optimum.shape == (7,)


def test_gen_lasso_has_no_reference():
    inst = gen("lasso", m=50, n=5, seed=1, lam=1.0)
    assert inst.reference_optimum is None
    assert inst.lam == 1.0


def test_gen_interpolates():
    # targets are planted as A x0, so the reference solves the system exactly
    for kind in ("least_squares", "least_absolute"):
        inst = gen(kind, m=60, n=6, seed=2)
        assert objective(inst, inst.reference_optimum) == 0.0


def test_gen_bitwise_determinism():
    a = gen("least_squares", m=50, n=5, seed=9)
    b = gen("least_squares", m=50, n=5, seed=9)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.reference_optimum, b.reference_optimum)
    c = gen("least_squares", m=50, n=5, seed=10)
    assert not np.array_equal(a.rows, c.rows)


_GEN_DIGEST = """
import hashlib, sys
from nagsa.problems import gen
inst = gen(sys.argv[1], 10001, 100, 10)
digest = hashlib.sha256()
for a in (inst.rows, inst.targets, inst.reference_optimum):
    digest.update(a.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("kind", ["least_squares", "least_absolute"])
def test_gen_does_not_depend_on_blas_threads(kind):
    """A 10001 x 100 instance, whose whole-matrix products A v and A x0 a
    two-thread GEMV forms with other last bits, is the same at one and at
    two BLAS threads. OpenBLAS fixes its thread count when it loads, so each
    instance comes from a fresh interpreter."""
    src = str(Path(problems.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _GEN_DIGEST, kind],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def test_gen_validation():
    with pytest.raises(ValueError):
        gen("ridge", m=10, n=2, seed=1)
    with pytest.raises(ValueError):
        gen("least_squares", m=0, n=2, seed=1)
    with pytest.raises(ValueError):
        gen("least_squares", m=10, n=0, seed=1)
    with pytest.raises(ValueError):
        gen("lasso", m=10, n=2, seed=1, lam=-0.5)


def test_gen_rows_read_only():
    inst = gen("least_squares", m=10, n=3, seed=1)
    with pytest.raises(ValueError):
        inst.rows[0, 0] = 99.0


def test_sample_index_single_row():
    inst = gen("least_squares", m=1, n=3, seed=1)
    rng = make_generator(1, 0)
    assert all(sample_index(inst, rng) == 1 for _ in range(50))


def test_sample_index_uniformity():
    """10^6 draws over m=2000 rows: every count stays within five standard
    deviations of the uniform expectation."""
    inst = gen("least_squares", m=2000, n=2, seed=4)
    rng = make_generator(1, 4)
    draws = 10**6
    counts = np.bincount(
        [sample_index(inst, rng) for _ in range(draws)], minlength=2001
    )[1:]
    expected = draws / 2000
    sd = math.sqrt(draws * (1 / 2000) * (1999 / 2000))
    assert counts.min() >= 1
    assert np.max(np.abs(counts - expected)) <= 5.0 * sd


def test_sample_index_reproducible():
    inst = gen("least_squares", m=500, n=2, seed=4)
    seq1 = [sample_index(inst, make_generator(7, 7)) for _ in range(1)]
    rng_a, rng_b = make_generator(7, 7), make_generator(7, 7)
    a = [sample_index(inst, rng_a) for _ in range(100)]
    b = [sample_index(inst, rng_b) for _ in range(100)]
    assert a == b
    assert a[0] == seq1[0]


# ---------------------------------------------------------------------------
# subgradients


def test_subgrad_absolute_at_kink():
    # residual is exactly zero, so the sign(0) = 0 convention applies
    inst = _hand_instance("least_absolute", [[1.0, 2.0]], [11.0])
    res = subgrad(inst, np.array([3.0, 4.0]), 1)
    assert res.value == 0.0
    assert np.all(res.subgradient == 0.0)


def test_subgrad_absolute_near_reference():
    # generated instances interpolate up to per-row dot-product rounding
    inst = gen("least_absolute", m=20, n=4, seed=3)
    res = subgrad(inst, inst.reference_optimum, 5)
    assert res.value <= 1e-10


def _hand_instance(kind, rows, targets, lam=0.0):
    from nagsa.problems import ProblemInstance

    return ProblemInstance(
        kind=kind,
        rows=np.asarray(rows, dtype=float),
        targets=np.asarray(targets, dtype=float),
        lam=lam,
        seed=0,
    )


def test_subgrad_least_squares_unit_row():
    inst = _hand_instance("least_squares", [[1.0, 0.0]], [0.0])
    res = subgrad(inst, np.array([3.0, 0.0]), 1)
    assert res.value == 9.0
    assert res.subgradient.tolist() == [6.0, 0.0]
    assert res.index == 1


def test_subgrad_matches_finite_differences():
    inst = gen("least_squares", m=30, n=4, seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    g = subgrad(inst, x, 7).subgradient
    eps = 1e-6
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = eps
        fd = (subgrad(inst, x + bump, 7).value - subgrad(inst, x - bump, 7).value) / (2 * eps)
        assert abs(fd - g[j]) <= 1e-4 * max(1.0, abs(g[j]))


def test_subgrad_index_bounds():
    inst = gen("least_squares", m=10, n=3, seed=1)
    with pytest.raises(ValueError):
        subgrad(inst, np.zeros(3), 0)
    with pytest.raises(ValueError):
        subgrad(inst, np.zeros(3), 11)


@pytest.mark.parametrize("kind", ["least_squares", "least_absolute", "lasso"])
def test_subgradient_inequality(kind):
    # convexity certificate: F(y) >= F(x) + g(x)'(y - x) on random triples
    inst = gen(kind, m=40, n=6, seed=6, lam=0.5 if kind == "lasso" else 0.0)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = rng.normal(size=6) * 3.0
        y = rng.normal(size=6) * 3.0
        i = int(rng.integers(1, 41))
        at_x = subgrad(inst, x, i)
        at_y = subgrad(inst, y, i)
        slack = at_y.value - at_x.value - float(at_x.subgradient @ (y - x))
        assert slack >= -1e-9


# ---------------------------------------------------------------------------
# proximal oracles


def _ternary_prox(inst, x, i, alpha):
    """Derivative-free 1-D search for argmin F(v) + ||v-x||^2/(2 alpha)
    along v = x - gamma a_i. Strictly convex in gamma, so ternary search
    brackets the minimizer."""
    a = inst.rows[i - 1]
    q = float(a @ a)
    r = float(a @ x - inst.targets[i - 1])

    def phi(gamma):
        v = x - gamma * a
        return subgrad(inst, v, i).value + (gamma * gamma) * q / (2.0 * alpha)

    radius = abs(r) / q + alpha * (1.0 + 2.0 * abs(r)) + 1.0
    lo, hi = -radius, radius
    for _ in range(200):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if phi(m1) <= phi(m2):
            hi = m2
        else:
            lo = m1
    return x - 0.5 * (lo + hi) * a


def test_prox_zero_residual_is_identity():
    for kind in ("least_squares", "least_absolute"):
        inst = gen(kind, m=20, n=4, seed=3)
        x = inst.reference_optimum.copy()
        v = prox_sample(inst, x, 3, alpha=0.7)
        assert np.allclose(v, x, atol=1e-15)


def test_prox_absolute_hand_case():
    # |r|/q = 1 < alpha, so the residual is zeroed exactly
    inst = _hand_instance("least_absolute", [[1.0, 0.0]], [0.0])
    v = prox_sample(inst, np.array([1.0, 0.0]), 1, alpha=10.0)
    assert np.allclose(v, [0.0, 0.0], atol=1e-15)


def test_prox_least_squares_hand_case():
    inst = _hand_instance("least_squares", [[1.0, 0.0]], [0.0])
    v = prox_sample(inst, np.array([1.0, 0.0]), 1, alpha=0.5)
    assert np.allclose(v, [0.5, 0.0], atol=1e-15)


def test_prox_zero_row_returns_input():
    inst = _hand_instance("least_squares", [[0.0, 0.0]], [1.0])
    x = np.array([2.0, -3.0])
    assert np.array_equal(prox_sample(inst, x, 1, alpha=1.0), x)


def test_prox_alpha_validation():
    inst = gen("least_squares", m=5, n=2, seed=1)
    with pytest.raises(ValueError):
        prox_sample(inst, np.zeros(2), 1, alpha=0.0)
    with pytest.raises(ValueError):
        prox_sample(inst, np.zeros(2), 1, alpha=-1.0)


def _gamma_written_out(r, q, alpha):
    """The absolute term's gamma as the prox formula reads."""
    return float(np.sign(r) * min(alpha, abs(r) / q))


def _same_float(a, b):
    """Equal bits, the sign of a zero included; any nan equals any nan."""
    return (math.isnan(a) and math.isnan(b)) or float.hex(a) == float.hex(b)


_TINY = 5e-324  # the smallest subnormal


def test_prox_gamma_absolute_equals_the_formula_written_out():
    """The absolute term's gamma, written without calls, gives the bits of
    sign(r) min(alpha, |r| / q) for r = +-0, +-subnormal, +-inf, nan and
    ordinary values, on both sides of alpha and at it; q = 0 is a zero row."""
    residuals = [
        0.0, -0.0, _TINY, -_TINY, 2.5e-310, -2.5e-310, 1.0, -1.0, 3.0, -3.0,
        1e300, -1e300, math.inf, -math.inf, math.nan,
    ]
    norms = [_TINY, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf]
    alphas = [_TINY, 1e-8, 0.5, 1.0, 1.5, 3.0, 1e300]
    for r in residuals:
        assert problems._prox_gamma(r, 0.0, 1.0, True) is None
        for q in norms:
            for alpha in alphas:
                got = problems._prox_gamma(r, q, alpha, True)
                want = _gamma_written_out(r, q, alpha)
                assert _same_float(got, want), (r, q, alpha, got, want)


@given(
    r=st.floats(allow_nan=False, allow_infinity=False),
    q=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@settings(max_examples=2000, deadline=None)
def test_prox_gamma_absolute_equals_the_formula_on_finite_values(r, q, alpha):
    """Any finite residual, positive row norm and step size."""
    got = problems._prox_gamma(r, q, alpha, True)
    assert float.hex(got) == float.hex(_gamma_written_out(r, q, alpha))


@pytest.mark.parametrize("kind", ["least_squares", "least_absolute"])
def test_prox_matches_ternary_search(kind):
    inst = gen(kind, m=30, n=5, seed=8)
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = rng.normal(size=5) * 2.0
        i = int(rng.integers(1, 31))
        alpha = float(rng.uniform(0.01, 5.0))
        closed = prox_sample(inst, x, i, alpha)
        searched = _ternary_prox(inst, x, i, alpha)
        assert np.linalg.norm(closed - searched) <= 1e-6 * (1.0 + np.linalg.norm(closed))


def test_prox_optimality_against_perturbations():
    inst = gen("least_absolute", m=30, n=5, seed=8)
    rng = np.random.default_rng(22)
    for _ in range(300):
        x = rng.normal(size=5)
        i = int(rng.integers(1, 31))
        alpha = float(rng.uniform(0.05, 3.0))
        v = prox_sample(inst, x, i, alpha)
        best = subgrad(inst, v, i).value + float((v - x) @ (v - x)) / (2 * alpha)
        for _ in range(20):
            w = v + rng.normal(size=5) * rng.uniform(1e-4, 1.0)
            val = subgrad(inst, w, i).value + float((w - x) @ (w - x)) / (2 * alpha)
            assert val >= best - 1e-9


def test_prox_nonexpansive():
    inst = gen("least_squares", m=30, n=5, seed=8)
    rng = np.random.default_rng(23)
    for _ in range(1000):
        x = rng.normal(size=5) * 2
        y = rng.normal(size=5) * 2
        i = int(rng.integers(1, 31))
        alpha = float(rng.uniform(0.01, 4.0))
        px = prox_sample(inst, x, i, alpha)
        py = prox_sample(inst, y, i, alpha)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
        tau = float(rng.uniform(0.0, 2.0))
        assert np.linalg.norm(prox_l1(x, tau) - prox_l1(y, tau)) <= np.linalg.norm(x - y) + 1e-12


def test_prox_l1_examples():
    assert np.array_equal(prox_l1(np.zeros(3), 0.5), np.zeros(3))
    assert prox_l1(np.array([2.0]), 0.5)[0] == 1.5
    assert prox_l1(np.array([0.3]), 0.5)[0] == 0.0
    assert prox_l1(np.array([-2.0]), 0.5)[0] == -1.5
    with pytest.raises(ValueError):
        prox_l1(np.zeros(2), -0.1)


def test_prox_l1_matches_scalar_search():
    rng = np.random.default_rng(31)
    for _ in range(200):
        xj = float(rng.normal() * 3)
        tau = float(rng.uniform(0.0, 2.0))
        grid = np.linspace(xj - 3 * (tau + 1), xj + 3 * (tau + 1), 20001)
        vals = tau * np.abs(grid) + 0.5 * (grid - xj) ** 2
        best = grid[np.argmin(vals)]
        assert abs(prox_l1(np.array([xj]), tau)[0] - best) <= 1e-3


# ---------------------------------------------------------------------------
# projections


def test_project_whole_space_identity():
    x = np.array([5.0, -2.0])
    assert project(x, whole_space()) is x


def test_project_ball_radial_scaling():
    x = np.array([2.0, 0.0])
    assert np.allclose(project(x, ball(1.0)), [1.0, 0.0], atol=1e-15)
    inside = np.array([0.25, 0.25])
    assert project(inside, ball(1.0)) is inside


def test_project_ball_when_the_distance_overflows():
    """A finite point whose distance to the center overflows when squared
    still lands on the sphere, without a warning."""
    x = np.array([1e200, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = project(x, ball(1.0))
    assert 1.0 - 1e-12 <= np.linalg.norm(p) <= 1.0 + 1e-12
    assert p[0] > 0.0 > p[1]


def test_project_box_clamps():
    cset = box(np.zeros(3), np.ones(3))
    out = project(np.array([-1.0, 0.5, 3.0]), cset)
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_project_idempotent():
    rng = np.random.default_rng(17)
    csets = [ball(1.5), box(-np.ones(4), np.ones(4))]
    for cset in csets:
        for _ in range(50):
            x = rng.normal(size=4) * 3
            once = project(x, cset)
            assert np.array_equal(project(once, cset), once)


def test_constraint_validation():
    with pytest.raises(ConfigurationError):
        ball(0.0)
    with pytest.raises(ConfigurationError):
        box(np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# full objective


def _descent_minimum(inst, steps=10**4):
    """Deterministic full-batch minimization of the displayed objective."""
    a, b = inst.rows, inst.targets
    if inst.kind == "least_squares":
        lip = 2.0 * float(np.linalg.eigvalsh(a.T @ a)[-1])
        x = np.zeros(inst.n)
        for _ in range(steps):
            x = x - (1.0 / lip) * 2.0 * (a.T @ (a @ x - b))
        return objective(inst, x)
    if inst.kind == "least_absolute":
        # Polyak subgradient steps using the known interpolation optimum f* = 0
        x = np.zeros(inst.n)
        best = objective(inst, x)
        for _ in range(steps):
            g = a.T @ np.sign(a @ x - b)
            gg = float(g @ g)
            if gg == 0.0:
                break
            x = x - (objective(inst, x) / gg) * g
            best = min(best, objective(inst, x))
        return best
    lip = 2.0 * float(np.linalg.eigvalsh(a.T @ a)[-1]) / inst.m
    x = np.zeros(inst.n)
    for _ in range(steps):
        grad = 2.0 * (a.T @ (a @ x - b)) / inst.m
        x = prox_l1(x - grad / lip, inst.lam / lip)
    return objective(inst, x)


@pytest.mark.parametrize("kind", ["least_squares", "least_absolute", "lasso"])
def test_objective_dominates_descent_minimum(kind):
    inst = gen(kind, m=20, n=3, seed=12, lam=0.3 if kind == "lasso" else 0.0)
    f_min = _descent_minimum(inst)
    if kind != "lasso":
        assert f_min <= 1e-6  # interpolating instances reach zero
    rng = np.random.default_rng(14)
    for _ in range(25):
        x = rng.normal(size=3) * 2
        assert objective(inst, x) >= f_min - 1e-6


def test_objective_at_reference_is_zero():
    for kind in ("least_squares", "least_absolute"):
        inst = gen(kind, m=25, n=4, seed=15)
        assert objective(inst, inst.reference_optimum) == 0.0


def test_lasso_objective_displayed_form():
    inst = _hand_instance("lasso", [[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0], lam=2.0)
    x = np.array([0.5, 0.5])
    residual = np.array([-0.5, 1.5])
    expected = float(residual @ residual) / 2 + 2.0 * 1.0
    assert abs(objective(inst, x) - expected) <= 1e-15


@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 300),
    whole_blocks=st.integers(0, 3),
    # tails of 1 to 3 rows often: a one-row tail is where numpy leaves GEMV
    tail=st.one_of(st.integers(0, 3), st.integers(0, 100)),
    batch_share=st.floats(0.0, 1.0),
    scale=st.floats(-30.0, 308.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
# a 1281 x 100 matrix: 1280-row blocks and a one-row tail that must join the
# block before it (taken through a dot product alone, one of these 64
# residuals differs in its last bit)
@example(
    kind="least_squares", n=100, whole_blocks=1, tail=1, batch_share=1.0, scale=1.0, seed=12
)
def test_objective_pass_equals_per_point_formulas(
    kind, n, whole_blocks, tail, batch_share, scale, seed
):
    """The blocked pass over A gives each point of a batch its objective bit
    for bit as the formula written out on the whole matrix does: for m from
    1 row to over three row blocks with any tail, batches of 1 to the
    instance's batch size, and points large enough to overflow the
    objective to inf (or nan, where inf products of both signs meet). The
    matrices stay below 460800 entries, the size from which OpenBLAS
    threads a GEMV, so the whole-matrix formula is the single-thread
    product at any BLAS thread count."""
    block = problems._pass_shape(1, n)[1]
    m = max(1, whole_blocks * block + tail)
    batch = problems._pass_shape(m, n)[0]
    count = 1 + int(batch_share * (batch - 1))
    rng = np.random.default_rng(seed)
    inst = ProblemInstance(
        kind=kind,
        rows=rng.standard_normal((m, n)),
        targets=rng.standard_normal(m),
        lam=0.7 if kind == "lasso" else 0.0,
        seed=0,
    )
    points = rng.standard_normal((count, n)) * scale
    residual = np.full((batch, m), np.nan)  # scratch: what it held must not matter
    with np.errstate(all="ignore"):
        values = problems._objective_values(inst, points, residual)
        singles = [objective(inst, x) for x in points]
        expected = []
        for x in points:
            r = inst.rows @ x - inst.targets
            if kind == "least_squares":
                expected.append(float(r @ r))
            elif kind == "least_absolute":
                expected.append(float(np.sum(np.abs(r))))
            else:
                expected.append(float(r @ r / m + inst.lam * np.sum(np.abs(x))))
    assert list(map(float.hex, values)) == list(map(float.hex, expected))
    assert list(map(float.hex, singles)) == list(map(float.hex, expected))


@pytest.mark.parametrize(
    "m, n, batch, block",
    [
        (1, 5, 64, 26176),
        (2000, 20, 64, 6528),
        (10000, 100, 13, 1280),
        (1 << 17, 1, 1, 1 << 17),
        (1 << 18, 3000, 1, 64),
    ],
)
def test_pass_shape_keeps_buffers_near_one_megabyte(m, n, batch, block):
    """Batches hold 1 to 64 points and at most 2^17 residual entries unless
    one point's residual is larger; blocks are multiples of 64 rows of at
    most 2^17 entries unless 64 rows are larger."""
    assert problems._pass_shape(m, n) == (batch, block)


def test_lasso_objective_averages_over_rows():
    # m = 3 rows, n = 2 columns: the sum of squares is divided by m, as in the
    # sampled term and lasso_reference
    inst = _hand_instance("lasso", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, -1.0, 2.0], lam=0.5)
    x = np.array([0.5, 0.5])
    residual = np.array([-0.5, 1.5, -1.0])
    expected = float(residual @ residual) / 3 + 0.5 * 1.0
    assert objective(inst, x) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# lasso reference and serialization


def test_lasso_reference_is_a_fixed_point():
    inst = gen("lasso", m=40, n=6, seed=18, lam=0.2)
    ref = lasso_reference(inst)
    ata = inst.rows.T @ inst.rows
    atb = inst.rows.T @ inst.targets
    lip = 2.0 * float(np.linalg.eigvalsh(ata)[-1]) / inst.m
    step = 1.0 / lip
    again = prox_l1(ref - step * (2.0 / inst.m) * (ata @ ref - atb), step * inst.lam)
    assert np.linalg.norm(again - ref) <= 1e-10


def test_lasso_reference_zero_for_large_lambda():
    # the l1 weight dominates the gradient at the origin, so 0 is stationary
    inst = gen("lasso", m=40, n=6, seed=18, lam=1000.0)
    assert np.array_equal(lasso_reference(inst), np.zeros(6))


def test_lasso_reference_rejects_other_kinds():
    inst = gen("least_squares", m=10, n=3, seed=1)
    with pytest.raises(ValueError):
        lasso_reference(inst)


def test_dump_load_round_trip(tmp_path):
    inst = gen("lasso", m=12, n=4, seed=20, lam=0.7)
    inst = with_reference(inst, lasso_reference(inst))
    path = tmp_path / "instance.txt"
    dump_instance(inst, path)
    back = load_instance(path)
    assert back.kind == inst.kind
    assert back.lam == inst.lam
    assert back.seed == inst.seed
    assert np.array_equal(back.rows, inst.rows)
    assert np.array_equal(back.targets, inst.targets)
    assert np.array_equal(back.reference_optimum, inst.reference_optimum)


def test_dump_load_without_reference(tmp_path):
    inst = gen("lasso", m=6, n=3, seed=21, lam=0.1)
    path = tmp_path / "instance.txt"
    dump_instance(inst, path)
    assert load_instance(path).reference_optimum is None


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("least_squares 2 2 1\n1.0 2.0 3.0\n")
    with pytest.raises((ConfigurationError, ValueError)):
        load_instance(path)
    path.write_text("")
    with pytest.raises((ConfigurationError, ValueError)):
        load_instance(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_load_rejects_nonfinite_entries(tmp_path, token):
    inst = gen("least_squares", m=5, n=3, seed=23)
    path = tmp_path / "instance.txt"
    dump_instance(inst, path)
    clean = path.read_text().splitlines()
    # (line index, field index): lambda, a row entry, a target, a reference entry
    for line, field in ((0, 4), (3, 1), (4, 3), (6, 2)):
        lines = list(clean)
        fields = lines[line].split()
        fields[field] = token
        lines[line] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=f"line {line + 1}: non-finite"):
            load_instance(path)
    # blank lines are skipped but still count in the reported line number
    lines = list(clean)
    lines[3] = " ".join([token] + lines[3].split()[1:])
    path.write_text("\n".join(lines[:1] + ["", ""] + lines[1:]) + "\n")
    with pytest.raises(ConfigurationError, match="line 6: non-finite entry in row 3"):
        load_instance(path)


def _replace_field(line, field, token):
    fields = line.split()
    fields[field] = token
    return " ".join(fields)


# each edit of a clean 4x3 least-squares dump (header, rows on lines 2-5,
# reference on line 6) and the file line the error must name
MALFORMED_DUMPS = {
    "header-inf-count": (lambda ls: [_replace_field(ls[0], 1, "inf")] + ls[1:], 1),
    "header-word-seed": (lambda ls: [_replace_field(ls[0], 3, "x")] + ls[1:], 1),
    "header-four-fields": (lambda ls: [ls[0].rsplit(" ", 1)[0]] + ls[1:], 1),
    "header-zero-width": (lambda ls: [_replace_field(ls[0], 2, "0")] + ls[1:], 1),
    # refused at the first row, before an m x n matrix is allocated
    "header-huge-width": (lambda ls: [_replace_field(ls[0], 2, str(10**12))] + ls[1:], 2),
    "missing-row": (lambda ls: ls[:2] + ls[3:], 1),
    "short-first-row": (lambda ls: ls[:1] + [ls[1].rsplit(" ", 1)[0]] + ls[2:], 2),
    "short-row": (lambda ls: ls[:2] + [ls[2].rsplit(" ", 1)[0]] + ls[3:], 3),
    "long-row": (lambda ls: ls[:2] + [ls[2] + " 1.5"] + ls[3:], 3),
    "word-in-row": (lambda ls: ls[:3] + [_replace_field(ls[3], 2, "abc")] + ls[4:], 4),
    "short-reference": (lambda ls: ls[:5] + [ls[5].rsplit(" ", 1)[0]], 6),
    "word-in-reference": (lambda ls: ls[:5] + [_replace_field(ls[5], 0, "abc")], 6),
    "blank-lines-counted": (lambda ls: ls[:1] + ["", ""] + [ls[1] + " 1.5"] + ls[2:], 4),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
def test_cli_malformed_instance_names_line(tmp_path, capsys, case):
    edit, line = MALFORMED_DUMPS[case]
    path = tmp_path / "instance.txt"
    dump_instance(gen("least_squares", m=4, n=3, seed=23), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    config = tmp_path / "c.txt"
    config.write_text(
        "method = ssgd\nkind = least_squares\nm = 4\nn = 3\nN = 10\nseeds = 1\n"
        "step.family = constant\nstep.c = 0.01\nmom.family = constant\nmom.theta = 0\n"
        f"instance = {path.as_posix()}\n"
    )
    rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{path} line {line}:" in err


# field values that reach every check of load_instance: sizes at and far past
# the file's own extent, non-finite and malformed numbers, kinds, and text
_DUMP_TOKENS = st.sampled_from(
    [
        "0", "-0", "1", "-1", "2", "3", "4", "5", "0.5", "1e-320", "1e308", "1e400",
        "-1e400", "inf", "-inf", "nan", "0x10", "1_0", "\u0663", str(1 << 25),
        str((1 << 25) + 1), str(10**12), "9" * 5000, "x", "unset", "least_squares",
        "least_absolute", "lasso",
    ]
)
_DUMP_VALUES = st.one_of(
    _DUMP_TOKENS,
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)


@functools.cache
def _clean_dump_lines(kind):
    inst = gen(kind, m=4, n=3, seed=23, lam=0.5 if kind == "lasso" else 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        dump_instance(inst, path)
        return tuple(path.read_text().splitlines())


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["least_squares", "lasso"]),
    fields=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), _DUMP_VALUES), max_size=4
    ),
    dropped=st.one_of(st.none(), st.integers(0, 5)),
    blanks=st.lists(st.integers(0, 6), max_size=3),
    junk=st.one_of(st.just(b""), st.binary(max_size=12)),
    junk_at=st.integers(0, 6),
)
def test_load_instance_fuzz(kind, fields, dropped, blanks, junk, junk_at):
    """Any edit of a clean dump either loads or is refused with a
    ConfigurationError naming its file line. Sizes are refused on the
    validation path: a loaded matrix never holds more entries than the file
    has tokens, so no header size is ever allocated."""
    lines = list(_clean_dump_lines(kind))
    with tempfile.TemporaryDirectory() as tmp:
        # a new file each time: overwriting one is slow on some file systems
        path = Path(tmp) / "instance.txt"
        for line, field, value in fields:
            tokens = lines[line].split() or [""]
            tokens[min(field, len(tokens) - 1)] = value
            lines[line] = " ".join(tokens)
        if dropped is not None:
            del lines[dropped]
        for at in blanks:
            lines.insert(min(at, len(lines)), "")
        data = [ln.encode("utf-8") for ln in lines]
        data.insert(min(junk_at, len(data)), junk)
        path.write_bytes(b"\n".join(data) + b"\n")
        try:
            back = load_instance(path)
        except ConfigurationError as exc:
            assert re.search(r" line \d+: ", str(exc)), str(exc)
        else:
            assert back.rows.size + back.targets.size <= len(path.read_bytes().split())


def test_load_rejects_empty_file_naming_line_one(tmp_path):
    path = tmp_path / "instance.txt"
    for text in ("", "\n\n  \n"):
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=r"instance.txt line 1: "):
            load_instance(path)


# dumps with two faults (same clean 4x3 dump as above) and the error that
# must win: the row count is checked before any row, every row is parsed
# before any is checked for finite entries, and the reference comes last
TWO_FAULT_DUMPS = {
    "missing-row-and-word-in-row-1": (
        lambda ls: [ls[0], _replace_field(ls[1], 0, "abc"), ls[2]] + ls[4:],
        1,
        "4 rows need 6 non-blank lines, found 5",
    ),
    "nonfinite-row-2-and-short-row-4": (
        lambda ls: ls[:2] + [_replace_field(ls[2], 1, "inf"), ls[3], ls[4].rsplit(" ", 1)[0]] + ls[5:],
        5,
        "row 4 has 3 values, expected 4",
    ),
    "nonfinite-row-3-and-word-in-reference": (
        lambda ls: ls[:3] + [_replace_field(ls[3], 0, "nan"), ls[4], _replace_field(ls[5], 1, "x")],
        4,
        "non-finite entry in row 3",
    ),
    "blank-shifted-bad-reference": (
        lambda ls: ls[:2] + [""] + ls[2:5] + ["", " "] + [_replace_field(ls[5], 0, "abc").rsplit(" ", 1)[0]],
        9,
        "reference: could not convert string to float: 'abc'",
    ),
    "blank-shifted-short-nonfinite-reference": (
        lambda ls: ["", *ls[:5], "", _replace_field(ls[5], 0, "1e400").rsplit(" ", 1)[0]],
        8,
        "reference line has 2 values, expected 3",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULT_DUMPS))
def test_load_error_precedence_with_two_faults(tmp_path, case):
    edit, line, message = TWO_FAULT_DUMPS[case]
    path = tmp_path / "instance.txt"
    path.write_text("\n".join(edit(list(_clean_dump_lines("least_squares")))) + "\n")
    with pytest.raises(ConfigurationError) as exc:
        load_instance(path)
    assert str(exc.value) == f"{path} line {line}: {message}"


def test_dump_bytes_are_pinned(tmp_path):
    """The lad-proxrm preset instance (10000x100, seed 10); the hash was
    recorded on numpy 2.4 / x86-64."""
    path = tmp_path / "instance.txt"
    dump_instance(gen("least_absolute", m=10000, n=100, seed=10), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "9f6101ab180ed72294023fb25cb1a1bd2c146675c09231a2dc05ca561067e071"


@pytest.mark.parametrize("kind", KINDS)
def test_dump_load_dump_is_byte_identical(tmp_path, kind):
    inst = gen(kind, m=30, n=5, seed=24, lam=0.3 if kind == "lasso" else 0.0)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    dump_instance(inst, first)
    dump_instance(load_instance(first), second)
    if kind == "lasso":
        assert first.read_text().splitlines()[-1] == "unset"
    assert second.read_bytes() == first.read_bytes()


def test_instance_io_memory_is_bounded(tmp_path):
    """Loading holds the matrix and one line of the file; dumping holds one
    line, so its peak does not grow with m."""

    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    dump_peaks = []
    for m in (1000, 4000):
        path = tmp_path / f"instance{m}.txt"
        _, peak = traced_peak(dump_instance, gen("least_squares", m=m, n=100, seed=25), path)
        dump_peaks.append(peak)
    assert dump_peaks[1] <= 1 << 20
    assert dump_peaks[1] <= dump_peaks[0] + (64 << 10)
    back, load_peak = traced_peak(load_instance, path)
    assert back.rows.shape == (4000, 100)
    assert load_peak <= back.rows.nbytes + back.targets.nbytes + (1 << 20)


def test_with_reference_shape_check():
    inst = gen("lasso", m=6, n=3, seed=22, lam=0.1)
    with pytest.raises(ValueError):
        with_reference(inst, np.zeros(4))


# ---------------------------------------------------------------------------
# the binary cache written beside a dump


def _cache(path):
    return Path(f"{path}.cache")


def _load_outcome(path):
    """load_instance's instance, or the text of the ConfigurationError it raises."""
    try:
        return load_instance(path)
    except ConfigurationError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    """Equal error texts, or instances equal field by field with the arrays
    compared bit for bit (as uint64 views, so -0.0 differs from 0.0)."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.kind, got.m, got.n, got.seed) == (want.kind, want.m, want.n, want.seed)
    assert got.lam.hex() == want.lam.hex()
    for name in ("rows", "targets", "reference_optimum"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
            assert not a.flags.writeable


def _text_outcome(path):
    """What loading gives with the cache beside path removed."""
    _cache(path).unlink(missing_ok=True)
    return _load_outcome(path)


# finite float64 values at the edges of the text format
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072009e-308, 1e308, -1e308]),
)


@settings(max_examples=80)
@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(1, 4),
    n=st.integers(1, 3),
    seed=st.integers(-(2**70), 2**70),
    lam=_EDGE_FLOATS,
    with_ref=st.booleans(),
    data=st.data(),
)
def test_cache_load_equals_text_load(kind, m, n, seed, lam, with_ref, data):
    entries = data.draw(st.lists(_EDGE_FLOATS, min_size=m * n + m + n, max_size=m * n + m + n))
    inst = ProblemInstance(
        kind=kind,
        rows=np.array(entries[: m * n]).reshape(m, n),
        targets=np.array(entries[m * n : m * n + m]),
        lam=lam,
        seed=seed,
        reference_optimum=np.array(entries[m * n + m :]) if with_ref else None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        dump_instance(inst, path)
        assert problems._load_cache(path) is not None
        cached = load_instance(path)
        _assert_same_outcome(cached, _text_outcome(path))
        _assert_same_outcome(cached, inst)


def test_lasso_unset_reference_round_trips_through_the_cache(tmp_path):
    path = tmp_path / "instance.txt"
    dump_instance(gen("lasso", m=7, n=3, seed=4, lam=0.25), path)
    cached = problems._load_cache(path)
    assert cached is not None and cached.reference_optimum is None
    _assert_same_outcome(cached, _text_outcome(path))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["row", "target", "reference", "lambda"])
def test_cache_gives_the_text_error_for_nonfinite_values(tmp_path, where, value):
    inst = gen("least_squares", m=4, n=3, seed=23)
    rows, targets, ref = inst.rows.copy(), inst.targets.copy(), inst.reference_optimum.copy()
    lam = inst.lam
    if where == "row":
        rows[2, 1] = value
    elif where == "target":
        targets[3] = value
    elif where == "reference":
        ref[0] = value
    else:
        lam = value
    path = tmp_path / "instance.txt"
    dump_instance(ProblemInstance("least_squares", rows, targets, lam, 23, ref), path)
    assert _cache(path).exists()
    with_cache = _load_outcome(path)
    assert isinstance(with_cache, str) and "non-finite" in with_cache
    assert _text_outcome(path) == with_cache


def test_load_reads_a_fresh_dump_from_its_cache(tmp_path, monkeypatch):
    inst = gen("least_absolute", m=50, n=4, seed=5)
    path = tmp_path / "instance.txt"
    dump_instance(inst, path)

    def no_text(path):
        raise AssertionError("the text was parsed")

    monkeypatch.setattr(problems, "_load_text", no_text)
    _assert_same_outcome(load_instance(path), inst)
    _cache(path).unlink()
    with pytest.raises(AssertionError, match="the text was parsed"):
        load_instance(path)


def test_dump_replaces_the_cache_in_place(tmp_path):
    path = tmp_path / "instance.txt"
    dump_instance(gen("least_squares", m=6, n=2, seed=1), path)
    second = gen("least_squares", m=6, n=2, seed=2)
    dump_instance(second, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.txt", "instance.txt.cache"]
    assert problems._load_cache(path) is not None
    _assert_same_outcome(load_instance(path), second)


@pytest.mark.parametrize("case", sorted(TWO_FAULT_DUMPS))
def test_two_fault_dumps_ignore_a_stale_cache(tmp_path, case):
    edit, line, message = TWO_FAULT_DUMPS[case]
    path = tmp_path / "instance.txt"
    dump_instance(gen("least_squares", m=4, n=3, seed=23), path)
    path.write_text("\n".join(edit(list(_clean_dump_lines("least_squares")))) + "\n")
    assert _cache(path).exists()
    with pytest.raises(ConfigurationError) as exc:
        load_instance(path)
    assert str(exc.value) == f"{path} line {line}: {message}"


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["least_squares", "lasso"]),
    fields=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), _DUMP_VALUES), max_size=3
    ),
    dropped=st.one_of(st.none(), st.integers(0, 5)),
    blanks=st.lists(st.integers(0, 6), max_size=2),
)
def test_load_instance_fuzz_with_a_stale_cache(kind, fields, dropped, blanks):
    """Any edit of a dump made after its cache was written loads exactly as
    the edited text alone does."""
    lines = list(_clean_dump_lines(kind))
    for line, field, value in fields:
        tokens = lines[line].split() or [""]
        tokens[min(field, len(tokens) - 1)] = value
        lines[line] = " ".join(tokens)
    if dropped is not None:
        del lines[dropped]
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    with tempfile.TemporaryDirectory() as tmp:
        # the clean dump's cache moves beside a new file with the edited text:
        # overwriting a file is slow on some file systems
        clean, path = Path(tmp) / "clean.txt", Path(tmp) / "instance.txt"
        dump_instance(gen(kind, m=4, n=3, seed=23, lam=0.5 if kind == "lasso" else 0.0), clean)
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        _cache(clean).rename(_cache(path))
        _assert_same_outcome(_load_outcome(path), _text_outcome(path))


def _dump_with_cache(tmp_path, name="instance.txt", seed=23):
    inst = gen("least_squares", m=4, n=3, seed=seed)
    path = tmp_path / name
    dump_instance(inst, path)
    return inst, path, _cache(path).read_bytes()


def _assert_cache_ignored(path, inst):
    assert problems._load_cache(path) is None
    _assert_same_outcome(load_instance(path), inst)


def test_cache_of_a_same_size_edit_is_ignored(tmp_path):
    _, path, data = _dump_with_cache(tmp_path)
    lines = path.read_text().splitlines()
    first = lines[1].split()
    first[0] = ("3" if first[0][0] == "2" else "2") + first[0][1:]
    lines[1] = " ".join(first)
    path.write_text("\n".join(lines) + "\n")  # the text's size is unchanged
    edited = _text_outcome(path)
    assert edited.rows[0, 0] == float(first[0])
    _cache(path).write_bytes(data)
    _assert_cache_ignored(path, edited)


def test_cache_with_a_flipped_payload_byte_is_ignored(tmp_path):
    inst, path, data = _dump_with_cache(tmp_path)
    for at in (len(data) - 4 * 8 * 4 - 1, len(data) - 1):  # a row entry, a reference entry
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        _cache(path).write_bytes(bytes(flipped))
        _assert_cache_ignored(path, inst)


def test_truncated_cache_is_ignored(tmp_path):
    inst, path, data = _dump_with_cache(tmp_path)
    header = data.index(b"\n") + 1
    for size in (0, 10, header - 1, header, len(data) - 8, len(data) - 1):
        _cache(path).write_bytes(data[:size])
        _assert_cache_ignored(path, inst)
    _cache(path).write_bytes(data + b"\0" * 8)
    _assert_cache_ignored(path, inst)


def test_another_dumps_cache_is_ignored(tmp_path):
    inst, path, _ = _dump_with_cache(tmp_path)
    _, _, other = _dump_with_cache(tmp_path, name="other.txt", seed=24)
    _cache(path).write_bytes(other)
    _assert_cache_ignored(path, inst)


def test_cache_header_beyond_the_entry_limit_is_ignored_before_allocating(tmp_path):
    inst, path, data = _dump_with_cache(tmp_path)
    header, payload = data.split(b"\n", 1)
    fields = header.split()
    assert fields[7:9] == [b"4", b"3"]  # m and n
    fields[7] = str((1 << 25) // 3 + 1).encode()
    _cache(path).write_bytes(b" ".join(fields) + b"\n" + payload)
    tracemalloc.start()
    try:
        assert problems._load_cache(path) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    _assert_cache_ignored(path, inst)
