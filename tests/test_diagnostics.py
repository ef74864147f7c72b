"""The ensembles' Lyapunov values against the independent matrix form, synthetic
ensembles against closed-form recursions, and the statistical checks against
both calibrated positives and deliberately broken negatives."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nagsa import diagnostics
from nagsa._rng import STREAM_BRANCH, STREAM_PATH, make_generator
from nagsa.diagnostics import (
    LEMMA_IDS,
    CheckReport,
    Scratch,
    _lyapunov_form,
    convergence_check,
    negative_controls,
    relay,
    run_lemma_check,
    summability_check,
    supermartingale_check,
    synth_paths,
    SummableSequence,
)
from nagsa.errors import ConfigurationError
from nagsa.momentum_algebra import fixed_point_matrix, tail_coefficients


# ---------------------------------------------------------------------------
# summable families


def test_geometric_tail_closed_form():
    seq = SummableSequence("geometric", scale=1.0, ratio=0.5)
    assert seq.values(3)[2] == 0.125
    assert seq.tails(4).tolist() == [1.0, 0.5, 0.25, 0.125]  # sum_{k>=n} 0.5^k
    assert abs(float(seq.values(59).sum()) - seq.tails(1)[0]) <= 1e-15


@pytest.mark.parametrize("ratio", [0.5, 0.85, 0.9, 0.97, 0.99])
def test_geometric_values_and_tails_equal_the_scalar_forms(ratio):
    """values and tails keep every bit of the scalar closed forms over 2000
    terms; np.power would change some of them, and with them the lemma CSVs."""
    for scale in (1.0, 1e-3, 1e-5):
        seq = SummableSequence("geometric", scale=scale, ratio=ratio)
        values = [scale * ratio**k for k in range(1, 2001)]
        tails = [scale * ratio**n / (1.0 - ratio) for n in range(1, 2001)]
        assert seq.values(2000).tobytes() == np.array(values).tobytes()
        assert seq.tails(2000).tobytes() == np.array(tails).tobytes()


def test_zero_sequence():
    seq = SummableSequence("zero")
    assert np.all(seq.values(10) == 0.0)
    assert np.all(seq.tails(10) == 0.0)


def test_summable_sequence_validation():
    with pytest.raises(ValueError):
        SummableSequence("arithmetic")
    with pytest.raises(ValueError):
        SummableSequence("geometric", scale=1.0, ratio=1.0)
    with pytest.raises(ValueError):
        SummableSequence("geometric", scale=1.0, ratio=-0.1)
    with pytest.raises(ValueError):
        SummableSequence("power", scale=1.0)
    with pytest.raises(ValueError):
        SummableSequence("geometric", scale=-1.0, ratio=0.5)


def test_tails_match_values_sum():
    seq = SummableSequence("geometric", scale=2.0, ratio=0.9)
    tails = seq.tails(5)
    # tail(n) - tail(n+1) telescopes back to the term
    diffs = tails[:-1] - tails[1:]
    assert np.allclose(diffs, seq.values(4), rtol=1e-12)


# ---------------------------------------------------------------------------
# averaged relay


def test_relay_contracts_to_constant_driver():
    out = relay(np.full(99, 0.3), np.full(100, 4.0), r0=10.0)
    gaps = np.abs(out - 4.0)
    assert gaps[-1] <= 1e-12
    # contraction by exactly (1 - theta) per step
    assert np.allclose(gaps[1:20] / gaps[:19], 0.7, atol=1e-12)


def test_relay_zero_momentum_freezes():
    out = relay(np.zeros(49), np.linspace(1, 9, 50), r0=2.5)
    assert np.all(out == 2.5)


def test_relay_hand_case_decaying_driver():
    ns = np.arange(1, 41, dtype=float)
    c = 1.5
    v_path = c + 2.0**-ns
    out = relay(np.full(39, 0.5), v_path, r0=10.0)
    assert abs(out[-1] - c) < 1e-6


def test_relay_validation():
    with pytest.raises(ValueError):
        relay(np.full(3, 0.5), np.empty(0), r0=0.0)
    with pytest.raises(ValueError):
        relay(np.full(2, 0.5), np.ones(4), r0=0.0)  # too few momentum values
    with pytest.raises(ValueError):
        relay(np.array([0.5, 1.0, 0.5]), np.ones(4), r0=0.0)


def _assert_relay_paths_equal_scalar_relay(seed, control, paths=12, length=400):
    """Every relay path of the ensemble is the 1-D relay of its own stream's
    (theta, driver, r0), bit for bit: the five uniform(lo, hi) draws of
    make_generator(STREAM_PATH, seed, p), in that order."""
    params = {"control": control} if control else None
    ens = synth_paths("relay", params, seed=seed, paths=paths, length=length)
    ns = np.arange(1, length + 1, dtype=float)
    for p in range(paths):
        g = make_generator(STREAM_PATH, seed, p)
        theta = g.uniform(0.1, 0.9)
        v_inf, amp, decay = g.uniform(0.5, 2.0), g.uniform(0.1, 1.0), g.uniform(0.8, 0.95)
        r0 = g.uniform(0.0, 3.0)
        v_path = v_inf + 0.002 * ns if control else v_inf + amp * decay**ns
        expected = relay(np.full(length - 1, theta), v_path, r0)
        assert ens.r[p].view(np.int64).tolist() == expected.view(np.int64).tolist(), p
        assert np.array_equal(ens.v[p], v_path[:-1])


@pytest.mark.parametrize("control", [None, "drift"])
def test_relay_paths_equal_scalar_relay(control):
    _assert_relay_paths_equal_scalar_relay(3, control)


def test_relay_path_axis_equals_one_relay_per_row():
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0.0, 0.99, (5, 59))
    v_paths = rng.uniform(0.0, 4.0, (5, 60))
    r0 = rng.uniform(0.0, 3.0, 5)
    out = relay(thetas, v_paths, r0)
    assert out.shape == (5, 60)
    for p in range(5):
        assert np.array_equal(out[p], relay(thetas[p], v_paths[p], r0[p]))
    with pytest.raises(ValueError):
        relay(thetas[:, :58], v_paths, r0)
    thetas[3, 7] = 1.0
    with pytest.raises(ValueError):
        relay(thetas, v_paths, r0)


def test_relay_tracks_any_convergent_driver():
    """Whatever the limit, the relay inherits it: 20 random convergent paths
    at length 5000 end within 1e-4 of their driver's limit."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        theta = float(rng.uniform(0.1, 0.9))
        v_inf = float(rng.uniform(0.5, 2.0))
        amp = float(rng.uniform(0.1, 1.0))
        decay = float(rng.uniform(0.8, 0.95))
        ns = np.arange(1, 5001, dtype=float)
        v_path = v_inf + amp * decay**ns
        out = relay(np.full(4999, theta), v_path, r0=float(rng.uniform(0.0, 3.0)))
        assert convergence_check(out, tol=1e-4)
        assert abs(out[-1] - v_inf) < 1e-4


# ---------------------------------------------------------------------------
# synthetic ensembles


def test_synth_unknown_lemma():
    with pytest.raises(ConfigurationError):
        synth_paths("lemma1", None, seed=1, paths=2, length=10)


def test_synth_size_validation():
    with pytest.raises(ValueError):
        synth_paths("drift", None, seed=1, paths=0, length=10)
    with pytest.raises(ValueError):
        synth_paths("drift", None, seed=1, paths=2, length=3)


def test_synth_unknown_params():
    with pytest.raises(ConfigurationError):
        synth_paths("drift", {"volatility": 2.0}, seed=1, paths=2, length=10)
    with pytest.raises(ConfigurationError):
        synth_paths("relay", {"sigma": 1.0}, seed=1, paths=2, length=10)


@pytest.mark.parametrize(
    "lemma_id, key, value",
    [
        ("slack", "betabar", 0.0),
        ("drift", "eta", [0.0] * 10),
        ("drift", "momentum", None),
        ("coupled", "h", 1.0),
        ("relay", "theta_lo", 0.1),
        ("first_order", "a_ratio", 0.97),
        ("coupled_weighted", "rho_limit", 0.05),
        ("drift_const", "sigma_ratio", 0.99),
        ("first_order", "r1", 5.0),
    ],
)
def test_synth_refuses_fixed_scenario_constants(lemma_id, key, value):
    """A scenario's constants are fixed; params sets only control, sigma
    and the delayed scenarios' r1 and r2."""
    with pytest.raises(ConfigurationError, match=f"unknown scenario parameters.*{key}"):
        synth_paths(lemma_id, {key: value}, seed=1, paths=2, length=10)


def test_synth_homogeneous_constant_path():
    # sigma = 0, eta = 0, equal starts: the recursion reproduces the constant
    ens = synth_paths(
        "drift_const",
        {"sigma": 0.0, "r1": 5.0, "r2": 5.0},
        seed=3,
        paths=4,
        length=50,
    )
    assert np.max(np.abs(ens.r - 5.0)) == 0.0


def test_synth_geometric_increment_closed_form():
    # r_1 = 0, r_2 = 1, theta = 0.5: increments halve, r_n = 2 - 0.5^(n-2)
    ens = synth_paths(
        "drift_const",
        {"sigma": 0.0, "r1": 0.0, "r2": 1.0},
        seed=3,
        paths=2,
        length=40,
    )
    ns = np.arange(2, 41, dtype=float)
    expected = 2.0 - 0.5 ** (ns - 2.0)
    assert np.max(np.abs(ens.r[0, 1:] - expected)) <= 1e-12
    assert abs(ens.r[0, -1] - 2.0) <= 1e-9


def test_synth_explicit_init_normalizes_negative_zero():
    """r2 = -0.0 at sigma = 0 starts the paths at +0.0, so no state keeps a
    sign bit."""
    ens = synth_paths(
        "drift_const", {"sigma": 0.0, "r1": 0.0, "r2": -0.0}, seed=3, paths=3, length=10
    )
    assert not np.signbit(ens.r).any()


def test_synth_explicit_init_below_floor_is_refused():
    with pytest.raises(ConfigurationError):
        synth_paths("drift_const", {"r1": 0.01, "r2": 0.01}, seed=3, paths=2, length=400)


def test_synth_explicit_init_needs_both_values():
    with pytest.raises(ConfigurationError):
        synth_paths("drift_const", {"r1": 5.0}, seed=3, paths=2, length=20)


def test_synth_paths_never_negative():
    for lemma_id in ("drift", "drift_const", "slack", "coupled", "coupled_weighted"):
        ens = synth_paths(lemma_id, None, seed=5, paths=10, length=300)
        assert float(ens.r.min()) >= 0.0


def test_synth_deterministic_in_seed():
    a = synth_paths("drift", None, seed=11, paths=5, length=100)
    b = synth_paths("drift", None, seed=11, paths=5, length=100)
    assert np.array_equal(a.r, b.r)
    c = synth_paths("drift", None, seed=12, paths=5, length=100)
    assert not np.array_equal(a.r, c.r)


def test_synth_coupled_auxiliary_decays():
    ens = synth_paths("coupled", None, seed=7, paths=20, length=2000)
    assert ens.z is not None and ens.z.ndim == 1  # shared deterministic path
    assert np.all(np.diff(ens.z) <= 1e-15)
    assert float(np.max(ens.z[200:])) < 1e-3
    assert ens.z[-1] >= 0.0


def test_synth_coupled_weighted_z_nonincreasing():
    ens = synth_paths("coupled_weighted", None, seed=7, paths=10, length=800)
    assert np.all(np.diff(ens.z) <= 1e-15)
    assert np.all(ens.z >= 0.0)


@pytest.mark.parametrize("lemma_id", ["coupled", "coupled_weighted"])
def test_synth_coupled_z_stays_nonincreasing_on_long_paths(lemma_id):
    """The fixed coupled constants keep the auxiliary path non-negative and
    non-increasing, as the telescoped tail of V needs, into the subnormal
    range that z reaches near step 6700."""
    ens = synth_paths(lemma_id, None, seed=7, paths=1, length=20_000)
    assert ens.z[-1] < 1e-307
    assert np.all(np.diff(ens.z) <= 1e-15)
    assert np.all(ens.z >= 0.0)


def test_synth_first_order_shape_and_offset():
    ens = synth_paths("first_order", None, seed=2, paths=6, length=120)
    assert ens.r.shape == (6, 120)
    assert ens.v_offset == 1
    assert ens.v.shape == (6, 119)


def test_synth_relay_fields():
    ens = synth_paths("relay", None, seed=2, paths=6, length=100)
    assert ens.lemma_id == "relay"
    assert ens.theta_valid
    assert ens.v.shape == (6, 99)
    assert ens.recursion is None  # deterministic driver


@pytest.mark.parametrize("lemma_id", ["drift", "slack", "coupled_weighted"])
def test_ensemble_v_matches_matrix_form(lemma_id):
    """V_n = [s_n, s_{n+1}] Q_n phi + c_n with Q_n = fixed_point_matrix(t_n),
    the algebra module's rank-one tail product, for a phi other than
    (1/2, 1/2): V does not depend on the weights. s = r + h z, and c_n =
    2 (sum_{k>=n} beta_k + h theta_1 z_n), the beta tail in closed form."""
    length = 200
    ens = synth_paths(lemma_id, {"sigma": 0.0}, seed=3, paths=3, length=length)
    scn = diagnostics._DELAYED[lemma_id]
    t = tail_coefficients(scn.momentum, length)
    ns = np.arange(1, length, dtype=float)
    beta_tail = scn.beta.scale * np.power(scn.beta.ratio, ns) / (1.0 - scn.beta.ratio)
    c = 2.0 * (beta_tail + scn.h * scn.momentum.at(1) * ens.z[: length - 1])
    s = ens.r + scn.h * ens.z
    phi = np.array([0.25, 0.75])
    for n in range(1, length):
        expected = np.column_stack([s[:, n - 1], s[:, n]]) @ fixed_point_matrix(t.t(n)) @ phi
        np.testing.assert_allclose(ens.v[:, n - 1], expected + c[n - 1], rtol=1e-10, atol=0)


def test_ensemble_v_constant_momentum_closed_form():
    """With constant theta and no beta, V_n = (s_{n+1} - theta s_n) / (1 - theta)
    + c_n; drift_const (theta = 1/2) has h = 0 and beta = 0, so s = r and
    c = 0."""
    ens = synth_paths("drift_const", {"sigma": 0.0}, seed=4, paths=3, length=200)
    expected = (ens.r[:, 1:] - 0.5 * ens.r[:, :-1]) / 0.5
    np.testing.assert_allclose(ens.v, expected, rtol=1e-10, atol=0)


_FORM_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _form_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=_FORM_VALUE)


def _bits(a):
    """The bit patterns of a, every NaN as numpy's nan: an in-place add may
    take the NaN of either operand, so a NaN's sign is not kept."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tolist()


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            _form_arrays((shape[0], 1)),
            _form_arrays((shape[0], 1)),
            _form_arrays(shape),
            _form_arrays((shape[0], 1)),
            _form_arrays(shape[1]),
            _form_arrays(shape),
            _form_arrays(shape[1]),
            st.booleans(),
        )
    )
)
def test_lyapunov_form_in_place_equals_the_allocating_form(arrays):
    """Written into `out`, even one aliasing s_next as a branch block does or
    s_n, V has the bits of (1 + t) s_next - t s_n + c, on branch-shaped
    ((rows, 1) t, s_n, c) and path-shaped ((L,) t, c) arrays, including
    +-0, +-inf and nan (a NaN's sign aside)."""
    t, s_n, s_next, c, t_path, s_path, c_path, alias_s_n = arrays
    with np.errstate(all="ignore"):
        want = _bits((1.0 + t) * s_next - t * s_n + c)
        assert _bits(_lyapunov_form(t, s_n, s_next, c)) == want
        out = s_next.copy()
        got = _lyapunov_form(t, s_n, out, c, out=out)
        assert got is out and _bits(out) == want

        # path shape: V over s[:, :-1] and s[:, 1:], into rows of a separate
        # array or into s_n's own buffer
        s = np.concatenate([s_path, s_path[:, :1]], axis=1)
        want = _bits((1.0 + t_path) * s[:, 1:] - t_path * s[:, :-1] + c_path)
        out = s[:, :-1].copy() if alias_s_n else np.empty_like(s_path)
        s_n = out if alias_s_n else s[:, :-1]
        _lyapunov_form(t_path, s_n, s[:, 1:], c_path, out=out)
        assert _bits(out) == want


def test_branch_values_are_probe_order_independent():
    ens = synth_paths("drift_const", None, seed=9, paths=3, length=200)
    first = ens.branch_values(1, np.array([50]), 64)
    # probing other (path, step) pairs in between must not disturb the draw
    ens.branch_values(0, np.array([10]), 64)
    ens.branch_values(2, np.array([120]), 64)
    again = ens.branch_values(1, np.array([50]), 64)
    assert np.array_equal(first, again)


def test_branch_values_rows_equal_single_probes():
    """One call over many steps gives, row for row, the one-step calls, in
    whatever order the steps come."""
    for lemma_id in ("drift", "first_order", "relay"):
        ens = synth_paths(lemma_id, None, seed=9, paths=3, length=200)
        steps = np.array([120, 3, 57, 180])
        rows = ens.branch_values(2, steps, 64)
        assert rows.shape == (4, 64)
        for row, n in zip(rows, steps):
            assert np.array_equal(row, ens.branch_values(2, np.array([n]), 64)[0])
        assert np.array_equal(ens.branch_values(2, steps[::-1], 64), rows[::-1])


def test_branch_values_path_array_rows_equal_per_path_calls():
    """Paths given as an array, broadcast against the steps, give row for
    row the one-path calls."""
    for lemma_id in ("drift", "coupled_weighted", "first_order", "relay"):
        ens = synth_paths(lemma_id, None, seed=9, paths=4, length=200)
        paths = np.array([3, 0, 2, 2, 1])
        steps = np.array([120, 3, 57, 180, 57])
        rows = ens.branch_values(paths, steps, 64)
        assert rows.shape == (5, 64)
        for row, p, n in zip(rows, paths, steps):
            assert row.tobytes() == ens.branch_values(int(p), np.array([n]), 64)[0].tobytes()
        # one path index broadcasts against a row of steps
        one = ens.branch_values(np.array([2]), steps, 64)
        assert one.tobytes() == ens.branch_values(2, steps, 64).tobytes()
    with pytest.raises(ValueError, match="1-D"):
        ens.branch_values(np.array([[0], [1]]), steps, 64)


def test_branch_values_step_validation():
    ens = synth_paths("drift_const", None, seed=9, paths=2, length=50)
    with pytest.raises(ValueError, match="branch step 49 outside 1..48"):
        ens.branch_values(0, np.array([10, 49]), 40)
    with pytest.raises(ValueError, match="1-D"):
        ens.branch_values(0, np.int64(10), 40)


def test_branch_values_match_recursion_mean():
    """Conditional branches at (p, n) must be centered on the drift recursion
    applied to the frozen pair (r_n, r_{n+1}), since the noise is zero-mean."""
    ens = synth_paths("drift_const", None, seed=9, paths=3, length=200)
    theta = 0.5
    p, n = 1, 80
    r_n, r_next = ens.r[p, n - 1], ens.r[p, n]
    t = 1.0  # tail coefficient for constant theta = 0.5
    samples = ens.branch_values(p, np.array([n]), 50_000)[0]
    # V_{n+1} = (1+t) r_{n+2} - t r_{n+1}; E r_{n+2} = (1+theta) r_{n+1} - theta r_n
    expected_mean = (1.0 + t) * ((1.0 + theta) * r_next - theta * r_n) - t * r_next
    se = float(np.std(samples) / math.sqrt(len(samples)))
    assert abs(float(np.mean(samples)) - expected_mean) <= 5.0 * se + 1e-12


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_noiseless_branches_equal_realized_values(lemma_id):
    """With sigma = 0 every branch sample is the realized V_{n+1} bit for bit:
    branches and paths share one recursion and one Lyapunov form. (The relay
    driver is deterministic at any setting.)"""
    params = None if lemma_id == "relay" else {"sigma": 0.0}
    ens = synth_paths(lemma_id, params, seed=4, paths=3, length=120)
    for p in range(ens.paths):
        for n in range(1 + ens.v_offset, ens.length - 1 + ens.v_offset):
            samples = ens.branch_values(p, np.array([n]), 5)[0]
            assert np.array_equal(samples, np.full(5, ens.v[p, n - ens.v_offset])), (p, n)


def test_negative_controls_mapping():
    for lemma_id in LEMMA_IDS:
        controls = negative_controls(lemma_id)
        assert "drift" in controls
        if lemma_id in ("relay", "first_order"):
            assert controls == ("drift",)
        else:
            assert controls == ("drift", "theta")


# ---------------------------------------------------------------------------
# statistical checks


def test_supermartingale_check_validation():
    ens = synth_paths("drift_const", None, seed=1, paths=2, length=50)
    with pytest.raises(ValueError):
        supermartingale_check(ens, branches=29)


def test_supermartingale_check_deterministic_decrease():
    # relay paths driven by a decaying deterministic V: no violations possible
    ens = synth_paths("relay", None, seed=4, paths=30, length=300)
    report = supermartingale_check(ens, branches=40)
    assert report.violations == 0
    assert report.checks > 0
    assert len(report.z) == report.checks


def _per_probe_report(ens, branches, tol_z=3.0, steps_per_path=24):
    """supermartingale_check one probe at a time: its own branch stream per
    (path, step), rec.mean and _lyapunov_form on one frozen state, np.mean and
    np.std per probe, and the scalar z-score rule."""
    report = CheckReport(lemma_id=ens.lemma_id, paths_tested=ens.paths)
    lo, hi = 1 + ens.v_offset, ens.v_offset + ens.v.shape[1] - 1
    steps = np.unique(np.round(np.geomspace(lo, hi, steps_per_path)).astype(int)).tolist()
    rec = ens.recursion
    columns = ([], [], [], [], [])
    for p in range(ens.paths):
        for n in steps:
            j = n - ens.v_offset
            if rec is None:
                samples = np.full(branches, ens.v[p, j])
            else:
                q = j + 1
                i = q - rec.order
                w = make_generator(STREAM_BRANCH, ens.seed, p, n).uniform(-1.0, 1.0, branches)
                r_next = rec.mean(i, ens.r[p, i], ens.r[p, q - 1]) + rec.sigma[i] * w
                s_n = ens.r[p, q - 1] + ens.h * ens.z[q - 1]
                samples = _lyapunov_form(ens.t[j], s_n, r_next + ens.h * ens.z[q], ens.c[j])
            estimate = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / math.sqrt(branches))
            v_n = float(ens.v[p, j - 1])
            diff = estimate - v_n
            rounding = 1e-12 * max(1.0, abs(v_n))
            if se > rounding:
                zscore = diff / se
                violated = zscore > tol_z
            else:
                violated = diff > rounding
                zscore = math.inf if violated else 0.0
            report.checks += 1
            report.violations += int(violated)
            report.worst_z = max(report.worst_z, zscore)
            for column, value in zip(columns, (p, n, v_n, estimate, zscore)):
                column.append(value)
    report.path, report.step, report.v_n, report.estimate, report.z = map(np.array, columns)
    return report


def _detail_bits(report, rows=None):
    """The bytes of a report's first `rows` probes (all by default), column
    by column."""
    columns = (report.path, report.step, report.v_n, report.estimate, report.z)
    assert [c.dtype for c in columns] == [np.int64] * 2 + [np.float64] * 3
    assert len({len(c) for c in columns}) == 1
    return [c[:rows].tobytes() for c in columns]


@pytest.mark.parametrize("control", [None, "drift"])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_supermartingale_check_matches_per_probe_loop(lemma_id, control):
    params = {"control": control} if control else None
    ens = synth_paths(lemma_id, params, seed=5, paths=8, length=300)
    got = supermartingale_check(ens, branches=40)
    want = _per_probe_report(ens, branches=40)
    assert got.checks == want.checks > 0
    assert _detail_bits(got) == _detail_bits(want)
    assert got.violations == want.violations
    assert got.worst_z.hex() == want.worst_z.hex()


@pytest.mark.parametrize("lemma_id", ["drift", "first_order", "coupled_weighted"])
def test_supermartingale_check_paths_do_not_depend_on_batch(lemma_id):
    """The check seeds all its branch streams in one pass; a path's draws
    must not depend on how many paths share that pass."""
    full = supermartingale_check(synth_paths(lemma_id, None, 7, 9, 300), branches=40)
    per_path = full.checks // 9
    for k in (1, 4, 9):
        part = supermartingale_check(synth_paths(lemma_id, None, 7, k, 300), branches=40)
        assert part.paths_tested == k
        assert _detail_bits(part) == _detail_bits(full, k * per_path)


@pytest.mark.parametrize("budget", [1, 3 * 24 * 40])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_supermartingale_check_blocks_match_per_probe_loop(lemma_id, budget, monkeypatch):
    """Blocks of one path (a budget below one path's samples) and blocks of
    three whole paths, the last one partial (at length 300 a path has 21 to
    23 probes of 40 branches, and there are 8 paths), both give the
    per-probe report."""
    monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", budget)
    ens = synth_paths(lemma_id, None, seed=5, paths=8, length=300)
    got = supermartingale_check(ens, branches=40)
    want = _per_probe_report(ens, branches=40)
    assert got.checks == want.checks > 0
    assert _detail_bits(got) == _detail_bits(want)
    assert got.violations == want.violations
    assert got.worst_z.hex() == want.worst_z.hex()


def test_streams_of_a_seed_past_int64():
    """Path and branch streams of a seed that no int64 holds are still those
    of make_generator on the exact key."""
    seed = 2**64 + 1
    ens = synth_paths("relay", None, seed=seed, paths=2, length=100)
    g = make_generator(STREAM_PATH, seed, 1)
    theta = g.uniform(0.1, 0.9)
    g.uniform(0.5, 2.0), g.uniform(0.1, 1.0), g.uniform(0.8, 0.95)
    assert ens.r[1, 0] == g.uniform(0.0, 3.0)
    assert ens.r[1, 1] == (1.0 - theta) * ens.r[1, 0] + theta * ens.v[1, 1]
    ens = synth_paths("drift", None, seed=seed, paths=3, length=200)
    got = supermartingale_check(ens, branches=40)
    assert _detail_bits(got) == _detail_bits(_per_probe_report(ens, branches=40))


_STREAM_SEEDS = [0, 1, 2**64 + 1]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_walk_draws_equal_path_generator_streams(seed):
    """_walk's spreads and noise are what make_generator(STREAM_PATH, seed, p)
    gives through random() and then uniform(-1, 1, steps): a recursion whose
    mean is 0 and sigma 1 writes its noise straight into the states."""
    paths, length, order = 5, 60, 2
    rec = types.SimpleNamespace(order=order, mean=lambda i, prev, curr: 0.0, sigma=np.ones(length))
    r = diagnostics._walk(rec, seed, paths, length, lambda spreads: spreads[:, None])
    for p in range(paths):
        g = make_generator(STREAM_PATH, seed, p)
        spread = g.random()
        assert r[p, :order].tolist() == [spread] * order, p
        assert r[p, order:].tobytes() == g.uniform(-1.0, 1.0, length - order).tobytes(), p


@pytest.mark.parametrize("control", [None, "drift"])
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_relay_draws_equal_path_generator_streams(seed, control):
    _assert_relay_paths_equal_scalar_relay(seed, control)


# every scenario with a recursion, under each of its controls
_WALK_CASES = [
    (lemma_id, control)
    for lemma_id in LEMMA_IDS
    if lemma_id != "relay"
    for control in (None, *negative_controls(lemma_id))
]


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("lemma_id, control", _WALK_CASES)
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_walk_equals_five_term_step_loop(seed, lemma_id, control, sigma):
    """Every path is, bit for bit, a scalar loop of the full five-term mean
    (1 + theta_i) r_{q-1} - theta_i r_i + beta_i - eta_i + couple_i plus
    sigma_i w_i, on the noise of make_generator(STREAM_PATH, seed, p), from
    the path's first `order` values."""
    params = {"sigma": sigma, **({"control": control} if control else {})}
    paths, length = 3, 150
    ens = synth_paths(lemma_id, params, seed, paths, length)
    rec = ens.recursion
    for p in range(paths):
        g = make_generator(STREAM_PATH, seed, p)
        g.random()  # the spread that set the first `order` values
        w = g.uniform(-1.0, 1.0, length - rec.order)
        r = list(ens.r[p, : rec.order])
        for i in range(length - rec.order):
            prev, curr, theta = r[i], r[i + rec.order - 1], rec.thetas[i]
            mean = (1.0 + theta) * curr - theta * prev + rec.beta[i] - rec.eta[i] + rec.couple[i]
            r.append(mean + rec.sigma[i] * w[i])
        assert np.array(r).tobytes() == ens.r[p].tobytes(), p


@pytest.mark.parametrize("lemma_id, control", _WALK_CASES)
def test_recursion_mean_rows_equal_scalar_calls(lemma_id, control):
    """mean with an array of steps (as branches call it) equals, row for row,
    its calls with one step: on one state each, and on a row of states (as
    the walk calls it)."""
    params = {"control": control} if control else None
    paths, length = 4, 120
    ens = synth_paths(lemma_id, params, seed=3, paths=paths, length=length)
    rec = ens.recursion
    picks = np.random.default_rng(0)
    i = picks.integers(0, length - rec.order, size=40)
    p = picks.integers(0, paths, size=40)
    prev, curr = ens.r[p, i], ens.r[p, i + rec.order - 1]
    rows = rec.mean(i, prev, curr)
    assert rows.shape == (40,)
    for k in range(40):
        one = rec.mean(int(i[k]), prev[k], curr[k])
        assert float(one).hex() == float(rows[k]).hex(), k
        on_rows = rec.mean(int(i[k]), ens.r[:, i[k]], ens.r[:, i[k] + rec.order - 1])
        assert float(on_rows[p[k]]).hex() == float(rows[k]).hex(), k


def _ensemble_bytes(ens):
    return [a.tobytes() for a in (ens.r, ens.v) if a is not None]


def test_scenarios_on_one_scratch_equal_fresh_ones():
    """Built one after another on one Scratch, as run_lemma_suite builds
    them, every scenario and control has the paths, V, branch values and
    report of its own fresh build; a Scratch's path buffers refuse a larger
    shape, and its block grows."""
    scratch = Scratch(9, 160)
    for lemma_id in LEMMA_IDS:
        for control in (None, *negative_controls(lemma_id)):
            params = {"control": control} if control else None
            fresh = synth_paths(lemma_id, params, 5, 9, 160)
            shared = synth_paths(lemma_id, params, 5, 9, 160, scratch)
            assert _ensemble_bytes(shared) == _ensemble_bytes(fresh), (lemma_id, control)
            if fresh.v is None:
                continue
            steps = np.array([3, 40, 150])
            out = scratch.take("block", 3, 40)
            got = shared.branch_values(np.array([0, 4, 8]), steps, 40, out=out)
            assert got is out
            assert got.tobytes() == fresh.branch_values(np.array([0, 4, 8]), steps, 40).tobytes()
            a = supermartingale_check(fresh, branches=40)
            b = supermartingale_check(shared, branches=40, scratch=scratch)
            assert _detail_bits(a) == _detail_bits(b)
            assert (a.worst_z, a.violations) == (b.worst_z, b.violations)
    with pytest.raises(ValueError, match="holds 9 x 160"):
        scratch.take("a", 9, 161)
    assert scratch.take("block", 40, 300).shape == (40, 300)


def test_relay_into_a_given_array():
    thetas, v_paths = np.full((3, 19), 0.4), np.linspace(1.0, 2.0, 60).reshape(3, 20)
    out = np.empty((3, 20))
    assert relay(thetas, v_paths, 1.5, out=out) is out
    assert out.tobytes() == relay(thetas, v_paths, 1.5).tobytes()
    with pytest.raises(ValueError, match="driving path"):
        relay(thetas, v_paths, 1.5, out=np.empty((3, 19)))


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_lemma_check_on_a_warm_scratch_allocates_no_path_array(lemma_id):
    """At 200 paths x 2000 steps a path array is 3.05 MiB. On a Scratch that
    a previous scenario sized, a whole scenario check traces under 2 MiB,
    so run_lemma_suite allocates its path-sized arrays once, not once per
    scenario (that churn left the suite's resident peak to the heap
    layout)."""
    scratch = Scratch(200, 2000)
    run_lemma_check(lemma_id, scratch=scratch)
    tracemalloc.start()
    try:
        run_lemma_check(lemma_id, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_synth_paths_traced_peak_is_bounded(lemma_id):
    """At 200 paths x 2000 steps the ensemble keeps r and V, 3.05 MiB each;
    building it traces under 8 MiB, so no full-size temporary outlives its
    stage."""
    synth_paths(lemma_id, None, 1, 20, 200)  # the first call's imports
    tracemalloc.start()
    try:
        ens = synth_paths(lemma_id, None, 1, 200, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.r.shape == (200, 2000)
    assert peak < 8 * 2**20, peak / 2**20


def test_supermartingale_check_is_reproducible():
    ens = synth_paths("drift_const", None, seed=6, paths=10, length=300)
    a = supermartingale_check(ens, branches=50)
    b = supermartingale_check(ens, branches=50)
    assert _detail_bits(a) == _detail_bits(b)
    assert a.worst_z == b.worst_z


def test_martingale_calibration():
    """theta_k = 1/(k+3) with eta = beta = 0 makes V exactly a martingale;
    over ~10^4 branch checks the 3-SE one-sided flag should fire well under
    1% of the time."""
    ens = synth_paths("drift", None, seed=13, paths=400, length=2000)
    report = supermartingale_check(ens, branches=60)
    assert report.checks >= 9000
    assert report.violation_rate < 0.01


def test_drift_control_flags_majority_violations():
    ens = synth_paths("drift_const", {"control": "drift"}, seed=3, paths=20, length=400)
    report = supermartingale_check(ens, branches=60)
    assert report.violations / report.checks > 0.5


def test_check_report_fails_when_the_slack_did_not_plateau():
    assert CheckReport("slack", 10, checks=200, eta_plateaued=True).passed
    assert not CheckReport("slack", 10, checks=200, eta_plateaued=False).passed


def test_theta_control_produces_failure_reason():
    ens = synth_paths("drift_const", {"control": "theta"}, seed=3, paths=5, length=100)
    assert not ens.theta_valid
    report = supermartingale_check(ens, branches=40)
    assert report.failure_reason is not None
    assert not report.passed
    assert report.checks == 0


def test_convergence_check_examples():
    assert convergence_check(np.full(500, 2.0))
    assert not convergence_check(np.arange(500, dtype=float))
    ns = np.arange(1, 201, dtype=float)
    assert convergence_check(1.0 + 0.9**ns, window=100, tol=1e-3)
    assert not convergence_check(1.0 + 0.9**ns, window=200, tol=1e-12)


def test_convergence_check_nonfinite_is_false():
    x = np.full(300, 1.0)
    x[250] = np.nan
    assert not convergence_check(x)
    x[250] = np.inf
    assert not convergence_check(x)


def test_convergence_check_window_validation():
    with pytest.raises(ValueError):
        convergence_check(np.zeros(50), window=51)
    with pytest.raises(ValueError):
        convergence_check(np.zeros(50), window=1)


def test_convergence_check_rows_equal_per_row_calls():
    """A (paths, length) array is tested row by row in one call: its bool
    array equals the per-row calls, non-finite rows included, and a window
    outside 2..length is refused as for one row."""
    ns = np.arange(1, 301, dtype=float)
    x = np.stack(
        [np.full(300, 2.0), np.arange(300.0), 1.0 + 0.9**ns, 1.0 + 0.99**ns, np.ones(300), np.ones(300)]
    )
    x[4, 250] = np.nan
    x[5, 280:] = [np.inf, -np.inf] * 10
    seen = set()
    for window, tol in ((None, 1e-4), (100, 1e-3), (2, 1e-12), (300, 1.0)):
        got = convergence_check(x, window=window, tol=tol)
        assert got.dtype == bool and got.shape == (6,)
        rows = [convergence_check(row, window=window, tol=tol) for row in x]
        assert all(type(row) is bool for row in rows)
        assert got.tolist() == rows
        seen.update(rows)
    assert seen == {True, False}
    for window in (1, 301):
        with pytest.raises(ValueError, match=f"window {window} outside 2..300"):
            convergence_check(x, window=window)


def test_run_lemma_check_tests_convergence_in_one_call(monkeypatch):
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return convergence_check(x, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "convergence_check", counted)
    report = run_lemma_check("drift", paths=5, length=200, branches=30)
    assert calls == [(5, 200)]
    assert report.converged_fraction is not None


def test_summability_check_examples():
    ks = np.arange(1, 10**5 + 1, dtype=float)
    assert summability_check(2.0**-ks)
    assert not summability_check(1.0 / ks)
    assert summability_check(np.zeros(100))


def test_summability_check_harmonic_increase_is_log_ten():
    ks = np.arange(1, 10**5 + 1, dtype=float)
    sums = np.cumsum(1.0 / ks)
    increase = sums[-1] - sums[len(ks) // 10 - 1]
    assert abs(increase - math.log(10.0)) < 1e-3


def test_summability_check_validation():
    with pytest.raises(ValueError):
        summability_check(np.zeros(9))
    with pytest.raises(ValueError):
        summability_check(np.array([1.0] * 9 + [-1.0]))


# ---------------------------------------------------------------------------
# full pipelines at reduced scale


def test_run_lemma_check_drift_const():
    report = run_lemma_check("drift_const", paths=30, length=800, branches=60, seed=7)
    assert report.lemma_id == "drift_const"
    assert report.paths_tested == 30
    assert report.violation_rate < 0.01
    assert report.converged_fraction >= 0.99
    assert report.eta_plateaued is None  # no slack sequence asserted here
    assert report.passed


def test_run_lemma_check_slack_asserts_plateau():
    report = run_lemma_check("slack", paths=20, length=2000, branches=50, seed=7)
    assert report.eta_plateaued is True
    assert report.passed


def test_run_lemma_check_first_order():
    report = run_lemma_check("first_order", paths=30, length=800, branches=60, seed=7)
    assert report.passed


def test_run_lemma_check_relay():
    report = run_lemma_check("relay", paths=40, length=1500, branches=40, seed=7)
    assert report.violations == 0
    assert report.converged_fraction == 1.0
    assert report.passed


def test_run_lemma_check_drift_negative_control():
    report = run_lemma_check(
        "drift", paths=20, length=600, branches=60, seed=7, params={"control": "drift"}
    )
    assert report.violation_rate > 0.5
    assert report.converged_fraction < 0.99
    assert not report.passed


def test_run_lemma_check_theta_negative_control():
    report = run_lemma_check(
        "slack", paths=10, length=200, branches=40, seed=7, params={"control": "theta"}
    )
    assert report.failure_reason is not None
    assert not report.passed


def test_check_report_counts_consistent():
    report = run_lemma_check("coupled", paths=10, length=400, branches=40, seed=2)
    assert len(_detail_bits(report)[0]) == 8 * report.checks
    assert 0 <= report.violations <= report.checks
    steps_per_path = report.checks // report.paths_tested
    assert report.checks == report.paths_tested * steps_per_path
