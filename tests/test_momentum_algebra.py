"""Exact and property-based checks for the two-term recursion algebra.

Expected values come from three independent sources: hand-multiplied 2x2
products, exact series for the tail coefficients (factorial sums via
fractions.Fraction), and closed forms for constant momentum.
"""

import contextlib
import hashlib
import math
import os
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nagsa import momentum_algebra
from nagsa.cli import build_parser, main
from nagsa.errors import DivergenceError, StructuralError
from nagsa.momentum_algebra import (
    ProductState,
    companion_matrix,
    fixed_point_matrix,
    fixed_point_residual,
    head_coefficients,
    head_product,
    head_products,
    tail_coefficients,
    tail_product,
)
from nagsa.schedules import constant_momentum, harmonic_momentum, power_momentum


def test_companion_matrix_half():
    m = companion_matrix(0.5)
    assert m.tolist() == [[0.0, -0.5], [1.0, 1.5]]


def test_companion_matrix_zero():
    m = companion_matrix(0.0)
    assert m.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_companion_matrix_spectrum():
    # trace 1 + theta, determinant theta, so eigenvalues are {1, theta}
    m = companion_matrix(0.9)
    assert np.isclose(np.trace(m), 1.9)
    assert np.isclose(np.linalg.det(m), 0.9)
    eig = np.sort(np.linalg.eigvals(m).real)
    assert np.allclose(eig, [0.9, 1.0], atol=1e-12)


@pytest.mark.parametrize("theta", [-0.1, 1.0, 1.05])
def test_companion_matrix_rejects_bad_momentum(theta):
    with pytest.raises(ValueError):
        companion_matrix(theta)


def test_head_product_constant_half_n3():
    """P_3 for theta = 0.5, multiplied out by hand."""
    state = head_product([0.5, 0.5, 0.5], 3)
    expected = np.array([[-0.75, -0.875], [1.75, 1.875]])
    assert np.allclose(state.entries, expected, atol=1e-12)
    d, c = head_coefficients(state)
    assert abs(d - 0.75) <= 1e-12
    assert abs(c - 0.875) <= 1e-12


def test_head_product_matches_direct_multiplication():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 0.95, 12)
    direct = companion_matrix(thetas[0])
    for theta in thetas[1:]:
        direct = direct @ companion_matrix(theta)
    state = head_product(thetas, 12)
    assert np.max(np.abs(state.entries - direct)) <= 1e-12


def test_head_product_zero_momentum_is_idempotent():
    state = head_product([0.0] * 6, 6)
    assert np.allclose(state.entries, [[0.0, 0.0], [1.0, 1.0]], atol=0.0)


def test_head_products_fold_equals_each_head_product():
    thetas = harmonic_momentum(2.0).values(40)
    states = list(head_products(thetas))
    assert [state.index for state in states] == list(range(1, 41))
    for n, state in enumerate(states, 1):
        assert state.kind == "head"
        assert np.array_equal(state.entries, head_product(thetas, n).entries)
    assert list(head_products([])) == []


_THETA = st.one_of(st.just(0.0), st.floats(0.0, 0.999))


def _direct_fold(thetas):
    """P_1 .. P_n by one companion_matrix and one @ per factor."""
    out, p = [], None
    for theta in thetas:
        step = companion_matrix(theta)
        p = step if p is None else p @ step
        out.append(p)
    return out


@given(st.lists(_THETA, max_size=40), st.integers(1, 5))
def test_head_products_block_fold_is_bitwise_the_direct_fold(thetas, block):
    """Blocks of 1..5 rows make the lists cross block boundaries; every
    product keeps every bit of the per-factor fold and is read-only."""
    with mock.patch.object(momentum_algebra, "_BLOCK", block):
        states = list(head_products(thetas))
        direct = _direct_fold(thetas)
        assert [state.index for state in states] == list(range(1, len(thetas) + 1))
        for n, (state, p) in enumerate(zip(states, direct), 1):
            assert np.array_equal(state.entries.view(np.uint64), p.view(np.uint64))
            assert not state.entries.flags.writeable
            nth = head_product(thetas, n).entries
            assert np.array_equal(nth.view(np.uint64), p.view(np.uint64))


@given(
    st.lists(_THETA, max_size=40),
    st.integers(1, 5),
    st.sampled_from([-0.5, -1e-300, 1.0, 2.0, math.inf, math.nan]),
    st.data(),
)
def test_head_products_stop_before_a_bad_momentum(thetas, block, bad, data):
    """A bad value at 1-based position j yields the j - 1 products before it,
    then the ValueError companion_matrix raises."""
    j = data.draw(st.integers(1, len(thetas) + 1))
    values = thetas[: j - 1] + [bad] + thetas[j - 1 :]
    got = []
    with mock.patch.object(momentum_algebra, "_BLOCK", block):
        with pytest.raises(ValueError) as exc:
            for state in head_products(values):
                got.append(state)
    assert len(got) == j - 1
    assert str(exc.value) == f"momentum must lie in [0, 1), got {bad}"


@pytest.mark.parametrize(
    "argv, schedule",
    [
        (["--family", "constant", "--theta", "0.9"], constant_momentum(0.9)),
        (["--family", "harmonic", "--s", "2"], harmonic_momentum(2.0)),
        (
            ["--family", "power", "--c", "0.9", "--s", "1", "--p", "0.7"],
            power_momentum(0.9, 1.0, 0.7),
        ),
    ],
    ids=["constant", "harmonic", "power"],
)
def test_cli_algebra_table_equals_per_row_head_products(argv, schedule, capsys):
    """The table folds the head products once; every row must equal the one
    built from its own head_product(thetas, k), byte for byte."""
    n = 60
    assert main(["algebra", *argv, "--n", str(n)]) == 0
    table = capsys.readouterr().out.splitlines()
    thetas = schedule.values(n)
    tails = tail_coefficients(schedule, n + 1)
    expected = ["k,theta,d,c,residual,t"]
    for k in range(1, n + 1):
        d, c = head_coefficients(head_product(thetas, k))
        d, c = d + 0.0, c + 0.0
        expected.append(
            f"{k},{thetas[k - 1]:.17g},{d:.17g},{c:.17g},{(d - c) ** 2:.17g},{tails.t(k):.17g}"
        )
    assert table == expected


# sha256 of the table's stdout as the per-row fold (one companion_matrix and
# one print per row) wrote it; the block fold must keep every byte
_TABLE_SHA256 = [
    (
        ["--family", "harmonic", "--s", "2", "--n", "500"],
        "265349d339d9221a4313c12c9fec3d51b4f509164c1c753973782cd0e74362d9",
    ),
    (
        ["--family", "harmonic", "--s", "3", "--n", "500"],
        "ed961fce54576a2dda4b34267e28cdf912c8c7b4f4241122964d611286164458",
    ),
    (
        ["--family", "constant", "--theta", "0.9", "--n", "20000"],
        "c60a7f83f3b54c575a75413ab0f9581f13e32753f70a6055a66f124d775b1246",
    ),
    (
        ["--family", "power", "--c", "0.9", "--s", "1", "--p", "0.7", "--n", "300"],
        "5ede025d4f4698657600605b02edbdec3c7581f196fccc2df3058b0d82608fe4",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", _TABLE_SHA256, ids=["harmonic-s2", "harmonic-s3", "constant-20000", "power"]
)
def test_cli_algebra_table_bytes_are_pinned(argv, digest, capsys):
    assert main(["algebra", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_algebra_structural_failure_writes_header_only(monkeypatch, capsys):
    """A failing column-sum check on row 1 leaves the header, one error line
    and exit code 2."""
    monkeypatch.setattr(momentum_algebra, "_COLUMN_SUM_TOL", -1.0)
    assert main(["algebra", "--family", "harmonic", "--s", "2", "--n", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "k,theta,d,c,residual,t\n"
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: column sums")


@pytest.mark.parametrize("value", ["-3", str((1 << 25) + 1), "ten"])
def test_cli_algebra_refuses_bad_row_counts(value, capsys):
    """--n is checked when parsed: a negative count, one whose momentum and
    tail arrays would exceed the harness's 2^25-entry limit, or no integer."""
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--n", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --n: expected an integer from 0 to {1 << 25}, got {value!r}" in captured.err


def test_cli_algebra_row_limit_is_inclusive():
    args = build_parser().parse_args(["algebra", "--n", str(1 << 25)])
    assert args.n == 1 << 25


def test_cli_algebra_zero_rows_prints_the_header(capsys):
    assert main(["algebra", "--n", "0"]) == 0
    assert capsys.readouterr().out == "k,theta,d,c,residual,t\n"


def test_cli_algebra_writes_bounded_chunks(monkeypatch):
    """The table goes out in writes of at most 1024 rows (a 500-row table is
    one write after the header), and a 16384-row harmonic table sent to
    os.devnull peaks below 5 MiB of traced memory."""
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text.count("\n"))

    for n, counts in ((500, [1, 500]), (2500, [1, 1024, 1024, 452])):
        writes.clear()
        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["algebra", "--family", "harmonic", "--s", "2", "--n", str(n)]) == 0
        assert writes == counts
    monkeypatch.undo()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["algebra", "--family", "harmonic", "--s", "2", "--n", "16384"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5 * 2**20


def test_head_product_validation():
    with pytest.raises(ValueError):
        head_product([0.5], 0)
    with pytest.raises(ValueError):
        head_product([0.5, 0.5], 3)


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState(entries=np.eye(2), index=1, kind="middle")
    with pytest.raises(ValueError):
        ProductState(entries=np.eye(3), index=1, kind="head")
    with pytest.raises(ValueError):
        ProductState(entries=np.eye(2), index=0, kind="head")


def test_column_sums_are_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        thetas = rng.uniform(0.0, 0.95, n)
        sums = head_product(thetas, n).entries.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def _cauchy_gaps(thetas, n_max):
    """(gap, budget) pairs: Frobenius step gap vs twice the running product."""
    p = companion_matrix(thetas[0])
    prod = thetas[0]
    out = []
    for k in range(1, n_max):
        p_next = p @ companion_matrix(thetas[k])
        gap = float(np.linalg.norm(p_next - p, "fro"))
        out.append((gap, 2.0 * prod))
        p = p_next
        prod *= thetas[k]
    return out


def test_cauchy_bound_harmonic_n10():
    thetas = [1.0 / (k + 3) for k in range(1, 30)]
    gaps = _cauchy_gaps(thetas, 11)
    gap, budget = gaps[9]  # ||P_11 - P_10|| vs 2 prod_{j<=10} theta_j
    assert gap <= budget
    assert budget <= 2.0 * math.factorial(3) / math.factorial(13) * 1.0000001


@pytest.mark.parametrize(
    "thetas",
    [
        [0.25] * 201,
        [0.5] * 201,
        [0.9] * 201,
        [1.0 / (k + 3) for k in range(1, 202)],
    ],
    ids=["const-0.25", "const-0.5", "const-0.9", "harmonic"],
)
def test_cauchy_bound_through_n200(thetas):
    # the 1e-12 allowance absorbs float underflow of the product at large n
    for gap, budget in _cauchy_gaps(thetas, 201):
        assert gap <= budget + 1e-12


@pytest.mark.parametrize("d", [0.25, 0.5, 0.9])
def test_entries_bounded_by_geometric_sum(d):
    bound = 1.0 + d / (1.0 - d) + 1e-12
    p = companion_matrix(d)
    for _ in range(199):
        assert np.max(np.abs(p)) <= bound
        p = p @ companion_matrix(d)


@given(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=24))
def test_head_coefficient_gap_is_momentum_product(thetas):
    """d_n - c_n telescopes to minus the product of the momentum values."""
    state = head_product(thetas, len(thetas))
    d, c = head_coefficients(state)
    expected = -float(np.prod(thetas))
    assert abs((d - c) - expected) <= 1e-12


def test_head_coefficients_reject_foreign_matrix():
    bad = ProductState(entries=np.array([[0.5, 0.0], [0.0, 0.5]]), index=1, kind="head")
    with pytest.raises(StructuralError):
        head_coefficients(bad)


def test_fixed_point_matrix_shape():
    s = fixed_point_matrix(1.0)
    assert s.tolist() == [[-1.0, -1.0], [2.0, 2.0]]


def test_fixed_point_identity_random_pairs():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 10.0))
        theta = float(rng.uniform(0.0, 1.0 - 1e-9))
        moved = fixed_point_matrix(t) @ companion_matrix(theta)
        worst = max(worst, float(np.max(np.abs(moved - fixed_point_matrix(t)))))
    assert worst <= 1e-12


def test_fixed_point_residual_on_family_member():
    state = ProductState(entries=fixed_point_matrix(0.7), index=4, kind="head")
    assert fixed_point_residual(state, 0.3) == 0.0


def test_fixed_point_residual_hand_case():
    entries = np.array([[-0.3, -0.1], [1.3, 1.1]])
    state = ProductState(entries=entries, index=2, kind="head")
    assert abs(fixed_point_residual(state, 0.5) - 0.04) <= 1e-15


def test_residual_decays_like_squared_product():
    # |d_n - c_n| equals the momentum product, so the squared distance
    # to the fixed-point family is the squared product
    thetas = [0.5] * 20
    state = head_product(thetas, 20)
    residual = fixed_point_residual(state, 0.5)
    expected = 0.5 ** 40
    assert residual <= expected * (1.0 + 1e-6)
    assert residual >= expected * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# tail coefficients


def test_tail_constant_closed_form():
    for theta in (0.1, 0.5, 0.9):
        tc = tail_coefficients(constant_momentum(theta), 50)
        expected = theta / (1.0 - theta)
        assert np.max(np.abs(tc.values - expected)) <= 1e-12
        assert tc.horizon == 0


def test_tail_zero_momentum():
    tc = tail_coefficients(constant_momentum(0.0), 10)
    assert np.all(tc.values == 0.0)


def test_tail_constant_half_is_one():
    tc = tail_coefficients(constant_momentum(0.5), 5)
    assert tc.t(1) == 1.0
    assert tc.t(5) == 1.0


def _harmonic_t1_exact():
    # t_1 = sum_{j>=1} prod_{k<=j} 1/(k+3) = sum_{j>=1} 3!/(j+3)!
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, 40):
        term /= k + 3
        total += term
    return float(total)


def test_tail_harmonic_first_coefficient():
    """Exact factorial series for theta_k = 1/(k+3), cross-checked against
    the closed form 6(e - 8/3)."""
    series = _harmonic_t1_exact()
    assert abs(series - 6.0 * (math.e - 8.0 / 3.0)) <= 1e-14
    tc = tail_coefficients(harmonic_momentum(3.0), 100)
    assert abs(tc.t(1) - series) <= 1e-10


@pytest.mark.parametrize(
    "schedule",
    [
        constant_momentum(0.5),
        constant_momentum(0.9),
        harmonic_momentum(3.0),
        power_momentum(0.5, 2.0, 0.75),
    ],
    ids=["const-0.5", "const-0.9", "harmonic", "power"],
)
def test_tail_recursion_residual(schedule):
    n_max = 200
    tc = tail_coefficients(schedule, n_max + 1, tol=1e-12)
    thetas = schedule.values(n_max)
    residual = np.abs(tc.values[:n_max] - (1.0 + tc.values[1 : n_max + 1]) * thetas)
    assert float(residual.max()) < 1e-10


def test_tail_chain_identity():
    # Q_n = M_n Q_{n+1} links adjacent rank-one tails through one step
    schedule = harmonic_momentum(3.0)
    tc = tail_coefficients(schedule, 51, tol=1e-12)
    for n in range(1, 50):
        q_n = tail_product(tc, n).entries
        chained = companion_matrix(schedule.at(n)) @ tail_product(tc, n + 1).entries
        assert np.max(np.abs(q_n - chained)) <= 1e-11


def test_tail_monotone_for_nonincreasing_momentum():
    tc = tail_coefficients(harmonic_momentum(3.0), 300)
    assert np.all(np.diff(tc.values) <= 0.0)


@pytest.mark.parametrize(
    "schedule",
    [harmonic_momentum(2.0), power_momentum(0.9, 1.0, 0.7), constant_momentum(0.5)],
    ids=["harmonic", "power", "constant"],
)
def test_tail_coefficients_walk_pieces_from_the_top(schedule):
    """The backward recursion walks block() pieces of at most 2^14 values,
    top piece first: the values equal one backward pass over one long block
    bit for bit, and at 2^18 coefficients the traced peak stays within the
    array plus 1 MiB."""
    n_max = 2 * 2**14 + 5
    tc = tail_coefficients(schedule, n_max)
    thetas = schedule.block(1, n_max + tc.horizon)
    t_next = (schedule.theta / (1.0 - schedule.theta)) if schedule.is_constant else 0.0
    want = [0.0] * n_max
    for n in range(len(thetas), 0, -1):
        t_next = (1.0 + t_next) * thetas[n - 1]
        if n <= n_max:
            want[n - 1] = t_next
    assert tc.values.tobytes() == np.array(want).tobytes()
    tracemalloc.start()
    try:
        big = tail_coefficients(schedule, 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= big.values.nbytes + 2**20


def test_tail_index_bounds():
    tc = tail_coefficients(constant_momentum(0.5), 10)
    with pytest.raises(ValueError):
        tc.t(0)
    with pytest.raises(ValueError):
        tc.t(11)


class _SupremumOne:
    """Momentum stub whose values never decay; no finite tail sum exists."""

    bounds = (0.0, 1.0)
    is_constant = False

    def at(self, k):
        return 1.0


def test_tail_divergence_for_supremum_one():
    with pytest.raises(DivergenceError):
        tail_coefficients(_SupremumOne(), 5)


def test_tail_validation():
    with pytest.raises(ValueError):
        tail_coefficients(constant_momentum(0.5), 0)
    with pytest.raises(ValueError):
        tail_coefficients(constant_momentum(0.5), 5, tol=0.0)


def test_tail_product_matches_fixed_point_matrix():
    tc = tail_coefficients(constant_momentum(0.5), 5)
    state = tail_product(tc, 3)
    assert state.kind == "tail"
    assert state.index == 3
    assert np.array_equal(state.entries, fixed_point_matrix(1.0))
