"""Exact and property-based checks for the two-term recursion algebra.

Expected values come from three independent sources: hand-multiplied 2x2
products, exact series for the tail coefficients (factorial sums via
fractions.Fraction), and closed forms for constant momentum.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nagsa import momentum_algebra
from nagsa._format import _fmt_distinct
from nagsa.cli import build_parser, main
from nagsa.errors import DivergenceError
from nagsa.momentum_algebra import (
    companion_matrix,
    fixed_point_matrix,
    head_blocks,
    tail_coefficients,
)
from nagsa.schedules import MomentumSchedule


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


def _rows(thetas):
    """Every (P_k, d_k, c_k) that head_blocks yields, one row at a time."""
    return [row for p, d, c in head_blocks(thetas) for row in zip(p, d.tolist(), c.tolist())]


def test_head_product_constant_half_n3():
    """P_3 for theta = 0.5, multiplied out by hand."""
    entries, d, c = _rows([0.5, 0.5, 0.5])[-1]
    expected = np.array([[-0.75, -0.875], [1.75, 1.875]])
    assert np.allclose(entries, expected, atol=1e-12)
    assert abs(d - 0.75) <= 1e-12
    assert abs(c - 0.875) <= 1e-12


def test_head_product_matches_direct_multiplication():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, 0.95, 12)
    direct = companion_matrix(thetas[0])
    for theta in thetas[1:]:
        direct = direct @ companion_matrix(theta)
    entries = _rows(thetas)[-1][0]
    assert np.max(np.abs(entries - direct)) <= 1e-12


def test_head_product_zero_momentum_is_idempotent():
    entries = _rows([0.0] * 6)[-1][0]
    assert np.allclose(entries, [[0.0, 0.0], [1.0, 1.0]], atol=0.0)


def test_head_products_fold_equals_each_head_product():
    """head_blocks rows are P_1 .. P_n, each equal to the last row of the
    fold of its own prefix, with d and c read off the top row and negative
    zero normalized."""
    thetas = MomentumSchedule("harmonic", s=2.0).values(40)
    rows = _rows(thetas)
    assert len(rows) == 40
    for n, (entries, d, c) in enumerate(rows, 1):
        assert np.array_equal(entries, _rows(thetas[:n])[-1][0])
        assert (d, c) == (-entries[0, 0] + 0.0, -entries[0, 1] + 0.0)
    assert list(head_blocks([])) == []
    entries, d, c = _rows([0.0])[0]
    assert np.signbit(entries[0, 1]) and not np.signbit(d) and not np.signbit(c)


# extremes beside the plain range: the smallest subnormal, the largest
# momentum below 1, and powers of two down to the smallest normal
_THETA = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.999),
    st.sampled_from(
        [5e-324, math.nextafter(1.0, 0.0), 0.5, 2.0**-10, 2.0**-53, 2.0**-1022]
    ),
)


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
        blocks = list(head_blocks(thetas))
        assert all(0 < len(p) <= block and not p.flags.writeable for p, _, _ in blocks)
        rows = _rows(thetas)
        direct = _direct_fold(thetas)
        assert len(rows) == len(direct)
        for n, ((entries, d, c), p) in enumerate(zip(rows, direct), 1):
            assert np.array_equal(entries.view(np.uint64), p.view(np.uint64))
            assert (d, c) == (-p[0, 0] + 0.0, -p[0, 1] + 0.0)
            nth = _rows(thetas[:n])[-1][0]
            assert np.array_equal(nth.view(np.uint64), p.view(np.uint64))
        # d_n = P_{n-1}[0,1] * 1 + P_{n-1}[0,0] * 0 is c_{n-1} bit for bit,
        # across block boundaries too: the table takes d's text from c's
        d = np.array([row[1] for row in rows])
        c = np.array([row[2] for row in rows])
        assert np.array_equal(d[1:].view(np.uint64), c[:-1].view(np.uint64))


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
            for p, _, _ in head_blocks(values):
                got.extend(p)
    assert len(got) == j - 1
    assert str(exc.value) == f"momentum must lie in [0, 1), got {bad}"


@pytest.mark.parametrize(
    "argv, schedule",
    [
        (["--family", "constant", "--theta", "0.9"], MomentumSchedule("constant", theta=0.9)),
        (["--family", "harmonic", "--s", "2"], MomentumSchedule("harmonic", s=2.0)),
        (
            ["--family", "power", "--c", "0.9", "--s", "1", "--p", "0.7"],
            MomentumSchedule("power", c=0.9, s=1.0, p=0.7),
        ),
    ],
    ids=["constant", "harmonic", "power"],
)
def test_cli_algebra_table_equals_per_row_head_products(argv, schedule, capsys):
    """The table folds the head products once; every row must equal the one
    built from its own product of companion matrices, byte for byte."""
    n = 60
    assert main(["algebra", *argv, "--n", str(n)]) == 0
    table = capsys.readouterr().out.splitlines()
    thetas = schedule.values(n)
    tails = tail_coefficients(schedule, n + 1)
    expected = ["k,theta,d,c,residual,t"]
    for k, p in enumerate(_direct_fold(thetas), 1):
        d, c = -p[0, 0] + 0.0, -p[0, 1] + 0.0
        d_c = d - c
        expected.append(
            f"{k},{thetas[k - 1]:.17g},{d:.17g},{c:.17g},{d_c * d_c:.17g},{tails.t(k):.17g}"
        )
    assert table == expected


# momentum schedules for the table's text: constant ones at -0.0 and next
# to 1 among them, harmonic ones whose tail horizon stays below 10^5
# indices, and power ones, which start below 1 as c < 1 <= (1 + s)^p
_SCHEDULES = st.one_of(
    st.builds(
        lambda theta: MomentumSchedule("constant", theta=theta),
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 0.9, 0.999, math.nextafter(1.0, 0.0)]),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
    ),
    st.builds(lambda s: MomentumSchedule("harmonic", s=s), st.floats(1e-3, 1e3)),
    st.builds(
        lambda c, s, p: MomentumSchedule("power", c=c, s=s, p=p),
        st.floats(0.0, 0.99),
        st.floats(0.0, 10.0),
        st.floats(0.0, 3.0),
    ),
)

# one and two rows, each side of the first and second 2^10-row block edge
_TABLE_ROWS = st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]), st.integers(0, 2100))


@given(_SCHEDULES, _TABLE_ROWS)
def test_cli_algebra_table_is_each_field_formatted_on_its_own(schedule, n):
    """The table takes d's text from the row before and formats each
    distinct c and residual once; every line must still be the five
    head_blocks and tail fields each formatted by %.17g, and d_k must be
    c_{k-1} bit for bit, across block edges too."""
    argv = ["algebra", "--family", schedule.family, "--n", str(n)]
    for name in ("theta", "c", "s", "p"):
        argv += [f"--{name}", repr(getattr(schedule, name))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    thetas = schedule.values(n)
    tails = tail_coefficients(schedule, n + 1).values
    blocks = list(head_blocks(thetas))
    d = np.concatenate([np.empty(0), *(d for _, d, _ in blocks)])
    c = np.concatenate([np.empty(0), *(c for _, _, c in blocks)])
    assert np.array_equal(d[1:].view(np.uint64), c[:-1].view(np.uint64))
    residual = (d - c) * (d - c)
    fields = zip(thetas.tolist(), d.tolist(), c.tolist(), residual.tolist(), tails.tolist())
    expected = ["k,theta,d,c,residual,t"] + [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (k, *row) for k, row in enumerate(fields, 1)
    ]
    assert out.getvalue() == "\n".join(expected) + "\n"


_NAN_BITS = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000]).view(np.float64)


@pytest.mark.parametrize(
    "column",
    [
        [],
        [0.25],
        [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
        [math.nan, math.nan, 1.0, math.nan, *_NAN_BITS, *_NAN_BITS],
        [math.inf, math.inf, -math.inf, -math.inf, math.inf, 1.0, -math.inf],
        [0.1 * k for k in range(50)],
        [5e-324, -5e-324, 1.7976931348623157e308, 2.0**-1022, 1 / 3, 2 / 3, 1 / 3],
    ],
    ids=["empty", "one", "signed-zeros", "nans", "infinities", "no-repeats", "extremes"],
)
def test_fmt_distinct_is_each_entry_formatted(column):
    """Formatting each distinct value once gives each entry's own %.17g:
    -0.0 and 0.0 keep their texts, so do NaNs of every bit pattern."""
    values = np.array(column, dtype=float)
    assert _fmt_distinct(values) == ["%.17g" % x for x in values.tolist()]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "power", "--c", "0.5", "--s", "0", "--p", "nan"], "p must be finite, got nan"),
        (["--family", "harmonic", "--s", "inf"], "s must be finite, got inf"),
        (["--family", "power", "--c=-inf", "--p", "1"], "c must be finite, got -inf"),
        (["--family", "constant", "--theta", "nan"], "theta must be finite, got nan"),
    ],
    ids=["power-p-nan", "harmonic-s-inf", "power-c-minus-inf", "constant-theta-nan"],
)
def test_cli_algebra_refuses_non_finite_parameters(argv, message, capsys):
    """1.0 ** nan is 1.0, so power momentum with p = nan started at
    theta_1 = c and printed its first row before theta_2 = nan stopped the
    table; harmonic s = inf printed zeros. Both exit 2 before any row."""
    assert main(["algebra", *argv, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: momentum parameter {message}\n"


# sha256 of the table's stdout as the per-row fold (one companion_matrix and
# one print per row) wrote it; the block fold must keep every byte. The
# constant table was re-pinned when the residual became the correctly rounded
# square: rows 139 and 145 each lost one unit in the last place
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
        "97447c6c8bfc719340319d038c92622859eb4328ea5b6aa5d99d22c99bcb773d",
    ),
    (
        ["--family", "power", "--c", "0.9", "--s", "1", "--p", "0.7", "--n", "300"],
        "5ede025d4f4698657600605b02edbdec3c7581f196fccc2df3058b0d82608fe4",
    ),
]


_TABLE_IDS = ["harmonic-s2", "harmonic-s3", "constant-20000", "power"]


@pytest.mark.parametrize("argv, digest", _TABLE_SHA256, ids=_TABLE_IDS)
def test_cli_algebra_table_bytes_are_pinned(argv, digest, capsys):
    assert main(["algebra", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in _TABLE_SHA256], ids=_TABLE_IDS)
def test_cli_algebra_residual_is_the_correctly_rounded_square(argv, capsys):
    """Every residual of the pinned tables is (d - c)^2 rounded once from the
    exact square of the float d - c, ties to even (float(Fraction) rounds
    that way); d and c read back exactly from their 17 digits."""
    assert main(["algebra", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows
    for row in rows:
        _, _, d, c, residual, _ = row.split(",")
        d_c = float(d) - float(c)
        assert float(residual) == float(Fraction(d_c) ** 2), row


_TABLE_DIGESTS = """
import contextlib, hashlib, io, json, sys
from nagsa.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["algebra", *argv]) == 0
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_cli_algebra_table_does_not_depend_on_blas_threads():
    """The pinned tables come out the same at one and at two BLAS threads:
    the fold's np.dot and the reference's matmul reach the same dgemm either
    way. OpenBLAS fixes its thread count when it loads, so each count gets a
    fresh interpreter."""
    src = str(Path(momentum_algebra.__file__).resolve().parents[1])
    argvs = json.dumps([argv for argv, _ in _TABLE_SHA256])
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _TABLE_DIGESTS, argvs],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [digest for _, digest in _TABLE_SHA256]


def test_cli_algebra_table_near_one_completes(capsys):
    """At theta = 0.999 the column sums of the products round away from
    (1, 1) by more than any fixed tolerance long before row 5000; the table
    still prints every row, and its d and c are the per-factor fold's."""
    assert main(["algebra", "--family", "constant", "--theta", "0.999", "--n", "5000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5001
    direct = _direct_fold([0.999] * 5000)
    for line, p in zip(lines[1:], direct):
        _, _, d, c, _, _ = line.split(",")
        assert float(d).hex() == (-p[0, 0] + 0.0).hex()
        assert float(c).hex() == (-p[0, 1] + 0.0).hex()


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


def test_cli_algebra_calls_share_one_parser_and_nothing_leaks(capsys):
    """main reuses the process's one parser: a --theta given to one call is
    not the default of the next, and a refused --n leaves the parser as it
    was, so a pinned table that follows keeps its bytes."""
    assert build_parser() is build_parser()
    assert main(["algebra", "--family", "constant", "--theta", "0.5", "--n", "3"]) == 0
    assert [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]] == ["0.5"] * 3
    assert main(["algebra", "--family", "constant", "--n", "3"]) == 0
    assert [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]] == ["0"] * 3
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--n", "-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv, digest = _TABLE_SHA256[0]
    assert main(["algebra", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_algebra_power_family_past_the_float_range(capsys):
    # 0.5 / 2^2000 passes the float range: every theta and tail is 0
    assert main(["algebra", "--family", "power", "--c", "0.5", "--s", "1", "--p", "2000", "--n", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["1,0,0,0,0,0", "2,0,0,0,0,0", "3,0,0,0,0,0"]


def test_tail_horizon_past_the_limit_is_refused_at_once(capsys):
    """Harmonic momentum with s = 1e-7 would walk a horizon of about 4.4e8
    indices; it is refused before the first step, by tail_coefficients and
    by the CLI (exit 2)."""
    started = time.perf_counter()
    with pytest.raises(DivergenceError, match="more than the limit of 33554432"):
        tail_coefficients(MomentumSchedule("harmonic", s=1e-7), 3)
    assert main(["algebra", "--family", "harmonic", "--s", "1e-7", "--n", "3"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tail coefficients for momentum sup")
    assert momentum_algebra._MAX_HORIZON == 1 << 25


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


def test_column_sums_are_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        thetas = rng.uniform(0.0, 0.95, n)
        sums = _rows(thetas)[-1][0].sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def _cauchy_gaps(thetas, n_max):
    """(gap, budget) pairs: the Frobenius gap ||P_{k+1} - P_k|| between the
    head_blocks rows vs twice the running product theta_1 ... theta_k."""
    p = np.concatenate([p for p, _, _ in head_blocks(thetas[:n_max])])
    gaps = np.linalg.norm(p[1:] - p[:-1], axis=(1, 2))
    budgets = 2.0 * np.cumprod(thetas[: n_max - 1])
    return list(zip(gaps.tolist(), budgets.tolist()))


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
    for p, _, _ in head_blocks([d] * 199):
        assert np.max(np.abs(p)) <= bound


@given(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=24))
def test_head_coefficient_gap_is_momentum_product(thetas):
    """d_n - c_n telescopes to minus the product of the momentum values."""
    gaps = [d - c for _, d, c in _rows(thetas)]
    expected = -np.cumprod(thetas)
    assert np.max(np.abs(np.array(gaps) - expected)) <= 1e-12


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


def _projection_distance(entries, d, c, theta):
    """Squared Frobenius distance from P to its projection fixed_point_matrix
    ((d + c) / 2) on the fixed-point family, after checking that the
    projection is fixed under one more step with theta."""
    projection = fixed_point_matrix((d + c) / 2.0)
    moved = projection @ companion_matrix(theta)
    assert np.all(np.abs(moved - projection) <= 1e-12)
    return float(np.sum((entries - projection) ** 2))


def test_fixed_point_residual_on_family_member():
    """A zero momentum value makes both columns of the next product equal,
    so P_3 is a member of the family and its residual (d - c)^2 is 0."""
    entries, d, c = _rows([0.3, 0.7, 0.0])[-1]
    assert (d - c) ** 2 == 0.0
    assert np.array_equal(entries[:, 0], entries[:, 1])
    assert _projection_distance(entries, d, c, 0.3) == 0.0


def test_fixed_point_residual_hand_case():
    # P_2 = M(0.5) M(0.4) = [[-0.5, -0.7], [1.5, 1.7]]: d = 0.5, c = 0.7
    entries, d, c = _rows([0.5, 0.4])[-1]
    assert np.allclose(entries, [[-0.5, -0.7], [1.5, 1.7]], atol=1e-15)
    assert abs((d - c) ** 2 - 0.04) <= 1e-15
    assert abs(_projection_distance(entries, d, c, 0.5) - 0.04) <= 1e-15


def test_residual_decays_like_squared_product():
    # |d_n - c_n| equals the momentum product, so the squared distance
    # to the fixed-point family is the squared product
    _, d, c = _rows([0.5] * 20)[-1]
    residual = (d - c) ** 2
    expected = 0.5 ** 40
    assert residual <= expected * (1.0 + 1e-6)
    assert residual >= expected * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# tail coefficients


def test_tail_constant_closed_form():
    for theta in (0.1, 0.5, 0.9):
        tc = tail_coefficients(MomentumSchedule("constant", theta=theta), 50)
        expected = theta / (1.0 - theta)
        assert np.max(np.abs(tc.values - expected)) <= 1e-12
        assert tc.horizon == 0


def test_tail_zero_momentum():
    tc = tail_coefficients(MomentumSchedule("constant", theta=0.0), 10)
    assert np.all(tc.values == 0.0)


def test_tail_constant_half_is_one():
    tc = tail_coefficients(MomentumSchedule("constant", theta=0.5), 5)
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
    tc = tail_coefficients(MomentumSchedule("harmonic", s=3.0), 100)
    assert abs(tc.t(1) - series) <= 1e-10


@pytest.mark.parametrize(
    "schedule",
    [
        MomentumSchedule("constant", theta=0.5),
        MomentumSchedule("constant", theta=0.9),
        MomentumSchedule("harmonic", s=3.0),
        MomentumSchedule("power", c=0.5, s=2.0, p=0.75),
    ],
    ids=["const-0.5", "const-0.9", "harmonic", "power"],
)
def test_tail_recursion_residual(schedule):
    n_max = 200
    tc = tail_coefficients(schedule, n_max + 1)
    thetas = schedule.values(n_max)
    residual = np.abs(tc.values[:n_max] - (1.0 + tc.values[1 : n_max + 1]) * thetas)
    assert float(residual.max()) < 1e-10


def test_tail_chain_identity():
    # Q_n = M_n Q_{n+1} links adjacent rank-one tails through one step
    schedule = MomentumSchedule("harmonic", s=3.0)
    tc = tail_coefficients(schedule, 51)
    for n in range(1, 50):
        q_n = fixed_point_matrix(tc.t(n))
        chained = companion_matrix(schedule.at(n)) @ fixed_point_matrix(tc.t(n + 1))
        assert np.max(np.abs(q_n - chained)) <= 1e-11


def test_tail_monotone_for_nonincreasing_momentum():
    tc = tail_coefficients(MomentumSchedule("harmonic", s=3.0), 300)
    assert np.all(np.diff(tc.values) <= 0.0)


@pytest.mark.parametrize(
    "schedule",
    [
        MomentumSchedule("harmonic", s=2.0),
        MomentumSchedule("power", c=0.9, s=1.0, p=0.7),
        MomentumSchedule("constant", theta=0.5),
    ],
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
    tc = tail_coefficients(MomentumSchedule("constant", theta=0.5), 10)
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
        tail_coefficients(MomentumSchedule("constant", theta=0.5), 0)


def test_tail_product_matches_fixed_point_matrix():
    """The tail product Q_n = M_n M_{n+1} ... is the limit of head products
    started at n, so 60 factors from n reach fixed_point_matrix(t_n)."""
    for schedule, atol in (
        (MomentumSchedule("constant", theta=0.5), 1e-15),
        (MomentumSchedule("harmonic", s=3.0), 1e-12),
    ):
        tc = tail_coefficients(schedule, 5)
        thetas = schedule.values(70)
        for n in range(1, 6):
            q_n = _rows(thetas[n - 1 : n + 59])[-1][0]
            assert np.max(np.abs(q_n - fixed_point_matrix(tc.t(n)))) <= atol
