"""Schedule values against high-precision formula evaluation and the
summability classifier against long partial-sum prefixes."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nagsa.schedules import (
    MomentumSchedule,
    StepSchedule,
    classify,
    constant_momentum,
    constant_step,
    harmonic_momentum,
    power_momentum,
    power_step,
)


def _power_value(c, s, p, k):
    with mpmath.workdps(40):
        return float(mpmath.mpf(c) / mpmath.power(mpmath.mpf(k) + mpmath.mpf(s), p))


def test_power_step_first_value_c_sixteenth():
    sched = power_step(1.0 / 16.0, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 16, 3, mpmath.mpf(8) / 9, 1)
    assert abs(sched.at(1) - expected) <= 4 * math.ulp(expected)


def test_power_step_first_value_c_half():
    sched = power_step(0.5, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 2, 3, mpmath.mpf(8) / 9, 1)
    assert abs(sched.at(1) - expected) <= 4 * math.ulp(expected)


def test_power_step_late_value():
    sched = power_step(1.0 / 20.0, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 20, 3, mpmath.mpf(8) / 9, 12345)
    assert abs(sched.at(12345) - expected) <= 4 * math.ulp(expected)


def test_constant_step():
    sched = constant_step(0.25)
    assert sched.at(1) == 0.25
    assert sched.at(10**6) == 0.25


def test_harmonic_momentum_values():
    sched = harmonic_momentum(3.0)
    assert sched.at(1) == 0.25
    assert sched.at(97) == 0.01


def test_momentum_power_family():
    sched = power_momentum(0.5, 2.0, 0.75)
    expected = _power_value(0.5, 2, 0.75, 7)
    assert abs(sched.at(7) - expected) <= 4 * math.ulp(expected)


def test_at_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        power_step(0.1, 3.0, 0.5).at(0)
    with pytest.raises(ValueError):
        harmonic_momentum(3.0).at(-2)


def test_step_validation():
    with pytest.raises(ValueError):
        StepSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        constant_step(0.0)
    with pytest.raises(ValueError):
        power_step(0.1, -1.0, 0.5)
    with pytest.raises(ValueError):
        power_step(0.1, 3.0, -0.5)


def test_momentum_validation():
    with pytest.raises(ValueError):
        constant_momentum(1.0)
    with pytest.raises(ValueError):
        constant_momentum(-0.2)
    with pytest.raises(ValueError):
        harmonic_momentum(0.0)
    # first value 2 / 2^0.5 = 1.41.. >= 1
    with pytest.raises(ValueError):
        power_momentum(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        MomentumSchedule("geometric")


def test_bounds():
    assert constant_momentum(0.3).bounds == (0.3, 0.3)
    assert harmonic_momentum(3.0).bounds == (0.0, 0.25)
    # exponent zero makes the power family constant-valued
    flat = power_momentum(0.5, 2.0, 0.0)
    assert flat.bounds == (0.5, 0.5)
    assert flat.is_constant


def test_values_matches_at():
    sched = harmonic_momentum(3.0)
    vals = sched.values(50)
    assert vals.shape == (50,)
    assert all(vals[k - 1] == sched.at(k) for k in range(1, 51))


def test_values_are_filled_in_pieces():
    """values() takes block() a piece of at most 2^14 values at a time: the
    array equals one long block bit for bit across piece boundaries, and at
    2^18 values the traced peak stays within the array plus 1 MiB."""
    for sched in (harmonic_momentum(2.0), power_momentum(0.9, 1.0, 0.7), constant_momentum(0.5)):
        n = 2 * 2**14 + 3
        assert sched.values(n).tobytes() == np.array(sched.block(1, n)).tobytes()
        assert sched.values(0).shape == (0,)
        tracemalloc.start()
        try:
            vals = sched.values(2**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (2**18,)
        assert peak <= vals.nbytes + 2**20, (sched, peak)


@pytest.mark.parametrize(
    "sched, formula",
    [
        (constant_step(0.25), lambda k: 0.25),
        (
            power_step(1.0 / 16.0, 3.0, 8.0 / 9.0),
            lambda k: (1.0 / 16.0) / (k + 3.0) ** (8.0 / 9.0),
        ),
        (constant_momentum(0.9), lambda k: 0.9),
        (harmonic_momentum(2.0), lambda k: 1.0 / (k + 2.0)),
        (power_momentum(0.9, 1.0, 8.0 / 9.0), lambda k: 0.9 / (k + 1.0) ** (8.0 / 9.0)),
    ],
    ids=["constant-step", "power-step", "constant-mom", "harmonic-mom", "power-mom"],
)
def test_block_equals_scalar_formula(sched, formula):
    """A block of values is the scalar formula per index, bit for bit, at
    any start; an np.power over an index array would not be."""
    for start, count in ((1, 20000), (16383, 5), (16386, 1), (199_990, 20)):
        block = sched.block(start, count)
        assert len(block) == count
        for k, value in zip(range(start, start + count), block):
            assert value == formula(k) == sched.at(k), k
    assert sched.block(5, 0) == []
    with pytest.raises(ValueError):
        sched.block(0, 3)


def test_bounds_contain_log_spaced_prefix():
    schedules = [
        constant_momentum(0.9),
        harmonic_momentum(3.0),
        power_momentum(0.5, 2.0, 0.75),
    ]
    ks = np.unique(np.geomspace(1, 10**6, 400).astype(int))
    for sched in schedules:
        lo, hi = sched.bounds
        for k in ks:
            value = sched.at(int(k))
            assert lo <= value <= hi, (sched.family, k, value)


def test_momentum_nonincreasing_prefix():
    for sched in (harmonic_momentum(3.0), power_momentum(0.5, 2.0, 0.75)):
        vals = sched.values(10**5)
        assert np.all(np.diff(vals) <= 0.0)
        assert sched.is_nonincreasing


def test_classify_examples():
    report = classify(power_step(1.0 / 16.0, 3.0, 8.0 / 9.0))
    assert report.diverges_sum and report.square_summable
    assert report.reason

    report = classify(constant_step(0.5))
    assert report.diverges_sum and not report.square_summable

    report = classify(power_step(1.0, 0.0, 2.0))
    assert not report.diverges_sum and report.square_summable


def test_classify_edge_exponents():
    # p = 1: harmonic sum diverges, squares converge
    report = classify(power_step(1.0, 0.0, 1.0))
    assert report.diverges_sum and report.square_summable
    # p = 0.5: sum diverges and 2p = 1 leaves the squares divergent too
    report = classify(power_step(1.0, 0.0, 0.5))
    assert report.diverges_sum and not report.square_summable


def _squared_sum_final_decade_increment(sched):
    ks = np.arange(1, 10**6 + 1, dtype=float)
    if sched.family == "constant":
        alpha = np.full_like(ks, sched.c)
    else:
        alpha = sched.c / (ks + sched.s) ** sched.p
    sums = np.cumsum(alpha * alpha)
    tail = slice(10**5, None)
    return float(np.max(alpha[tail] ** 2 / sums[tail]))


def test_square_summable_flag_matches_partial_sums():
    """The classifier flag agrees with the numeric behaviour of a million-term
    prefix: summable squares plateau (relative increments below 1e-6 in the
    final decade), divergent ones keep adding at least harmonically."""
    summable = power_step(1.0 / 16.0, 3.0, 8.0 / 9.0)
    assert classify(summable).square_summable
    assert _squared_sum_final_decade_increment(summable) < 1e-6

    divergent = constant_step(0.5)
    assert not classify(divergent).square_summable
    assert _squared_sum_final_decade_increment(divergent) >= 1e-6


def test_diverging_sum_flag_matches_partial_sums():
    ks = np.arange(1, 10**6 + 1, dtype=float)
    growing = power_step(1.0 / 16.0, 3.0, 8.0 / 9.0)
    sums = np.cumsum(growing.c / (ks + growing.s) ** growing.p)
    assert classify(growing).diverges_sum
    assert sums[-1] / sums[10**5 - 1] > 1.05

    settled = power_step(1.0, 0.0, 2.0)
    sums = np.cumsum(settled.c / ks**2)
    assert not classify(settled).diverges_sum
    assert sums[-1] / sums[10**5 - 1] < 1.0001


def test_module_level_helpers():
    assert constant_step(0.25) == StepSchedule("constant", 0.25)
    assert power_step(0.1, 3.0, 0.5) == StepSchedule("power", 0.1, 3.0, 0.5)
    assert constant_momentum(0.5) == MomentumSchedule("constant", theta=0.5)
    assert harmonic_momentum(3.0) == MomentumSchedule("harmonic", s=3.0)
    assert power_momentum(0.9, 2.0, 0.3) == MomentumSchedule("power", c=0.9, s=2.0, p=0.3)


@given(
    theta=st.floats(0.0, 0.999),
    k=st.integers(1, 10**9),
)
def test_constant_momentum_is_constant(theta, k):
    sched = constant_momentum(theta)
    assert sched.at(k) == theta
    assert sched.is_constant


@given(
    c=st.floats(1e-6, 10.0),
    s=st.floats(0.0, 10.0),
    p=st.floats(0.0, 3.0),
    k=st.integers(1, 10**6),
)
def test_power_step_positive_and_bounded_by_first(c, s, p, k):
    sched = power_step(c, s, p)
    value = sched.at(k)
    assert value > 0.0
    assert value <= sched.at(1) * (1.0 + 1e-12)
