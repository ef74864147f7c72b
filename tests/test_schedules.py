"""Schedule values against high-precision formula evaluation and the
summability classifier against long partial-sum prefixes."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nagsa.schedules import MomentumSchedule, StepSchedule, classify


def _power_value(c, s, p, k):
    with mpmath.workdps(40):
        return float(mpmath.mpf(c) / mpmath.power(mpmath.mpf(k) + mpmath.mpf(s), p))


def test_power_step_first_value_c_sixteenth():
    sched = StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 16, 3, mpmath.mpf(8) / 9, 1)
    assert abs(sched.at(1) - expected) <= 4 * math.ulp(expected)


def test_power_step_first_value_c_half():
    sched = StepSchedule("power", 0.5, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 2, 3, mpmath.mpf(8) / 9, 1)
    assert abs(sched.at(1) - expected) <= 4 * math.ulp(expected)


def test_power_step_late_value():
    sched = StepSchedule("power", 1.0 / 20.0, 3.0, 8.0 / 9.0)
    expected = _power_value(mpmath.mpf(1) / 20, 3, mpmath.mpf(8) / 9, 12345)
    assert abs(sched.at(12345) - expected) <= 4 * math.ulp(expected)


def test_constant_step():
    sched = StepSchedule("constant", 0.25)
    assert sched.at(1) == 0.25
    assert sched.at(10**6) == 0.25


def test_harmonic_momentum_values():
    sched = MomentumSchedule("harmonic", s=3.0)
    assert sched.at(1) == 0.25
    assert sched.at(97) == 0.01


def test_harmonic_momentum_refuses_an_offset_that_rounds_theta_1_to_one():
    """1/(1 + s) rounds to 1.0 for s <= 2^-53, so s > 0 alone does not keep
    theta_1 below 1."""
    with pytest.raises(ValueError, match="theta_1 = 1/\\(1 \\+ s\\) < 1, got s = 1e-17"):
        MomentumSchedule("harmonic", s=1e-17)
    assert MomentumSchedule("harmonic", s=1.2e-16).at(1) < 1.0


def test_momentum_power_family():
    sched = MomentumSchedule("power", c=0.5, s=2.0, p=0.75)
    expected = _power_value(0.5, 2, 0.75, 7)
    assert abs(sched.at(7) - expected) <= 4 * math.ulp(expected)


def test_at_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        StepSchedule("power", 0.1, 3.0, 0.5).at(0)
    with pytest.raises(ValueError):
        MomentumSchedule("harmonic", s=3.0).at(-2)


@pytest.mark.parametrize(
    "make, family",
    [
        (lambda family: StepSchedule(family, 0.1), "step"),
        (lambda family: MomentumSchedule(family, theta=0.5), "momentum"),
    ],
)
def test_unknown_family_is_quoted_short(make, family):
    """An unknown family of 5000 characters is quoted by its head and length."""
    with pytest.raises(ValueError) as info:
        make("f" * 5000)
    assert str(info.value) == f"unknown {family} family {'f' * 40!r}… (5000 chars)"
    with pytest.raises(ValueError, match=f"unknown {family} family 'linear'$"):
        make("linear")


_NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "kind, make, name",
    [
        ("step", lambda v: StepSchedule("constant", v), "c"),
        ("step", lambda v: StepSchedule("power", v, 1.0, 0.5), "c"),
        ("step", lambda v: StepSchedule("power", 0.1, v, 0.5), "s"),
        ("step", lambda v: StepSchedule("power", 0.1, 1.0, v), "p"),
        ("step", lambda v: StepSchedule("constant", 0.1, p=v), "p"),
        ("momentum", lambda v: MomentumSchedule("constant", theta=v), "theta"),
        ("momentum", lambda v: MomentumSchedule("harmonic", s=v), "s"),
        ("momentum", lambda v: MomentumSchedule("power", c=v, s=1.0, p=0.5), "c"),
        ("momentum", lambda v: MomentumSchedule("power", c=0.5, s=v, p=0.5), "s"),
        ("momentum", lambda v: MomentumSchedule("power", c=0.5, s=0.0, p=v), "p"),
        ("momentum", lambda v: MomentumSchedule("constant", theta=0.5, c=v), "c"),
    ],
    ids=[
        "step-constant-c", "step-power-c", "step-power-s", "step-power-p", "step-constant-p",
        "momentum-constant-theta", "momentum-harmonic-s", "momentum-power-c",
        "momentum-power-s", "momentum-power-p", "momentum-constant-c",
    ],
)
def test_non_finite_parameters_are_refused_by_name(kind, make, name, value):
    """inf and nan are refused whatever the family uses: 1.0 ** nan is 1.0,
    so power momentum with p = nan passed as theta_1 = c before."""
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == f"{kind} parameter {name} must be finite, got {value!r}"


def test_step_validation():
    with pytest.raises(ValueError):
        StepSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        StepSchedule("constant", 0.0)
    with pytest.raises(ValueError):
        StepSchedule("power", 0.1, -1.0, 0.5)
    with pytest.raises(ValueError):
        StepSchedule("power", 0.1, 3.0, -0.5)


def test_momentum_validation():
    with pytest.raises(ValueError):
        MomentumSchedule("constant", theta=1.0)
    with pytest.raises(ValueError):
        MomentumSchedule("constant", theta=-0.2)
    with pytest.raises(ValueError):
        MomentumSchedule("harmonic", s=0.0)
    # first value 2 / 2^0.5 = 1.41.. >= 1
    with pytest.raises(ValueError):
        MomentumSchedule("power", c=2.0, s=1.0, p=0.5)
    # each of these starts below 1, so only the sign check refuses it
    for c, s, p in ((-0.1, 1.0, 1.0), (0.5, -0.1, 1.0), (0.5, 1.0, -0.5)):
        with pytest.raises(ValueError, match="^power momentum parameters must be non-negative$"):
            MomentumSchedule("power", c=c, s=s, p=p)
    with pytest.raises(ValueError):
        MomentumSchedule("geometric")


def test_bounds():
    assert MomentumSchedule("constant", theta=0.3).bounds == (0.3, 0.3)
    assert MomentumSchedule("harmonic", s=3.0).bounds == (0.0, 0.25)
    # exponent zero makes the power family constant-valued
    flat = MomentumSchedule("power", c=0.5, s=2.0, p=0.0)
    assert flat.bounds == (0.5, 0.5)
    assert flat.is_constant


def test_values_matches_at():
    sched = MomentumSchedule("harmonic", s=3.0)
    vals = sched.values(50)
    assert vals.shape == (50,)
    assert all(vals[k - 1] == sched.at(k) for k in range(1, 51))


def test_values_are_filled_in_pieces():
    """values() takes block() a piece of at most 2^14 values at a time: the
    array equals one long block bit for bit across piece boundaries, and at
    2^18 values the traced peak stays within the array plus 1 MiB."""
    for sched in (
        MomentumSchedule("harmonic", s=2.0),
        MomentumSchedule("power", c=0.9, s=1.0, p=0.7),
        MomentumSchedule("constant", theta=0.5),
    ):
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
        (StepSchedule("constant", 0.25), lambda k: 0.25),
        (
            StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0),
            lambda k: (1.0 / 16.0) / (k + 3.0) ** (8.0 / 9.0),
        ),
        (MomentumSchedule("constant", theta=0.9), lambda k: 0.9),
        (MomentumSchedule("harmonic", s=2.0), lambda k: 1.0 / (k + 2.0)),
        (
            MomentumSchedule("power", c=0.9, s=1.0, p=8.0 / 9.0),
            lambda k: 0.9 / (k + 1.0) ** (8.0 / 9.0),
        ),
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


def test_power_values_past_the_float_range_are_zero():
    """(k + 3)^100 passes the float range from k = 1207 on, where Python's
    power raises OverflowError: those values are c / inf = 0.0, the values
    before keep their bits, and a block equals ``at`` across the point, as
    does a block that stops short of it."""
    sched = StepSchedule("power", 1.0, 3.0, 100.0)
    block = sched.block(1190, 40)
    assert [v.hex() for v in block] == [sched.at(k).hex() for k in range(1190, 1230)]
    assert block.index(0.0) == 1207 - 1190 and block[16] > 0.0
    assert set(block[17:]) == {0.0}
    assert sched.block(1190, 17) == block[:17]
    assert block[:17] == [1.0 / (k + 3.0) ** 100.0 for k in range(1190, 1207)]
    # a momentum whose first value already overflows is zero at every k
    mom = MomentumSchedule("power", c=0.5, s=1.0, p=2000.0)
    assert mom.at(1) == 0.0 and mom.bounds == (0.0, 0.0)
    assert mom.values(3).tolist() == [0.0, 0.0, 0.0]


def test_bounds_contain_log_spaced_prefix():
    schedules = [
        MomentumSchedule("constant", theta=0.9),
        MomentumSchedule("harmonic", s=3.0),
        MomentumSchedule("power", c=0.5, s=2.0, p=0.75),
    ]
    ks = np.unique(np.geomspace(1, 10**6, 400).astype(int))
    for sched in schedules:
        lo, hi = sched.bounds
        for k in ks:
            value = sched.at(int(k))
            assert lo <= value <= hi, (sched.family, k, value)


def test_momentum_nonincreasing_prefix():
    for sched in (
        MomentumSchedule("harmonic", s=3.0),
        MomentumSchedule("power", c=0.5, s=2.0, p=0.75),
    ):
        vals = sched.values(10**5)
        assert np.all(np.diff(vals) <= 0.0)
        assert sched.is_nonincreasing


def test_classify_examples():
    report = classify(StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0))
    assert report.diverges_sum and report.square_summable

    report = classify(StepSchedule("constant", 0.5))
    assert report.diverges_sum and not report.square_summable

    report = classify(StepSchedule("power", 1.0, 0.0, 2.0))
    assert not report.diverges_sum and report.square_summable


def test_classify_edge_exponents():
    # p = 1: harmonic sum diverges, squares converge
    report = classify(StepSchedule("power", 1.0, 0.0, 1.0))
    assert report.diverges_sum and report.square_summable
    # p = 0.5: sum diverges and 2p = 1 leaves the squares divergent too
    report = classify(StepSchedule("power", 1.0, 0.0, 0.5))
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
    summable = StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0)
    assert classify(summable).square_summable
    assert _squared_sum_final_decade_increment(summable) < 1e-6

    divergent = StepSchedule("constant", 0.5)
    assert not classify(divergent).square_summable
    assert _squared_sum_final_decade_increment(divergent) >= 1e-6


def test_diverging_sum_flag_matches_partial_sums():
    ks = np.arange(1, 10**6 + 1, dtype=float)
    growing = StepSchedule("power", 1.0 / 16.0, 3.0, 8.0 / 9.0)
    sums = np.cumsum(growing.c / (ks + growing.s) ** growing.p)
    assert classify(growing).diverges_sum
    assert sums[-1] / sums[10**5 - 1] > 1.05

    settled = StepSchedule("power", 1.0, 0.0, 2.0)
    sums = np.cumsum(settled.c / ks**2)
    assert not classify(settled).diverges_sum
    assert sums[-1] / sums[10**5 - 1] < 1.0001


@given(
    theta=st.floats(0.0, 0.999),
    k=st.integers(1, 10**9),
)
def test_constant_momentum_is_constant(theta, k):
    sched = MomentumSchedule("constant", theta=theta)
    assert sched.at(k) == theta
    assert sched.is_constant


@given(
    c=st.floats(1e-6, 10.0),
    s=st.floats(0.0, 10.0),
    p=st.floats(0.0, 3.0),
    k=st.integers(1, 10**6),
)
def test_power_step_positive_and_bounded_by_first(c, s, p, k):
    sched = StepSchedule("power", c, s, p)
    value = sched.at(k)
    assert value > 0.0
    assert value <= sched.at(1) * (1.0 + 1e-12)
