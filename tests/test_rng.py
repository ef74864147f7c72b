"""Random streams: batched seed words against numpy's SeedSequence, and the
Box-Muller normals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagsa._rng import make_generator, normals, seed_words, word_doubles

EDGE_COMPONENTS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64 + 1)


def _reference_words(key) -> np.ndarray:
    return np.random.SeedSequence(list(key)).generate_state(4, np.uint64)


def _assert_streams_match(keys, words):
    """Words equal numpy's per key, and the doubles drawn from them are bit
    for bit what make_generator(*key).random() draws."""
    assert words.shape == (len(keys), 4)
    assert words.dtype == np.uint64
    for key, row in zip(keys, words):
        assert np.array_equal(row, _reference_words(key)), key
    doubles = word_doubles(words, 42)
    assert doubles.shape == (len(keys), 42)
    for key, row in zip(keys, doubles, strict=True):
        assert row.tobytes() == make_generator(*key).random(42).tobytes(), key


component = st.one_of(st.sampled_from(EDGE_COMPONENTS), st.integers(0, 2**70))


@settings(max_examples=150)
@given(st.lists(st.lists(component, max_size=7), max_size=6))
def test_seed_words_equal_seed_sequence(keys):
    _assert_streams_match(keys, seed_words(keys))


@given(st.integers(0, 2**63 - 1), st.integers(1, 40), st.integers(1, 2**25))
def test_seed_words_of_int64_key_arrays(seed, paths, step):
    """The array form the diagnostics pass gives the same words as the
    sequence form, row for row."""
    keys = np.array([(3, seed, p, step + p) for p in range(paths)], dtype=np.int64)
    words = seed_words(keys)
    assert np.array_equal(words, seed_words(keys.astype(np.uint64)))
    _assert_streams_match(keys.tolist(), words)


def test_seed_words_edge_components():
    keys = [(c,) for c in EDGE_COMPONENTS] + [(3, c, 7, 2**25) for c in EDGE_COMPONENTS]
    _assert_streams_match(keys, seed_words(keys))


def test_seed_words_mixed_key_lengths():
    """One batch whose keys differ in component count and in word count,
    including keys longer than the four-word pool and the empty key."""
    keys = [
        (),
        (0,),
        (3, 1, 2),
        (3, 1, 2, 5),
        (2**64 + 1, 2**32, 0),
        tuple(range(9)),
        (2**32 - 1,) * 6,
        (1,),
    ]
    _assert_streams_match(keys, seed_words(keys))


def test_seed_words_empty_batch():
    assert seed_words([]).shape == (0, 4)
    assert seed_words(np.empty((0, 4), dtype=np.int64)).shape == (0, 4)
    assert word_doubles(seed_words([]), 5).shape == (0, 5)


@pytest.mark.parametrize(
    "keys",
    [[(3, -1)], [(0,), (2, 5, -7)], np.array([[3, 1], [3, -2]])],
    ids=["list", "ragged", "array"],
)
def test_seed_words_refuse_negative_components(keys):
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(keys)


@pytest.mark.parametrize(
    "keys",
    [[(3, 1.0)], [(3,), (2.5,)], np.array([[3.0, 1.0]]), np.array([[True, False]])],
    ids=["list", "ragged", "float-array", "bool-array"],
)
def test_seed_words_refuse_non_integer_components(keys):
    with pytest.raises(TypeError, match="integers"):
        seed_words(keys)


def test_seed_words_refuse_non_2d_arrays():
    with pytest.raises(ValueError, match="2-D"):
        seed_words(np.arange(4))


@pytest.mark.parametrize("count", [0, 1, 7, 200])
def test_word_uniforms_equal_generator_uniforms(count):
    """numpy's uniform(lo, hi) formula lo + (hi - lo) u on the raw-word
    doubles gives its uniform draws bit for bit: uniform(-1, 1), where 2 u is
    exact, and a range whose width rounds. Keys have components 0, 2^32 and
    past 2^64."""
    keys = [(0,), (3, 0, 0, 0), (3, 2**32, 5, 2**32 - 1), (3, 2**64 + 7, 1, 2), (1, 2**70, 0)]
    u = word_doubles(seed_words(keys), count)
    assert u.shape == (len(keys), count)
    for lo, hi in ((-1.0, 1.0), (0.8, 0.95)):
        got = lo + (hi - lo) * u
        for row, key in zip(got, keys):
            want = make_generator(*key).uniform(lo, hi, count)
            assert row.tobytes() == want.tobytes(), (key, lo, hi)


def test_word_uniforms_need_four_words_per_row():
    for bad in (np.zeros((2, 3), dtype=np.uint64), np.zeros(4, dtype=np.uint64)):
        with pytest.raises(ValueError, match="four per row"):
            word_doubles(bad, 5)


# ---------------------------------------------------------------------------
# Box-Muller normals


def _box_muller(key, size):
    """The documented formula on the documented uniform draws."""
    half = (size + 1) // 2
    u = make_generator(*key).random((2, half))
    radius = [math.sqrt(-2.0 * math.log1p(-u1)) for u1 in u[0]]
    angle = [2.0 * math.pi * u2 for u2 in u[1]]
    cos = [r * math.cos(a) for r, a in zip(radius, angle)]
    sin = [r * math.sin(a) for r, a in zip(radius, angle)]
    return (cos + sin)[:size]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 8])
def test_normals_sizes_follow_box_muller(size):
    z = normals(make_generator(1, 4), size)
    assert z.shape == (size,)
    assert z.dtype == np.float64
    np.testing.assert_allclose(z, _box_muller((1, 4), size), rtol=1e-12, atol=1e-12)


def test_normals_odd_size_drops_the_last_sin_value():
    """An odd size draws as many pairs as the next even size and drops the
    trailing element: cos block first, then sin block."""
    odd = normals(make_generator(2, 9), 7)
    even = normals(make_generator(2, 9), 8)
    assert odd.tobytes() == even[:7].tobytes()
    gen = make_generator(2, 9)
    normals(gen, 7)
    after_odd = gen.random()
    gen = make_generator(2, 9)
    normals(gen, 8)
    assert after_odd == gen.random()


def test_normals_zero_draws_nothing():
    gen, fresh = make_generator(5), make_generator(5)
    assert normals(gen, 0).shape == (0,)
    assert gen.random() == fresh.random()


def test_normals_refuse_negative_size():
    with pytest.raises(ValueError, match="non-negative"):
        normals(make_generator(5), -1)
