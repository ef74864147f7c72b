"""Random streams: batched seed words against numpy's SeedSequence, and the
Box-Muller normals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagsa._rng import make_generator, normals, seed_words, word_doubles
from nagsa._word_seed import WordSeed

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


def _key_array(keys, width: int) -> np.ndarray:
    """The keys, each `width` components, as a 2-D object array of Python ints."""
    table = np.empty((len(keys), width), dtype=object)
    for row, key in enumerate(keys):
        table[row, :] = list(key)
    return table


component = st.one_of(st.sampled_from(EDGE_COMPONENTS), st.integers(0, 2**70))


@settings(max_examples=150)
@given(
    st.integers(0, 7).flatmap(
        lambda width: st.lists(st.lists(component, min_size=width, max_size=width), max_size=6)
        .map(lambda keys: _key_array(keys, width))
    )
)
def test_seed_words_equal_seed_sequence(keys):
    _assert_streams_match(keys.tolist(), seed_words(keys))


@given(st.integers(0, 2**63 - 1), st.integers(1, 40), st.integers(1, 2**25))
def test_seed_words_of_int64_key_arrays(seed, paths, step):
    """An int64 key array gives the same words as its uint64 and object
    forms, row for row."""
    keys = np.array([(3, seed, p, step + p) for p in range(paths)], dtype=np.int64)
    words = seed_words(keys)
    assert np.array_equal(words, seed_words(keys.astype(np.uint64)))
    assert np.array_equal(words, seed_words(keys.astype(object)))
    _assert_streams_match(keys.tolist(), words)


def test_seed_words_edge_components():
    for keys in ([(c,) for c in EDGE_COMPONENTS], [(3, c, 7, 2**25) for c in EDGE_COMPONENTS]):
        _assert_streams_match(keys, seed_words(_key_array(keys, len(keys[0]))))


def test_seed_words_rows_of_differing_word_counts():
    """One batch whose rows have equal component counts but differ in word
    count (0 is one word, 2^32 two, 2^64 + 1 three), including rows longer
    than the four-word pool: an int64 array and object arrays."""
    small = np.array([[0, 0, 0], [2**32, 0, 1], [3, 2**32, 2**32], [2**63 - 1, 5, 0]])
    assert small.dtype == np.int64
    _assert_streams_match(small.tolist(), seed_words(small))
    keys = [
        (0, 0, 0),
        (2**64 + 1, 2**32, 0),
        (2**64 + 1, 2**64 + 1, 2**64 + 1),
        (3, 1, 2),
        (2**32 - 1, 2**32, 2**64 - 1),
    ]
    _assert_streams_match(keys, seed_words(_key_array(keys, 3)))
    wide = [tuple(range(9)), (2**32,) * 9, (0,) * 9]
    _assert_streams_match(wide, seed_words(np.array(wide, dtype=np.int64)))


def test_seed_words_empty_batch():
    assert seed_words(np.empty((0, 4), dtype=np.int64)).shape == (0, 4)
    assert seed_words(np.empty((0, 2), dtype=object)).shape == (0, 4)
    assert word_doubles(seed_words(np.empty((0, 3), dtype=np.int64)), 5).shape == (0, 5)


@pytest.mark.parametrize(
    "keys",
    [np.array([[3, 1], [3, -2]]), _key_array([(0, 2**64), (2, -7)], 2)],
    ids=["array", "object-array"],
)
def test_seed_words_refuse_negative_components(keys):
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(keys)


@pytest.mark.parametrize(
    "keys",
    [np.array([[3.0, 1.0]]), np.array([[True, False]]), _key_array([(3, 2.5)], 2)],
    ids=["float-array", "bool-array", "object-array"],
)
def test_seed_words_refuse_non_integer_components(keys):
    with pytest.raises(TypeError, match="integers"):
        seed_words(keys)


def test_seed_words_refuse_non_2d_arrays():
    with pytest.raises(ValueError, match="2-D"):
        seed_words(np.arange(4))
    with pytest.raises(ValueError, match="2-D"):
        seed_words([(0,), (3, 1, 2)])  # a sequence of keys, ragged or not


@pytest.mark.parametrize("count", [0, 1, 7, 200])
def test_word_uniforms_equal_generator_uniforms(count):
    """numpy's uniform(lo, hi) formula lo + (hi - lo) u on the raw-word
    doubles gives its uniform draws bit for bit: uniform(-1, 1), where 2 u is
    exact, and a range whose width rounds. Keys have components 0, 2^32 and
    past 2^64."""
    keys = [
        (0, 0, 0, 0),
        (3, 0, 0, 0),
        (3, 2**32, 5, 2**32 - 1),
        (3, 2**64 + 7, 1, 2),
        (1, 2**70, 0, 9),
    ]
    u = word_doubles(seed_words(_key_array(keys, 4)), count)
    assert u.shape == (len(keys), count)
    for lo, hi in ((-1.0, 1.0), (0.8, 0.95)):
        got = lo + (hi - lo) * u
        for row, key in zip(got, keys):
            want = make_generator(*key).uniform(lo, hi, count)
            assert row.tobytes() == want.tobytes(), (key, lo, hi)


@pytest.mark.parametrize("count", [0, 1, 5])
@pytest.mark.parametrize("reverse", [False, True])
def test_word_doubles_rows_equal_generator_random(count, reverse):
    """Each row filled in place is make_generator(*key).random(count) bit for
    bit, for zero rows, for count 0 and 1, for keys past 2^64 and for a
    reversed (non-contiguous) words array."""
    keys = [(3, 2**64 + 7, 1, 2), (1, 2**70, 0, 9), (0, 0, 0, 0)]
    words = seed_words(_key_array(keys, 4))
    if reverse:
        words, keys = words[::-1], keys[::-1]
        assert not words.flags.c_contiguous
    u = word_doubles(words, count)
    assert u.shape == (len(keys), count) and u.dtype == np.float64
    for row, key in zip(u, keys, strict=True):
        assert row.tobytes() == make_generator(*key).random(count).tobytes(), key
    assert word_doubles(words[:0], count).shape == (0, count)


def test_word_doubles_fill_a_given_array():
    """With out=, the rows are filled there, bit for bit the allocated ones;
    an array of the wrong shape, type or layout is refused."""
    words = seed_words(_key_array([(3, 1, 4), (1, 5, 9)], 3))
    out = np.full((2, 7), np.nan)
    assert word_doubles(words, 7, out=out) is out
    assert out.tobytes() == word_doubles(words, 7).tobytes()
    for bad in (np.empty((2, 6)), np.empty((2, 7), dtype=np.float32), np.empty((7, 2)).T):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            word_doubles(words, 7, out=bad)


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


def test_word_seed_gives_only_four_uint64_words():
    seed = WordSeed(np.arange(4, dtype=np.uint64))
    assert seed.generate_state(4, np.uint64) is seed.words
    for n_words, dtype in ((8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="^seed words are four uint64 values$"):
            seed.generate_state(n_words, dtype)
