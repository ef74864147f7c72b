"""Deterministic random streams.

Every stochastic component draws from numpy's PCG64 bit generator (a permuted
congruential generator), keyed through SeedSequence so derived streams (per
instance, per run, per path, per branch) are reproducible and independent of
scheduling order. Normal deviates are produced by an explicit Box-Muller
transform over uniform draws instead of numpy's ziggurat sampler, so the
mapping from bit stream to deviates is pinned by a documented formula.

One-off streams (instance, run) are seeded by make_generator through numpy's
own SeedSequence. Streams that come by the thousand (one per synthetic path,
one per branch probe) get their seed words from seed_words, which applies the
same SeedSequence hash to a whole array of keys at once, and draw from them
only through word_doubles: numpy's Generator.random() on a PCG64 stream is
u = (x >> 11) 2^-53 for each raw 64-bit word x, so one array pass turns every
row's raw words into the doubles make_generator(*key).random(count) gives.
Callers form numpy's other uniforms from them with its own formula
lo + (hi - lo) u; for uniform(-1, 1), 2 u is exact (a power of two times a
53-bit integer), so -1 + 2 u has the one rounding numpy makes too.

The identifier below is recorded in all output metadata.
"""

from __future__ import annotations

import numpy as np

RNG_ID = "pcg64/box-muller"

# Stream tags keep derived SeedSequence keys from colliding across purposes.
STREAM_INSTANCE = 0
STREAM_RUN = 1
STREAM_PATH = 2
STREAM_BRANCH = 3

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, two multiplier chains and a final output hash
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def make_generator(*key: int) -> np.random.Generator:
    """Generator seeded by a tuple of non-negative integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def word_doubles(words: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) array whose row r is what
    make_generator(*key).random(count) draws for the key whose seed words are
    words[r] (one row of seed_words(keys)).

    Each row takes `count` raw words x from PCG64 seeded by its words; one
    array pass then maps them to (x >> 11) 2^-53, numpy's random(). The
    53-bit integer x >> 11 converts exactly and 2^-53 scales it exactly, so
    no step rounds.
    """
    # numpy.random costs about 7 ms to import, which a run that draws nothing
    # (the algebra table) should not pay, so the seed source waits for it
    from ._word_seed import WordSeed

    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] != 4:
        raise ValueError("seed words come four per row")
    # each row's words collected, then joined once: at most two arrays of
    # the draw's size are held, as with the shift and the conversion below
    draws = [np.random.PCG64(WordSeed(row)).random_raw(count) for row in words]
    raw = np.array(draws, dtype=np.uint64).reshape(len(words), count)
    del draws
    u = np.right_shift(raw, np.uint64(11), out=raw).astype(float)
    del raw
    u *= 2.0**-53
    return u


def _key_table(keys) -> tuple[np.ndarray, np.ndarray]:
    """(components, present): keys as a 2-D integer or object array, and
    which entries are key components (rows may differ in length)."""
    if isinstance(keys, np.ndarray):
        if keys.ndim != 2:
            raise ValueError("a key array must be 2-D, one key per row")
        table, present = keys, np.ones(keys.shape, dtype=bool)
    else:
        rows = [list(key) for key in keys]
        width = max(map(len, rows), default=0)
        table = np.zeros((len(rows), width), dtype=object)
        present = np.zeros((len(rows), width), dtype=bool)
        for row, key in enumerate(rows):
            table[row, : len(key)] = key
            present[row, : len(key)] = True
    if table.dtype.kind == "O":
        values = table[present].tolist()
        if not all(isinstance(x, (int, np.integer)) for x in values):
            raise TypeError("seed key components must be integers")
        if any(x < 0 for x in values):
            raise ValueError("seed key components must be non-negative")
        return table, present
    if table.dtype.kind not in "iu":
        raise TypeError(f"seed key components must be integers, not {table.dtype}")
    if table.dtype.kind == "i" and (table < 0).any():
        raise ValueError("seed key components must be non-negative")
    return table, present


def _entropy(table: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, lengths): each row's words in key order, zero-padded to at
    least the pool size, and each row's word count."""
    lengths = np.zeros(table.shape[0], dtype=np.int64)
    slots = []  # (rows holding a word, the word's position in them, the word)
    for col, has in zip(table.T, present.T):
        rest = col if col.dtype == object else col.astype(np.uint64)
        while has.any():
            slots.append((has, lengths[has], (rest[has] & _MASK32).astype(np.uint32)))
            lengths += has
            rest = rest >> 32
            has = has & (rest > 0)
    entropy = np.zeros((len(lengths), max(_POOL, int(lengths.max(initial=0)))), dtype=np.uint32)
    for has, position, word in slots:
        entropy[has, position] = word
    return entropy, lengths


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """numpy's hashmix on a column of words; returns the advanced constant.
    With _MULT_B it is the output hash of generate_state."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def seed_words(keys) -> np.ndarray:
    """Row for row, SeedSequence(list(key)).generate_state(4, np.uint64).

    keys is a 2-D integer array with one key per row, or a sequence of keys
    whose lengths may differ. Each component is split into little-endian
    32-bit words (0 is one word), a row's words are concatenated, and
    numpy's SeedSequence hash runs once over all rows, one uint32 column at a
    time. Negative or non-integer components raise. Returns a (rows, 4)
    uint64 array; word_doubles draws from the rows' streams.
    """
    entropy, lengths = _entropy(*_key_table(keys))
    rows = len(lengths)

    # mix_entropy: the padding zeros are the hashmix(0) of short rows
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        value, const = _hashmix(entropy[:, i], const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for src in range(_POOL, entropy.shape[1]):
        longer = lengths > src
        for dst in range(_POOL):
            value, const = _hashmix(entropy[:, src], const)
            pool[dst] = np.where(longer, _mix(pool[dst], value), pool[dst])

    # generate_state(4, np.uint64): eight 32-bit words, little-endian pairs
    const = _INIT_B
    out = np.zeros((rows, _POOL), dtype=np.uint64)
    for i in range(2 * _POOL):
        value, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        out[:, i // 2] |= value.astype(np.uint64) << np.uint64(32 * (i % 2))
    return out


def normals(gen: np.random.Generator, size: int) -> np.ndarray:
    """`size` standard normal deviates via Box-Muller.

    Draws ceil(size/2) uniform pairs (u1, u2) from [0, 1) and maps them to
        z0 = sqrt(-2 log(1 - u1)) cos(2 pi u2)
        z1 = sqrt(-2 log(1 - u1)) sin(2 pi u2)
    using 1 - u1 in (0, 1] so the log never sees zero. The cos block precedes
    the sin block in the output; a trailing odd element is dropped.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if size == 0:
        return np.empty(0)
    half = (size + 1) // 2
    u = gen.random((2, half))
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    angle = 2.0 * np.pi * u[1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]
