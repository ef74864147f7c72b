"""The seed source that hands PCG64 precomputed seed words.

Subclassing ISeedSequence imports numpy.random, so this class lives apart
from _rng and is imported when the first generator is built from words.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class WordSeed(ISeedSequence):
    """Four uint64 words, as SeedSequence.generate_state(4, np.uint64) gives
    them; PCG64 does its own 128-bit seeding from them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the type np.uint64 itself, which needs no np.dtype()
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("seed words are four uint64 values")
        return self.words
