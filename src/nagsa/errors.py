"""Shared exception types.

Argument and domain violations raise plain ValueError. The two types below
mark conditions callers are expected to branch on: an invalid configuration,
and a series with no finite limit. Properties that hold by construction,
such as the unit column sums of momentum step-matrix products, are not
checked, so no error type stands for them. _MAX_ENTRIES is the one array
bound that both the instance rule (problems) and the lemma-suite rule
(diagnostics) refuse past.
"""

# characters of a config literal an error message quotes
_QUOTE_CHARS = 40

# largest float64 array a config, an instance file or a lemma suite may ask
# for (256 MB): the m x n instance matrix, a paths x length lemma ensemble, a
# branch sample
_MAX_ENTRIES = 1 << 25


def _quote(text: str) -> str:
    """repr(text) for an error message, cut to its first _QUOTE_CHARS
    characters and its length when longer, so no message grows with the
    literal it refuses."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}… ({len(text)} chars)"


def _count(value: int) -> str:
    """str(value) for an error message, or its size in bits past 64 bits, so
    no message grows with (or fails on) an integer too long for str()."""
    bits = value.bit_length()
    return str(value) if bits <= 64 else f"an integer of {bits} bits"


class ConfigurationError(Exception):
    """Invalid configuration: bad config file, preset, or constructed object."""


class DivergenceError(RuntimeError):
    """A series or recursion has no finite limit.

    Solver runs do not raise it: a non-finite iterate ends the run with the
    trace flagged diverged.
    """
