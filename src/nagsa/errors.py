"""Shared exception types.

Argument and domain violations raise plain ValueError; the types below mark
conditions callers are expected to branch on (CLI exit codes, partial traces).
"""

# characters of a config literal an error message quotes
_QUOTE_CHARS = 40


def _quote(text: str) -> str:
    """repr(text) for an error message, cut to its first _QUOTE_CHARS
    characters and its length when longer, so no message grows with the
    literal it refuses."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}… ({len(text)} chars)"


class ConfigurationError(Exception):
    """Invalid configuration: bad config file, preset, or constructed object."""


class StructuralError(ValueError):
    """A matrix or series does not have the structural form the operation requires."""


class DivergenceError(RuntimeError):
    """A series or recursion has no finite limit.

    Solver runs do not raise it: a non-finite iterate ends the run with the
    trace flagged diverged.
    """
