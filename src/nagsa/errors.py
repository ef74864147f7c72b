"""Shared exception types.

Argument and domain violations raise plain ValueError; the types below mark
conditions callers are expected to branch on (CLI exit codes, partial traces).
"""


class ConfigurationError(Exception):
    """Invalid configuration: bad config file, preset, or constructed object."""


class StructuralError(ValueError):
    """A matrix or series does not have the structural form the operation requires."""


class DivergenceError(RuntimeError):
    """A series or recursion has no finite limit.

    Solver runs do not raise it: a non-finite iterate ends the run with the
    trace flagged diverged.
    """
