"""The number format of every text the package writes.

Instance dumps, the harness's CSV files and the algebra table all format
floats here. It imports nothing of the package, so ``nagsa algebra`` loads
it without the problem and experiment modules.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _fmt(value: float) -> str:
    """17 significant digits, an exact float64 round trip: the one number
    format of instance dumps and of the harness's CSV files."""
    return format(float(value), ".17g")


def _fmt_distinct(column: np.ndarray) -> list[str]:
    """The ``%.17g`` text of each entry of a 1-D float64 array, formatting
    each distinct value once: the algebra table's c and residual columns
    take few values, in runs and in alternation. Values are told apart by
    their int64 view, so -0.0 and 0.0, and NaNs of other bits, each keep
    their own text."""
    if not len(column):
        return []
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = ("\n".join(["%.17g"] * len(keys)) % tuple(keys.view(np.float64).tolist())).split("\n")
    return np.array(texts, dtype=object)[inverse].tolist()


def _fmt_rows(row: str, columns: Sequence[Sequence]) -> str:
    """The lines ``row % (one field of each column)``, joined by LF, formed
    with one % format over the flat list of fields: how the algebra table and
    the lemma detail CSV turn columns into text (the trace, summary and
    lemma-summary CSVs format each field with _fmt). %.17g formats a Python
    float as _fmt does ("inf", "nan" and "-0" too), so array columns come in
    through tolist(), or as text for a %s field."""
    width = len(columns)
    count = len(columns[0])
    fields = [None] * (width * count)
    for k, column in enumerate(columns):
        fields[k::width] = column
    return "\n".join([row] * count) % tuple(fields)
