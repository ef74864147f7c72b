"""The number format of every text the package writes.

Instance dumps, the harness's CSV files and the algebra table all format
floats here. It imports nothing of the package, so ``nagsa algebra`` loads
it without the problem and experiment modules.
"""

from __future__ import annotations

from collections.abc import Sequence


def _fmt(value: float) -> str:
    """17 significant digits, an exact float64 round trip: the one number
    format of instance dumps and of the harness's CSV files."""
    return format(float(value), ".17g")


def _fmt_rows(row: str, columns: Sequence[Sequence]) -> str:
    """The lines ``row % (one field of each column)``, joined by LF, formed
    with one % format over the flat list of fields: how the algebra table and
    the lemma detail CSV turn columns into text (the trace, summary and
    lemma-summary CSVs format each field with _fmt). %.17g formats a Python
    float as _fmt does ("inf", "nan" and "-0" too), so array columns come in
    through tolist()."""
    width = len(columns)
    count = len(columns[0])
    fields = [None] * (width * count)
    for k, column in enumerate(columns):
        fields[k::width] = column
    return "\n".join([row] * count) % tuple(fields)
