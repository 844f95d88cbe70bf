"""The one CSV writer: a header and columns that broadcast together.

The table has one row per element of the columns' common shape, in C order:
``values`` of shape ``(n_q, n_nu, n_t)`` goes next to the axes
``q[:, None, None]``, ``nu[None, :, None]`` and ``t[None, None, :]``, and a
scalar is a column of one value.  Columns are formatted whole, not cell by
cell: floats by ``repr``, integers and booleans by ``str``, strings with the
csv module's minimal quoting, and a column smaller than the table (a grid
axis) once per value.  Rows end in ``\\r\\n``: a file is byte for byte what a
``csv.writer`` row loop writes from the same values.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

__all__ = ["write_table"]

_CHUNK_ROWS = 1024  # rows formatted per write: bounds the text held in memory


def _quote(s: str) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow((s, ""))  # two fields: a lone empty one is written as ""
    return buf.getvalue()[:-3]  # drop ",\r\n"


def _cells(a: np.ndarray) -> list[str]:
    if a.dtype.kind == "f":
        return list(map(repr, a.tolist()))
    if a.dtype.kind in "iub":
        return list(map(str, a.tolist()))
    if a.dtype.kind == "U":
        return list(map(_quote, a.tolist()))
    raise TypeError(f"cannot write a column of dtype {a.dtype}")


def write_table(path, header, columns) -> None:
    """Write ``header`` and the rows of ``columns`` (arrays, sequences or
    scalars that broadcast together) to ``path`` as CSV."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    shape = np.broadcast_shapes(*(c.shape for c in columns)) or (1,)
    n = math.prod(shape)
    full = [c.size == n for c in columns]
    columns = [np.broadcast_to(c if f else np.array(_cells(c.ravel()), dtype=object).reshape(c.shape),
                               shape) for c, f in zip(columns, full)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for lo in range(0, n, _CHUNK_ROWS):
            at = np.unravel_index(np.arange(lo, min(n, lo + _CHUNK_ROWS)), shape)
            cells = [_cells(c[at]) if f else c[at].tolist() for c, f in zip(columns, full)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
