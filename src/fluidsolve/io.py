"""File ingestion and trace export.

Matrices arrive as MatrixMarket coordinate files ("%%MatrixMarket matrix
coordinate real general", 1-based indices); vectors as plain text, one real
per line. Non-finite values (NaN, inf) are rejected at parse time. Every
CSV the package writes goes through :func:`write_csv`, which renders floats
with full double precision.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

import numpy as np

from .linalg import SparseColumnMatrix

__all__ = [
    "ParseError",
    "read_matrix_market",
    "read_vector",
    "write_csv",
    "write_trace_csv",
    "format_float",
    "TRACE_HEADER",
]

TRACE_HEADER = "step,residual_l1,cancelled,contracted"


class ParseError(ValueError):
    """Malformed input file; the message carries file and line number."""


def _fail(path, lineno: int, message: str) -> "ParseError":
    return ParseError(f"{os.fspath(path)}:{lineno}: {message}")


def read_matrix_market(path) -> SparseColumnMatrix:
    """Parse a square matrix in MatrixMarket coordinate real general format."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _fail(path, 1, "empty file, expected a MatrixMarket header")

    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise _fail(path, 1, "missing '%%MatrixMarket' header line")
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if (obj, fmt, field, symmetry) != ("matrix", "coordinate", "real", "general"):
        raise _fail(
            path,
            1,
            "unsupported format; only 'matrix coordinate real general' is accepted",
        )

    body = (
        (lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    )

    try:
        size_lineno, size_line = next(body)
    except StopIteration:
        raise _fail(path, len(lines), "missing size line 'rows cols nnz'") from None
    parts = size_line.split()
    if len(parts) != 3:
        raise _fail(path, size_lineno, "size line must be 'rows cols nnz'")
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise _fail(path, size_lineno, f"non-integer size line {size_line!r}") from None
    if n_rows != n_cols:
        raise _fail(path, size_lineno, f"matrix must be square, got {n_rows}x{n_cols}")
    if n_rows <= 0 or nnz < 0:
        raise _fail(path, size_lineno, "dimensions must be positive")

    entries: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], int] = {}
    count = 0
    last_lineno = size_lineno
    for lineno, line in body:
        last_lineno = lineno
        if count == nnz:
            raise _fail(path, lineno, f"more than the declared {nnz} entries")
        parts = line.split()
        if len(parts) != 3:
            raise _fail(path, lineno, "entry line must be 'row col value'")
        try:
            i, j = int(parts[0]), int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise _fail(path, lineno, f"malformed entry {line!r}") from None
        if not math.isfinite(value):
            raise _fail(path, lineno, f"non-finite value {parts[2]!r}")
        if not 1 <= i <= n_rows or not 1 <= j <= n_cols:
            raise _fail(path, lineno, f"entry ({i}, {j}) outside 1..{n_rows}")
        if (i, j) in seen:
            raise _fail(
                path, lineno, f"duplicate entry ({i}, {j}), first seen on line {seen[(i, j)]}"
            )
        seen[(i, j)] = lineno
        entries.append((i - 1, j - 1, value))
        count += 1
    if count != nnz:
        raise _fail(path, last_lineno, f"expected {nnz} entries, found {count}")
    return SparseColumnMatrix.from_entries(n_rows, entries)


def read_vector(path) -> np.ndarray:
    """Parse a dense vector stored one real per line."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise _fail(path, lineno, f"not a number: {text!r}") from None
            if not math.isfinite(value):
                raise _fail(path, lineno, f"non-finite value {text!r}")
            values.append(value)
    if not values:
        raise _fail(path, 1, "empty vector file")
    return np.asarray(values, dtype=np.float64)


def format_float(x: float) -> str:
    """Render with 17 significant digits (enough to round-trip a double)."""
    return format(float(x), ".17g")


def write_csv(path, header: str, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then one comma-separated line per row.

    Floats are rendered by :func:`format_float`, every other field by ``str``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(format_float(x) if isinstance(x, float) else str(x) for x in row) + "\n"
            )


def write_trace_csv(path, records: Sequence) -> None:
    """Write trace rows as 'step,residual_l1,cancelled,contracted' CSV."""
    write_csv(path, TRACE_HEADER, records)
