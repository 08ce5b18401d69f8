"""File ingestion and trace export.

Matrices arrive as MatrixMarket coordinate files ("%%MatrixMarket matrix
coordinate real general", 1-based indices, blank and comment lines anywhere
after the header); vectors as plain text, one real per line. Non-finite values
(NaN, inf) are rejected at parse time. Every CSV the package writes has the
bytes of :func:`write_csv`, which renders floats with full double precision.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import warnings
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
_SKIPPED = re.compile(r"\s*(?:%|$)")  # matches a blank or comment line
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


class ParseError(ValueError):
    """Malformed input file; the message carries file and line number."""


def _fail(path, lineno: int, message: str) -> "ParseError":
    return ParseError(f"{os.fspath(path)}:{lineno}: {message}")


@contextlib.contextmanager
def _strict_loadtxt():
    """Make ``np.loadtxt`` reject an index such as ``2.5`` and read no lines without a warning.

    numpy releases from 1.23 read ``2.5`` into an int64 field as 2 and only warn; turned
    into an error, that warning reaches the caller as a ``ValueError``.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # nnz = 0
        yield


def read_matrix_market(path) -> SparseColumnMatrix:
    """Parse a square matrix in MatrixMarket coordinate real general format.

    One ``np.loadtxt`` call reads the entries and ``SparseColumnMatrix.from_entries``
    checks them; only a rejected file is read again, by :func:`_first_bad_entry`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lineno, line = 1, fh.readline()
        if not line:
            raise _fail(path, 1, "empty file, expected a MatrixMarket header")
        header = line.lower().split()
        if len(header) != 5 or header[0] != "%%matrixmarket":
            raise _fail(path, 1, "missing '%%MatrixMarket' header line")
        if header[1:] != ["matrix", "coordinate", "real", "general"]:
            raise _fail(
                path, 1, "unsupported format; only 'matrix coordinate real general' is accepted"
            )
        for lineno, line in enumerate(fh, start=2):
            if not _SKIPPED.match(line):
                break
        else:
            raise _fail(path, lineno, "missing size line 'rows cols nnz'")
        parts = line.split()
        if len(parts) != 3:
            raise _fail(path, lineno, "size line must be 'rows cols nnz'")
        try:
            n, n_cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise _fail(path, lineno, "non-integer size line " + repr(line.rstrip("\n"))) from None
        if n != n_cols:
            raise _fail(path, lineno, f"matrix must be square, got {n}x{n_cols}")
        if n <= 0 or nnz < 0:
            raise _fail(path, lineno, "dimensions must be positive")

        # a malformed line, or an entry that from_entries rejects, sends the file to the second read
        with contextlib.suppress(ValueError), _strict_loadtxt():
            lines = itertools.filterfalse(_SKIPPED.match, fh)
            i, j, v = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1, unpack=True)
            if i.size == nnz:
                return SparseColumnMatrix.from_entries(n, i - 1, j - 1, v)
    raise _first_bad_entry(path, lineno, n, nnz)


def _first_bad_entry(path, size_lineno: int, n: int, nnz: int) -> ParseError:
    """The error naming the first bad entry line; it never accepts the file.

    The first ``nnz`` entry lines go through the accepting read's parser, so that both agree
    on what is malformed: all in one call, and only if that fails, halves of the part that
    holds the first line that does not parse (O(log nnz) calls). The entries before that line
    are checked as arrays, in the order the messages below are tried.
    """
    import array  # only a rejected file pays for this import

    linenos, lines = array.array("q"), []  # the first nnz + 1 entry lines and their numbers
    with open(path, "r", encoding="utf-8") as fh, _strict_loadtxt():
        numbered = itertools.islice(enumerate(fh, start=1), size_lineno, None)
        entries = ((lineno, line) for lineno, line in numbered if not _SKIPPED.match(line))
        for lineno, line in itertools.islice(entries, nnz + 1):
            linenos.append(lineno)
            lines.append(line)
        size = min(len(lines), nnz)
        blocks, lo, hi, mid = [np.empty(0, dtype=_ENTRY)], 0, size, size
        while lo < mid:  # lines[:lo] parse; if lo < hi, lines[lo:hi] holds one that does not
            try:
                blocks.append(np.loadtxt(lines[lo:mid], dtype=_ENTRY, comments=None, ndmin=1))
                lo = mid
            except ValueError:
                hi = mid
            mid = (lo + hi) // 2
    parsed = np.concatenate(blocks)
    i, j = parsed["i"], parsed["j"]
    outside = (i < 1) | (i > n) | (j < 1) | (j > n)
    # column-major position; an entry outside the matrix gets one of its own
    pos = np.where(outside, -1 - np.arange(i.size), (j - 1) * n + i - 1)
    unique_pos, first = np.unique(pos, return_index=True)
    repeated = np.ones(i.size, dtype=bool)
    repeated[first] = False
    bad = np.flatnonzero(~np.isfinite(parsed["v"]) | outside | repeated)
    if bad.size:
        k = int(bad[0])
        lineno, line, (ik, jk, value) = linenos[k], lines[k], parsed[k].tolist()
        if not math.isfinite(value):
            return _fail(path, lineno, f"non-finite value {line.split()[2]!r}")
        if outside[k]:
            return _fail(path, lineno, f"entry ({ik}, {jk}) outside 1..{n}")
        seen = linenos[first[np.searchsorted(unique_pos, pos[k])]]
        return _fail(path, lineno, f"duplicate entry ({ik}, {jk}), first seen on line {seen}")
    if len(parsed) < size:
        lineno, line = linenos[len(parsed)], lines[len(parsed)]
        if len(line.split()) != 3:
            return _fail(path, lineno, "entry line must be 'row col value'")
        return _fail(path, lineno, "malformed entry " + repr(line.rstrip("\n")))
    if len(lines) > nnz:
        return _fail(path, linenos[nnz], f"more than the declared {nnz} entries")
    last = linenos[-1] if lines else size_lineno
    return _fail(path, last, f"expected {nnz} entries, found {len(lines)}")


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


def write_trace_csv(path, records: Sequence[tuple]) -> None:
    """Write trace rows as 'step,residual_l1,cancelled,contracted' CSV, one format per row.

    The bytes are :func:`write_csv`'s: ``%.17g`` is :func:`format_float`, ``%d`` is ``str``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n" + "".join(map("%d,%.17g,%.17g,%.17g\n".__mod__, records)))
