"""File ingestion and trace export.

Matrices arrive as MatrixMarket coordinate files ("%%MatrixMarket matrix
coordinate real general", 1-based indices, blank and comment lines anywhere
after the header); vectors as plain text, one real per line. Non-finite values
(NaN, inf) are rejected at parse time. Every CSV the package writes goes through
:func:`write_csv`, one ``%`` row format per file: ``%.17g`` for a double (17 significant
digits, enough to round-trip it), ``%d`` for a step or count, ``%s`` for a name. Rows are
formatted and written :data:`CSV_CHUNK` at a time, one ``write`` per chunk, and a trace's
record array becomes Python numbers a quarter chunk at a time, so the memory a CSV takes
while it is written does not grow with its row count.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import warnings
from typing import Iterable

import numpy as np

from .diffusion import TRACE_DTYPE
from .linalg import SparseColumnMatrix

__all__ = [
    "ParseError",
    "read_matrix_market",
    "read_vector",
    "write_csv",
    "write_trace_csv",
    "TRACE_HEADER",
    "STEP_ROW",
]

TRACE_HEADER = "step,residual_l1,cancelled,contracted"
STEP_ROW = "%d,%.17g,%.17g,%.17g"  # a step and three doubles: trace and cancel-report rows
CSV_CHUNK = 2**14  # rows formatted into one string and written at a time
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

    ``np.loadtxt`` reads the entries straight from the open file, blank lines
    included; only if that read fails, on a comment line or a malformed one, do
    the entry lines go to a second call without the blank and comment lines.
    ``SparseColumnMatrix.from_entries`` checks the entries; only a rejected file
    is read again, by :func:`_first_bad_entry`.
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

        # a malformed line, or an entry that from_entries rejects: _first_bad_entry names it
        with contextlib.suppress(ValueError), _strict_loadtxt():
            try:
                entries = np.loadtxt(fh, dtype=_ENTRY, comments=None, ndmin=1)
            except ValueError:  # a comment line between entries, or a malformed one
                fh.seek(0)
                lines = itertools.filterfalse(_SKIPPED.match, itertools.islice(fh, lineno, None))
                entries = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
            if entries.size == nnz:
                i, j, v = entries["i"] - 1, entries["j"] - 1, entries["v"].copy()
                del entries  # only the contiguous 0-based fields live on into the build
                return SparseColumnMatrix.from_entries(n, i, j, v)
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


def write_csv(path, header: str, row_format: str, rows: Iterable[tuple]) -> None:
    """Write ``header`` and then ``row_format % row`` for each row, one ``write`` per chunk."""
    fmt, rows = (row_format + "\n").__mod__, iter(rows)
    chunks = iter(lambda: "".join(map(fmt, itertools.islice(rows, CSV_CHUNK))), "")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)  # drops each chunk before it formats the next


def write_trace_csv(path, records) -> None:
    """Write trace rows (step, residual_l1, cancelled, contracted), a trace's or 4-tuples, as CSV."""
    # a quarter chunk at a time: 2**14 rows as Python numbers would take 3 MB
    rows, size = np.asarray(records, TRACE_DTYPE), CSV_CHUNK // 4
    chunks = (rows[lo:lo + size].tolist() for lo in range(0, len(rows), size))
    write_csv(path, TRACE_HEADER, STEP_ROW, itertools.chain.from_iterable(chunks))
