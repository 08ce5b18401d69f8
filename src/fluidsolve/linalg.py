"""Sparse column-oriented matrices, dense vectors, and update sequences.

Dense vectors are plain 1-D float64 numpy arrays; the helpers below
(:func:`l1_norm`, :func:`sigma`, :func:`uniform_vector`) give them the
vocabulary the solvers use. All indices are 0-based in code; file formats
and the CLI speak 1-based and convert at the I/O boundary.

Matrices are immutable after construction and safe to share across threads
read-only. Vectors are single-writer: the owner of an array mutates it, no
internal locking anywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "SparseColumnMatrix",
    "UpdateSequence",
    "as_vector",
    "l1_norm",
    "sigma",
    "uniform_vector",
]


# Largest dimension whose sort key (n-1)*n + (n-1) = n*n - 1 fits in int64.
MAX_N = 3_037_000_499


_FLOAT64 = np.dtype(np.float64)


def as_vector(values, n: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, optionally checking its length.

    A float64 ``ndarray`` comes back as it is, without a call into ``np.asarray``.
    """
    v = values
    if type(v) is not np.ndarray or v.dtype is not _FLOAT64:
        v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


def l1_norm(v) -> float:
    """Sum of absolute entries; zero exactly when the vector is zero."""
    return float(np.abs(np.asarray(v)).sum())


def sigma(v) -> float:
    """Signed sum of entries."""
    return float(np.asarray(v).sum())


def uniform_vector(n: int) -> np.ndarray:
    """The vector (1/n, ..., 1/n); its entry sum is 1."""
    if n <= 0:
        raise ValueError("dimension must be positive")
    return np.full(n, 1.0 / n)


class SparseColumnMatrix:
    """Square real matrix stored by columns: ``indptr``, ``rows`` and ``vals``, nothing else.

    Column j holds the stored entries ``indptr[j]:indptr[j + 1]``, sorted by row;
    duplicate rows are rejected and exact zeros are dropped at construction, so
    nnz-based cost and mass accounting are exact. Column orientation is deliberate:
    the coordinate-level diffusion step distributes fluid from one source
    coordinate along a single column in O(nnz(column)).

    All arithmetic is 64-bit floating point.
    """

    __slots__ = ("n", "indptr", "rows", "vals")

    def __init__(self, n: int, indptr, rows, vals):
        self.n = int(n)
        self.indptr = indptr
        self.rows = rows
        self.vals = vals

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals) -> "SparseColumnMatrix":
        """Build from 0-based coordinate arrays: ``vals[k]`` sits at (``rows[k]``, ``cols[k]``).

        The three arrays are 1-D and of one length, and ``rows`` and ``cols`` have an
        integer dtype: a float index is rejected, never rounded. Zero values are dropped;
        a non-finite value, an index outside the matrix or a duplicated (row, col)
        position, zero or not, is an error.
        """
        if n <= 0:
            raise ValueError("dimension must be positive")
        if n > MAX_N:
            raise ValueError(f"dimension {n} is over {MAX_N}: the sort key would overflow int64")
        r, c, v = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=np.float64)
        if r.dtype.kind not in "iu" or c.dtype.kind not in "iu":
            raise TypeError(f"indices need an integer dtype, got {r.dtype} and {c.dtype}")
        if not (r.ndim == 1 and r.shape == c.shape == v.shape):
            raise ValueError(f"need 1-D arrays of one length, got {r.shape} {c.shape} {v.shape}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"non-finite entry {v[k]} at ({r[k]}, {c[k]})")
        bad = np.flatnonzero((r < 0) | (r >= n) | (c < 0) | (c >= n))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"entry ({r[k]}, {c[k]}) outside the {n}x{n} matrix")
        key = c.astype(np.int64)  # the column-major position c*n + r, built in place
        key *= n
        key += r.astype(np.int64, copy=False)
        order = np.argsort(key, kind="stable")  # lexsort's order, fast on column-sorted input
        key = key[order]  # one gather at a time: the unsorted key goes before v's copy
        v = v[order]
        del order
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:  # a stored zero counts: the position is given twice
            col, row = divmod(int(key[dup[0]]), n)
            raise ValueError(f"duplicate entry at (row {row}, col {col})")
        keep = v != 0.0
        if not keep.all():
            key, v = key[keep], v[keep]
        indptr = np.searchsorted(key, np.arange(0, n * n + 1, n))  # column j's keys: [j*n, j*n+n)
        return cls(n, indptr, np.remainder(key, n, out=key), v)

    @classmethod
    def from_dense(cls, a) -> "SparseColumnMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-D array, got shape {a.shape}")
        i, j = np.nonzero(a)
        return cls.from_entries(a.shape[0], i, j, a[i, j])

    @classmethod
    def zero(cls, n: int) -> "SparseColumnMatrix":
        return cls.from_entries(n, np.empty(0, np.int64), np.empty(0, np.int64), [])

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, do not mutate)."""
        if not 0 <= j < self.n:
            raise ValueError(f"column {j} out of range for dimension {self.n}")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def col_nnz(self, j: int) -> int:
        return self.column(j)[0].size

    def _per_entry(self, v: np.ndarray) -> np.ndarray:
        """``v[j]`` once for each stored entry of column j, in stored order (a fresh array)."""
        return v.repeat(self.indptr[1:] - self.indptr[:-1])

    @property
    def cols(self) -> np.ndarray:
        """The column of every stored entry, in stored order (a fresh array)."""
        return self._per_entry(np.arange(self.n))

    def column_l1_norms(self) -> np.ndarray:
        """All column absolute sums (a fresh array)."""
        return np.bincount(self.cols, weights=np.abs(self.vals), minlength=self.n)

    def matvec(self, v) -> np.ndarray:
        """Matrix-vector product: every stored entry scaled by its column's v_j."""
        v = as_vector(v, self.n)
        per_entry = self.vals * self._per_entry(v)
        return np.bincount(self.rows, weights=per_entry, minlength=self.n)

    def scaled(self, factor: float) -> "SparseColumnMatrix":
        """``factor`` times this matrix; only the values are new.

        The result shares this matrix's ``indptr`` and ``rows`` arrays, which no matrix
        ever mutates. A zero factor gives the zero matrix (zeros are not stored).
        """
        if factor == 0.0:
            return SparseColumnMatrix.zero(self.n)
        return SparseColumnMatrix(self.n, self.indptr, self.rows, self.vals * float(factor))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.vals
        return out

    def __repr__(self) -> str:
        return f"SparseColumnMatrix(n={self.n}, nnz={self.nnz})"


class UpdateSequence:
    """Infinite stream of 0-based coordinate indices with a fairness contract.

    Fairness means every coordinate appears infinitely often. The stream
    replays one period cyclically, so every constructor checks that the
    period holds integer indices in range and mentions every coordinate at
    least once; round-robin sequences are fair by construction.
    """

    __slots__ = ("n", "_period")

    def __init__(self, n: int, period):
        if n <= 0:
            raise ValueError("dimension must be positive")
        idx = np.asarray(period)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise TypeError(f"expected 1-D integer indices, got {idx.dtype} of shape {idx.shape}")
        bad = np.flatnonzero((idx < 0) | (idx >= n))
        if bad.size:
            raise ValueError(f"index {idx[bad[0]]} out of range for dimension {n}")
        idx = idx.astype(np.int64)
        # a count per coordinate: linear time, where a set difference would sort
        missing = np.flatnonzero(np.bincount(idx, minlength=n) == 0)
        if missing.size:
            raise ValueError(f"unfair sequence: coordinates {missing.tolist()} never appear")
        self.n = int(n)
        self._period = idx

    @classmethod
    def round_robin(cls, n: int) -> "UpdateSequence":
        """0, 1, ..., n-1, 0, 1, ... — every window of n outputs is a permutation."""
        return cls(n, np.arange(n, dtype=np.int64))

    @classmethod
    def explicit(cls, n: int, indices: Sequence[int]) -> "UpdateSequence":
        """Replay integer ``indices`` cyclically; they must cover every coordinate."""
        return cls(n, indices)

    def period(self) -> np.ndarray:
        """One period of the sequence as a fresh int64 array; the stream repeats it."""
        return self._period.copy()

    def __repr__(self) -> str:
        return f"UpdateSequence(n={self.n}, period={self._period.size})"
