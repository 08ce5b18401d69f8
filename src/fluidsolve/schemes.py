"""Textbook iteration schemes: the reference that ``verify`` runs against the engine.

Four schemes over a square operator P:

* PI   -- power iteration,      x <- P x,          from x0
* GSl  -- Gauss-Seidel (linear) x[i] <- (P x)[i],  from x0, one coordinate per update
* Jac  -- Jacobi,               x <- P x + b,      from 0
* GSa  -- Gauss-Seidel (affine) x[i] <- (P x)[i] + b[i], from 0

The vector-level steps (PI, Jac) return a new vector. The Gauss-Seidel steps (GSl,
GSa) update x in place, reading P's rows as the columns of its :class:`RowView`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SparseColumnMatrix, UpdateSequence, as_vector

__all__ = [
    "SCHEME_KINDS",
    "SchemeSpec",
    "RowView",
    "step_pi",
    "step_gsl",
    "step_jacobi",
    "step_gsa",
]

SCHEME_KINDS = ("PI", "GSl", "Jac", "GSa")
LINEAR = ("PI", "GSl")  # solve x = P x from x0; the others solve x = P x + b from 0
COORDINATE = ("GSl", "GSa")  # update one coordinate at a time, along a sequence


class RowView:
    """The rows of a matrix m as its transpose, a :class:`SparseColumnMatrix` in which
    column i holds row i's stored entries (explicit zeros too) in m's stored order.
    Built once per scheme run so each Gauss-Seidel update costs O(nnz(row)).
    """

    __slots__ = ("n", "transpose")

    def __init__(self, m: SparseColumnMatrix):
        self.n = m.n
        order = np.argsort(m.rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(m.rows, minlength=m.n))))
        self.transpose = SparseColumnMatrix(m.n, indptr, m.cols[order], m.vals[order])

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """(m @ x)[i]: column i of the transpose dotted with x."""
        if not 0 <= i < self.n:
            raise ValueError(f"row {i} out of range for dimension {self.n}")
        cols, vals = self.transpose.column(i)
        return float(vals.dot(x[cols]))  # the ddot of ``@``, with less dispatch


@dataclass(frozen=True)
class SchemeSpec:
    """Which scheme to run and with what data; validates the per-kind contract.

    The affine schemes (Jac, GSa) are defined to start from the zero vector,
    so a nonzero x0 is rejected for them. The Gauss-Seidel schemes (GSl, GSa)
    need an update sequence and the vector-level ones (PI, Jac) take none.
    """

    kind: str
    matrix: SparseColumnMatrix
    b: np.ndarray | None = None
    x0: np.ndarray | None = None
    seq: UpdateSequence | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        n = self.matrix.n
        if self.b is not None:
            object.__setattr__(self, "b", as_vector(self.b, n))
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0, n))
        if self.kind in LINEAR:
            if self.x0 is None:
                raise ValueError(f"{self.kind} needs a starting vector x0")
            if self.b is not None:
                raise ValueError(f"{self.kind} solves x = P x and takes no b")
        else:
            if self.b is None:
                raise ValueError(f"{self.kind} needs an affine term b")
            if self.x0 is not None and np.any(self.x0 != 0.0):
                raise ValueError(f"{self.kind} starts from zero; nonzero x0 rejected")
        if self.kind in COORDINATE and self.seq is None:
            raise ValueError(f"{self.kind} needs an update sequence")
        if self.kind not in COORDINATE and self.seq is not None:
            raise ValueError(f"{self.kind} updates every coordinate at once; takes no sequence")
        if self.seq is not None and self.seq.n != n:
            raise ValueError(f"sequence dimension {self.seq.n} != matrix dimension {n}")

    @property
    def coordinate_level(self) -> bool:
        return self.seq is not None

    def initial_vector(self) -> np.ndarray:
        return self.x0.copy() if self.b is None else np.zeros(self.matrix.n)


def step_pi(x, p: SparseColumnMatrix) -> np.ndarray:
    """x <- P x."""
    return p.matvec(x)


def step_gsl(x, rows: RowView, i: int) -> np.ndarray:
    """x[i] <- (P x)[i] in place, P the matrix of ``rows``; returns x."""
    x = as_vector(x, rows.n)
    x[i] = rows.row_dot(i, x)
    return x


def step_jacobi(x, p: SparseColumnMatrix, b) -> np.ndarray:
    """x <- P x + b."""
    return p.matvec(x) + as_vector(b, p.n)


def step_gsa(x, rows: RowView, b, i: int) -> np.ndarray:
    """x[i] <- (P x)[i] + b[i] in place, P the matrix of ``rows``; returns x."""
    x = as_vector(x, rows.n)
    x[i] = rows.row_dot(i, x) + as_vector(b, rows.n)[i]
    return x
