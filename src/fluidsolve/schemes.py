"""Textbook iteration schemes, used as independent references for the engine.

Four schemes over a square operator P:

* PI   -- power iteration,      x <- P x,          from x0
* GSl  -- Gauss-Seidel (linear) x[i] <- (P x)[i],  from x0, one coordinate per update
* Jac  -- Jacobi,               x <- P x + b,      from 0
* GSa  -- Gauss-Seidel (affine) x[i] <- (P x)[i] + b[i], from 0

The step functions are stateless and safe to call concurrently on distinct
vectors.
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


class RowView:
    """Row-oriented companion of a column matrix, for single-row dot products.

    Built once per scheme run so each Gauss-Seidel update costs O(nnz(row)).
    """

    __slots__ = ("n", "indptr", "cols", "vals")

    def __init__(self, m: SparseColumnMatrix):
        self.n = m.n
        order = np.argsort(m.rows, kind="stable")
        self.cols = m.cols[order]
        self.vals = m.vals[order]
        counts = np.bincount(m.rows, minlength=m.n)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """(m @ x)[i]."""
        if not 0 <= i < self.n:
            raise ValueError(f"row {i} out of range for dimension {self.n}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return float(self.vals[lo:hi] @ x[self.cols[lo:hi]])


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
        if self.kind in ("PI", "GSl"):
            if self.x0 is None:
                raise ValueError(f"{self.kind} needs a starting vector x0")
            if self.b is not None:
                raise ValueError(f"{self.kind} solves x = P x and takes no b")
        else:
            if self.b is None:
                raise ValueError(f"{self.kind} needs an affine term b")
            if self.x0 is not None and np.any(self.x0 != 0.0):
                raise ValueError(f"{self.kind} starts from zero; nonzero x0 rejected")
        if self.coordinate_level and self.seq is None:
            raise ValueError(f"{self.kind} needs an update sequence")
        if not self.coordinate_level and self.seq is not None:
            raise ValueError(f"{self.kind} updates every coordinate at once; takes no sequence")
        if self.seq is not None and self.seq.n != n:
            raise ValueError(f"sequence dimension {self.seq.n} != matrix dimension {n}")

    @property
    def coordinate_level(self) -> bool:
        return self.kind in ("GSl", "GSa")

    def initial_vector(self) -> np.ndarray:
        if self.kind in ("PI", "GSl"):
            return self.x0.copy()
        return np.zeros(self.matrix.n)


def step_pi(x, p: SparseColumnMatrix) -> np.ndarray:
    """x <- P x."""
    return p.matvec(x)


def step_gsl(x, p: SparseColumnMatrix, i: int, row_view: RowView | None = None) -> np.ndarray:
    """Copy of x with x[i] replaced by (P x)[i]."""
    x = as_vector(x, p.n)
    if not 0 <= i < p.n:
        raise ValueError(f"coordinate {i} out of range for dimension {p.n}")
    out = x.copy()
    out[i] = row_view.row_dot(i, x) if row_view is not None else p.matvec(x)[i]
    return out


def step_jacobi(x, p: SparseColumnMatrix, b) -> np.ndarray:
    """x <- P x + b."""
    return p.matvec(x) + as_vector(b, p.n)


def step_gsa(x, p: SparseColumnMatrix, b, i: int, row_view: RowView | None = None) -> np.ndarray:
    """Copy of x with x[i] replaced by (P x)[i] + b[i]."""
    x = as_vector(x, p.n)
    b = as_vector(b, p.n)
    if not 0 <= i < p.n:
        raise ValueError(f"coordinate {i} out of range for dimension {p.n}")
    out = x.copy()
    base = row_view.row_dot(i, x) if row_view is not None else p.matvec(x)[i]
    out[i] = base + b[i]
    return out
