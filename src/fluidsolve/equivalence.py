"""Mappings from classical schemes to equivalent diffusion iterations.

Every scheme has a diffusion twin that reproduces its iterates exactly,
update for update, via the reconstruction x_n = H_n + offset:

    scheme              diffusion twin
    ------------------  ------------------------------------------
    PI(P, x0)           VLU on P,  f0 = P x0 - x0,  offset x0
    GSl(P, x0, seq)     CLU on P,  f0 = P x0 - x0,  offset x0
    Jac(P, b)           VLU on P,  f0 = b,          offset 0
    GSa(P, b, seq)      CLU on P,  f0 = b,          offset 0

For PI the fluid and history have closed forms as well:
F_n = x_{n+1} - x_n and H_n = x_n - x0.

A PageRank operator d*Q + (1-d)/n * ones is never materialized: whenever
sigma(x) = 1 it acts as x -> d Q x + (1-d) e, so the diffusion twin can run
on the sparse d*Q alone with the rank-one part folded into the initial
fluid. :func:`pagerank_decompose` builds that form; :func:`pagerank_matrix`
materializes the full operator only for small-scale verification runs.
The folding is exact for PI, whose iterates all keep sigma(x) = 1. A
coordinate-level run of the decomposed form (the CLI's GSl trace) is affine
Gauss-Seidel on (d*Q, (1-d)e) started at x0, not the twin of GSl on the
materialized operator: a single coordinate update there changes sigma(x),
so the two iterations differ in L1 and reach the fixed point only up to
scale. :func:`diffusion_form` is the one place that maps a scheme name and
a damped problem to its diffusion form; the CLI builds every trace with it.
:func:`verify_equivalence` runs a scheme and its twin in lockstep, step by step.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._clu import STRETCH
from .diffusion import DiffusionState, _bind
from .linalg import SparseColumnMatrix, UpdateSequence, as_vector, l1_norm, sigma, uniform_vector
from .schemes import LINEAR, RowView, SchemeSpec, step_gsa, step_gsl, step_jacobi, step_pi

__all__ = [
    "DiffusionEquivalent",
    "EquivalenceReport",
    "to_diffusion",
    "diffusion_form",
    "pagerank_decompose",
    "pagerank_matrix",
    "dense_solve_oracle",
    "verify_equivalence",
]

# Dense LU is acceptable at desk scale only.
MAX_DENSE_N = 1000

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """``stacklevel`` that makes a warning name the first caller outside this package."""
    frame, level = sys._getframe(1), 1  # the function that will call warnings.warn
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class DiffusionEquivalent:
    """A diffusion iteration plus the offset that reconstructs the iterates.

    ``seq`` is the update order of a coordinate-level iteration, None for a vector-level one.
    """

    matrix: SparseColumnMatrix
    f0: np.ndarray
    seq: UpdateSequence | None
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f0", as_vector(self.f0, self.matrix.n))
        object.__setattr__(self, "offset", as_vector(self.offset, self.matrix.n))

    @property
    def mode(self) -> str:
        """'clu' (coordinate level) with an update sequence, 'vlu' (vector level) without."""
        return "vlu" if self.seq is None else "clu"

    def reconstruct(self, h: np.ndarray) -> np.ndarray:
        """Map accumulated history back to the classical iterate."""
        return h + self.offset


def to_diffusion(spec: SchemeSpec) -> DiffusionEquivalent:
    """Diffusion twin of a classical scheme (same matrix, same granularity)."""
    p = spec.matrix
    f0 = p.matvec(spec.x0) - spec.x0 if spec.b is None else spec.b.copy()
    return DiffusionEquivalent(p, f0, spec.seq, spec.initial_vector())


def _check_damped(q: SparseColumnMatrix, d: float) -> None:
    """Reject a damping factor outside (0, 1); warn if a column of Q does not sum to 1."""
    if not 0.0 < d < 1.0:
        raise ValueError(f"damping factor must lie in (0, 1), got {d}")
    col_norms = q.column_l1_norms()
    off = np.abs(col_norms - 1.0)
    if np.any(off > 1e-12):
        worst = int(np.argmax(off))
        warnings.warn(
            f"matrix is not column-stochastic: column {worst} has L1 norm "
            f"{float(col_norms[worst])!r}",
            stacklevel=_outside_stacklevel(),
        )


def pagerank_decompose(q: SparseColumnMatrix, d: float, x0,
                       seq: UpdateSequence | None = None) -> DiffusionEquivalent:
    """Diffusion form of power iteration on d*Q + (1-d)/n * ones, from x0.

    Requires sigma(x0) = 1; that is what lets the rank-one part collapse to
    the constant vector (1-d) e. Q should be column-stochastic; columns
    whose absolute sum strays from 1 (dangling nodes) only draw a warning.
    With an update sequence ``seq`` it is the coordinate-level run of the
    same form (see :func:`diffusion_form` for what that iteration is).
    """
    _check_damped(q, d)
    x0 = as_vector(x0, q.n)
    if abs(sigma(x0) - 1.0) > 1e-12:
        raise ValueError(f"decomposition needs sigma(x0) = 1, got {sigma(x0)!r}")
    e = uniform_vector(q.n)
    f0 = d * q.matvec(x0) + (1.0 - d) * e - x0
    return DiffusionEquivalent(q.scaled(d), f0, seq, x0.copy())


def diffusion_form(
    q: SparseColumnMatrix,
    d: float,
    scheme: str,
    seq: UpdateSequence | None = None,
    b: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> DiffusionEquivalent:
    """Diffusion twin of ``scheme`` for the damped problem x = d Q x + (1-d) e.

    Defaults follow the PageRank setup: b = (1-d) e for the affine schemes
    and x0 = e for the linear ones. The linear schemes never materialize the
    dense rank-one part; their form runs on d*Q with the constant folded
    into the initial fluid f0 = d Q x0 + (1-d) e - x0. ``seq`` is the update
    order that GSl and GSa need and that PI and Jac reject; a b given to PI
    or GSl, or a nonzero x0 given to Jac or GSa, is rejected too, as
    :class:`SchemeSpec` does.

    For PI this is the exact twin of power iteration on
    P = d*Q + (1-d)/n * ones, because every PI iterate keeps sigma(x) = 1.
    For GSl it is coordinate-level diffusion on d*Q from that f0, that is
    affine Gauss-Seidel (GSa with b = (1-d) e) started at x0 instead of 0:
    on the built-in cases its iterates match ``step_gsa`` from e to 1e-15
    in L1. It is not the lockstep twin of Gauss-Seidel on the materialized
    P, which ``verify`` and acceptance criterion 8 run: a coordinate update
    on P does not keep sigma(x) = 1, so that iteration converges to the same
    fixed point only up to scale (sigma of its limit is 0.35 on case4, an
    L1 gap of 0.65). The GSl traces of ``case``, ``custom`` and
    ``cancel-report`` are this affine form.
    """
    n = q.n
    if scheme in LINEAR:
        x0 = x0 if x0 is not None else uniform_vector(n)
        SchemeSpec(scheme, q, b=b, x0=x0, seq=seq)  # checks b, x0 and seq, as for the scheme
        return pagerank_decompose(q, d, x0, seq=seq)
    _check_damped(q, d)
    b = b if b is not None else (1.0 - d) * uniform_vector(n)
    return to_diffusion(SchemeSpec(scheme, q.scaled(d), b=b, x0=x0, seq=seq))


def pagerank_matrix(q: SparseColumnMatrix, d: float) -> SparseColumnMatrix:
    """Materialize d*Q + (1-d)/n * ones. Verification-only: dense pattern."""
    if q.n > MAX_DENSE_N:
        raise ValueError(f"refusing to materialize a dense {q.n}x{q.n} operator")
    if not 0.0 < d < 1.0:
        raise ValueError(f"damping factor must lie in (0, 1), got {d}")
    dense = d * q.to_dense() + (1.0 - d) / q.n
    return SparseColumnMatrix.from_dense(dense)


def dense_solve_oracle(p: SparseColumnMatrix, b) -> np.ndarray:
    """Ground-truth solve of (I - P) x = b by dense LU with partial pivoting.

    Independent of every sparse kernel in this package, which is the point:
    it anchors the solver tests. Self-checks its own residual.
    """
    if p.n > MAX_DENSE_N:
        raise ValueError(f"dense oracle is limited to n <= {MAX_DENSE_N}, got {p.n}")
    b = as_vector(b, p.n)
    a = np.eye(p.n) - p.to_dense()
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"I - P is singular: {exc}") from None
    residual = float(np.abs(a @ x - b).sum())
    if residual > 1e-10 * l1_norm(b):
        raise ArithmeticError(
            f"oracle residual {residual!r} exceeds 1e-10 * l1(b) = {1e-10 * l1_norm(b)!r}"
        )
    return x


@dataclass
class EquivalenceReport:
    """Max deviations between a scheme and its diffusion twin, run in lockstep."""

    scheme: str
    steps: int
    max_discrepancy: float
    # Power iteration only: the closed forms F_n = x_{n+1} - x_n, H_n = x_n - x0.
    max_fluid_discrepancy: float | None = None
    max_history_discrepancy: float | None = None


def verify_equivalence(spec: SchemeSpec, n_steps: int) -> EquivalenceReport:
    """Run a scheme and its diffusion twin side by side for ``n_steps`` updates.

    One vector-level diffusion step pairs with one PI/Jac iteration; one
    coordinate-level step pairs with one Gauss-Seidel coordinate update on
    the same index. Reports the max over steps of l1(x_n - (H_n + offset)),
    a NaN (an overflowed iterate) included. Never raises on mismatch. Each
    reference step is one ``step_*`` call. The twin runs up to
    block = max(1, min(2**16 // n, STRETCH)) steps per call of the run
    function ``run_diffusion`` uses, which writes F and H after each step
    into rows 1..block of a snapshot buffer whose row 0 holds them before
    the call; a non-finite status ends a call early. That buffer and the
    iterates beside it are compared in place, one reduction per check with
    the bits of a per-step ``np.abs(...).sum()``, and a call's last row is
    the next call's row 0.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    equiv = to_diffusion(spec)
    p, n, kind, b = spec.matrix, spec.matrix.n, spec.kind, spec.b
    state = DiffusionState.start(equiv.f0)
    x = spec.initial_vector()  # the Gauss-Seidel steps update x in place
    order = spec.seq.period() if spec.coordinate_level else None
    track_pi = kind == "PI"

    block = max(1, min(2**16 // n, STRETCH))
    snaps = np.empty((block + 1, 2, n))  # F and H: row 0 before a twin call, row t after step t
    xs = np.empty((block + 2, n))  # x per row of snaps; for PI then x one step on
    twin = _bind(p, state, order, snap=snaps[1:])[0]
    if order is not None:
        indices, view = order.tolist(), RowView(p)

    snaps[0], xs[0] = (state.f, state.h), x
    done, disc, fluid, hist = 0, [], [], []
    while True:
        k = len(twin(n_steps, -1.0))  # fewer than block rows when l1(F) is not finite
        if order is not None:
            for t in range(1, k + 1):
                i = indices[(done + t - 1) % order.size]
                xs[t] = x = step_gsl(x, view, i) if b is None else step_gsa(x, view, b, i)
        else:
            for t in range(1, k + 1):
                xs[t] = x = step_pi(x, p) if track_pi else step_jacobi(x, p, b)
        x_t, h_t = xs[:k + 1], snaps[:k + 1, 1]
        disc.append(np.abs(x_t - (h_t + equiv.offset)).sum(axis=1).max())
        if track_pi:
            xs[k + 1] = step_pi(x, p)
            fluid.append(np.abs(snaps[:k + 1, 0] - (xs[1:k + 2] - x_t)).sum(axis=1).max())
            hist.append(np.abs(h_t - (x_t - spec.x0)).sum(axis=1).max())
        done += k
        if done == n_steps:
            break
        snaps[0], xs[0] = snaps[k], xs[k]  # compared again as row 0, which max ignores
    peaks = [float(np.max(d)) if d else None for d in (disc, fluid, hist)]  # keeps a NaN
    return EquivalenceReport(kind, n_steps, *peaks)
