"""Shared test utilities: random problem instances, dense brute-force oracles, the
textbook scheme driver :func:`run_scheme` and the per-step lockstep reference
:func:`verify_reference`."""

from __future__ import annotations

import importlib.util
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fluidsolve import (
    DiffusionState,
    EquivalenceReport,
    RowView,
    SchemeSpec,
    SparseColumnMatrix,
    StoppingRule,
    UpdateSequence,
    diffuse_coordinate,
    diffuse_vector,
    step_gsa,
    step_gsl,
    step_jacobi,
    step_pi,
    to_diffusion,
)

ROOT = Path(__file__).resolve().parents[1]


def perfbench_graphs():
    """The benchmark's seeded graph module, ``perfbench/graphs.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_graphs", ROOT / "perfbench" / "graphs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity(n: int) -> SparseColumnMatrix:
    """The n x n identity matrix."""
    i = np.arange(n)
    return SparseColumnMatrix.from_entries(n, i, i, np.ones(n))


def iter_indices(seq: UpdateSequence):
    """Fresh infinite iterator over the 0-based indices of ``seq``."""
    return itertools.cycle(seq.period().tolist())


def take(seq: UpdateSequence, k: int) -> list[int]:
    """First ``k`` indices of ``seq``."""
    return list(itertools.islice(iter_indices(seq), k))


def seeded_link_matrix(n: int, seed: int) -> SparseColumnMatrix:
    """Q of the benchmark's seeded out-degree-8 graph."""
    rows, cols, vals = perfbench_graphs().link_matrix(n, seed)
    return SparseColumnMatrix.from_entries(n, rows, cols, vals)


def engine_clu(m: SparseColumnMatrix, f0, seq, steps: int):
    """``steps`` calls of the per-step engine along ``seq``.

    Returns the state (its trace has one row per step) and the recomputed
    l1(F) after every step, entry 0 at the start.
    """
    state = DiffusionState.start(f0)
    exact = [state.residual_l1()]
    indices = iter_indices(seq)
    for _ in range(steps):
        diffuse_coordinate(state, m, next(indices))
        exact.append(state.residual_l1())
    return state, exact


def random_substochastic(rng: np.random.Generator, n: int, density: float = 0.6,
                         max_col_sum: float = 0.95):
    """Random nonnegative matrix with every column L1 sum in (0, max_col_sum].

    Returns (SparseColumnMatrix, dense ndarray) so tests can run both routes.
    """
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    sums = dense.sum(axis=0)
    targets = rng.uniform(0.2, max_col_sum, size=n)
    for j in range(n):
        if sums[j] > 0.0:
            dense[:, j] *= targets[j] / sums[j]
    return SparseColumnMatrix.from_dense(dense), dense


def random_signed_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n)


def dense_matvec(dense: np.ndarray, v: np.ndarray) -> np.ndarray:
    """O(n^2) brute-force multiply, the oracle for the sparse kernel."""
    n = dense.shape[0]
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            out[i] += dense[i, j] * v[j]
    return out


def dense_gauss_seidel_residuals(dense: np.ndarray, b: np.ndarray, x0: np.ndarray,
                                 sweeps: int) -> list[float]:
    """Round-robin Gauss-Seidel x_i <- (dense x)_i + b_i on a dense array.

    Entry k is the L1 residual ||dense x + b - x|| after k full sweeps (entry 0
    at x0). Independent of the sparse kernels and the diffusion engine, which
    is the point: it is the oracle for the coordinate-level sweep traces.
    """
    n = dense.shape[0]
    x = np.array(x0, dtype=float)
    residuals = [float(np.abs(dense_matvec(dense, x) + b - x).sum())]
    for _ in range(sweeps):
        for i in range(n):
            x[i] = dense[i] @ x + b[i]
        residuals.append(float(np.abs(dense_matvec(dense, x) + b - x).sum()))
    return residuals


def fit_log_slope(residuals, first: int, last: int) -> float:
    """Least-squares slope of log(residual) against iteration over [first, last]."""
    xs = np.arange(first, last + 1, dtype=float)
    ys = np.log([residuals[k] for k in range(first, last + 1)])
    a = np.vstack([xs, np.ones_like(xs)]).T
    slope, _ = np.linalg.lstsq(a, ys, rcond=None)[0]
    return float(slope)


def read_trace_csv(path):
    """Parse rows of a 'step,residual_l1,cancelled,contracted' CSV."""
    lines = path.read_text().splitlines()
    assert lines[0] == "step,residual_l1,cancelled,contracted"
    rows = []
    for line in lines[1:]:
        step, resid, cancelled, contracted = line.split(",")
        rows.append((int(step), float(resid), float(cancelled), float(contracted)))
    return rows


@dataclass
class SchemeRun:
    """Outcome of a driven scheme.

    ``iteration_deltas[k]`` is l1(x after iteration k+1 - x before); for the
    coordinate-level schemes one iteration means n coordinate updates.
    """

    x: np.ndarray
    iteration_deltas: list[float]
    converged: bool
    updates: int
    iterates: list[np.ndarray] | None = None


def run_scheme(
    spec: SchemeSpec,
    stop: StoppingRule | None = None,
    keep_iterates: bool = False,
) -> SchemeRun:
    """Drive a scheme until the per-iteration change drops to stop.tol.

    ``stop.max_steps`` counts individual updates (coordinate updates for
    GSl/GSa, vector steps for PI/Jac). Non-convergence is reported through
    the flag, never an exception. ``keep_iterates`` stores a copy of x after
    every update, for lockstep comparisons.
    """
    stop = stop or StoppingRule()
    p = spec.matrix
    n = p.n
    x = spec.initial_vector()
    deltas: list[float] = []
    iterates: list[np.ndarray] | None = [x.copy()] if keep_iterates else None
    rows = RowView(p) if spec.coordinate_level else None
    indices = iter_indices(spec.seq) if spec.coordinate_level else None

    updates = 0
    converged = False
    per_iteration = n if spec.coordinate_level else 1
    while updates + per_iteration <= stop.max_steps:
        x_prev = x.copy()  # the Gauss-Seidel steps update x in place
        if spec.kind == "PI":
            x = step_pi(x, p)
        elif spec.kind == "Jac":
            x = step_jacobi(x, p, spec.b)
        else:
            for _ in range(n):
                i = next(indices)
                x = step_gsl(x, rows, i) if spec.kind == "GSl" else step_gsa(x, rows, spec.b, i)
                if iterates is not None:
                    iterates.append(x.copy())
        updates += per_iteration
        if iterates is not None and not spec.coordinate_level:
            iterates.append(x.copy())
        delta = float(np.abs(x - x_prev).sum())
        deltas.append(delta)
        if stop.tol is not None and delta <= stop.tol:
            converged = True
            break
    return SchemeRun(x=x, iteration_deltas=deltas, converged=converged, updates=updates, iterates=iterates)


def verify_reference(spec: SchemeSpec, n_steps: int) -> EquivalenceReport:
    """Lockstep reference for ``verify_equivalence``: the per-step engine against the scheme.

    One ``diffuse_coordinate``/``diffuse_vector`` call and one ``step_*`` call per
    step (the Gauss-Seidel steps update x in place), each discrepancy a fresh
    ``np.abs(...).sum()``, folded with ``np.maximum`` so that a NaN is kept.
    """
    equiv = to_diffusion(spec)
    p = spec.matrix
    state = DiffusionState.start(equiv.f0)
    x = spec.initial_vector()
    max_disc = float(np.abs(x - equiv.reconstruct(state.h)).sum())

    track_pi = spec.kind == "PI"
    max_fluid = max_hist = None
    if track_pi:
        x_next = step_pi(x, p)
        max_fluid = float(np.abs(state.f - (x_next - x)).sum())
        max_hist = float(np.abs(state.h - (x - spec.x0)).sum())

    rows = RowView(p) if spec.coordinate_level else None
    indices = iter_indices(spec.seq) if spec.coordinate_level else None
    for _ in range(n_steps):
        if spec.coordinate_level:
            i = next(indices)
            diffuse_coordinate(state, p, i)
            x = step_gsl(x, rows, i) if spec.kind == "GSl" else step_gsa(x, rows, spec.b, i)
        else:
            diffuse_vector(state, p)
            if spec.kind == "PI":
                x = x_next
                x_next = step_pi(x, p)
            else:
                x = step_jacobi(x, p, spec.b)
        max_disc = float(np.maximum(max_disc, np.abs(x - equiv.reconstruct(state.h)).sum()))
        if track_pi:
            max_fluid = float(np.maximum(max_fluid, np.abs(state.f - (x_next - x)).sum()))
            max_hist = float(np.maximum(max_hist, np.abs(state.h - (x - spec.x0)).sum()))
    return EquivalenceReport(spec.kind, n_steps, max_disc, max_fluid, max_hist)
