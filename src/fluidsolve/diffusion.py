"""Fluid-diffusion iteration on a state pair (F, H).

F holds the residual fluid still waiting to be delivered, H the fluid
delivered so far. A coordinate-level update (CLU) collects the fluid at one
source coordinate, books it into H there, and redistributes it along that
matrix column:

    H[i] += F[i];  F[i] -= F[i];  F[j] += F_old[i] * m[j, i]  for stored j

(a self-loop m[i, i] re-deposits part of the collected fluid at the source).
A vector-level update (VLU) delivers everything at once:

    H += F;  F = m @ F

Telescoping either rule gives the conservation identity

    F_n + (I - m) @ H_n == F_0          (exactly, at every step)

which is the module's master invariant, checked by the test suite.

Each step also splits the L1 mass that left F into two causes:

* contracted -- mass removed because the source column's absolute sum is
  below one (a column with absolute sum d keeps only d of what flows
  through it);
* cancelled -- mass lost when a deposit lands on fluid of the opposite
  sign, measured per receiving entry as |old| + |delta| - |old + delta|.
  This is the unique per-entry definition under which

    l1(F_before) - l1(F_after) == contracted + cancelled

  holds exactly. VLU steps compare, per target row, the sum of absolute
  incoming contributions against the absolute value of their sum, so
  source-vs-source overlap counts as cancellation too.

:func:`diffuse_coordinate` and :func:`diffuse_vector` are the per-step
engine, the reference for everything else. :func:`run_diffusion` drives
both kinds of run through compiled run functions (``_clu.c``), which
reproduce the engine bitwise in F, H and every loss and return the run's
trace rows a buffer at a time; without a compiler it runs the engine's own
steps, :func:`_coordinate_step` and :func:`_vector_step`, in the same loops.
A coordinate-level run keeps one trace row per window of steps.

The state and every row the engine records hold the exact l1(F), that is
``np.abs(F).sum()`` after the step. Only the coordinate-level driver, the
kernel's window loop, keeps a running residual, as a local between exact
recomputes (every n steps and whenever it reaches tol): its rows at windows
that do not end on a multiple of n steps carry that running total, which
drifts by roundoff.

The engine is thread-compatible, not thread-safe: a DiffusionState is owned
by one driver, while independent runs may share read-only matrices freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _clu
from .linalg import SparseColumnMatrix, UpdateSequence, as_vector

__all__ = [
    "TraceRecord",
    "DiffusionState",
    "StoppingRule",
    "DiffusionRun",
    "diffuse_coordinate",
    "diffuse_vector",
    "run_diffusion",
    "aggregate_sweeps",
]


class TraceRecord(NamedTuple):
    """Per-step measurement row; residual_l1 is the L1 norm of F after the step."""

    step: int
    residual_l1: float
    cancelled: float
    contracted: float


@dataclass(eq=False, slots=True)
class DiffusionState:
    """Paired fluid vectors (F, H) with a step counter, trace rows and loss totals.

    A row recorded by the per-step engine carries the exact l1(F) after its
    step, bitwise what :meth:`residual_l1` returns then. The totals add the
    losses of every step, also those of a trailing partial window that a
    windowed run keeps no row for. ``delivered`` counts the stored matrix
    entries that carried fluid, the paper's cost unit: a column's nnz for a
    coordinate step on nonzero fluid, all nnz for a vector step.
    """

    f: np.ndarray
    h: np.ndarray
    f0: np.ndarray
    step: int = 0
    trace: list[TraceRecord] = field(default_factory=list)
    total_cancelled: float = 0.0
    total_contracted: float = 0.0
    delivered: int = 0

    @classmethod
    def start(cls, f0) -> "DiffusionState":
        """Fresh state with F = f0 and H = 0; records the step-0 trace row."""
        f0 = as_vector(f0).copy()
        state = cls(f0.copy(), np.zeros_like(f0), f0)
        state.trace.append(TraceRecord(0, state.residual_l1(), 0.0, 0.0))
        return state

    def record(self, residual_l1: float, cancelled: float, contracted: float) -> None:
        """Append the row of the current step and add its losses to the totals."""
        self.total_cancelled += cancelled
        self.total_contracted += contracted
        self.trace.append(TraceRecord(self.step, residual_l1, cancelled, contracted))

    @property
    def n(self) -> int:
        return int(self.f.shape[0])

    def residual_l1(self) -> float:
        return float(np.abs(self.f).sum())

    def conservation_defect(self, m: SparseColumnMatrix) -> float:
        """l1(F + H - m@H - F_0); zero up to roundoff for a faithful run."""
        return float(np.abs(self.f + self.h - m.matvec(self.h) - self.f0).sum())


def _clamp(x: float) -> float:
    """max(0, x) that keeps NaN (Python's max(0.0, nan) is 0.0)."""
    return 0.0 if x <= 0.0 else x


def diffuse_coordinate(state: DiffusionState, m: SparseColumnMatrix, i: int) -> DiffusionState:
    """One coordinate-level update at source ``i``; mutates and returns state."""
    f = state.f
    if m.n != f.shape[0]:
        raise ValueError(f"matrix dimension {m.n} != state dimension {f.shape[0]}")
    if not 0 <= i < m.n:
        raise ValueError(f"coordinate {i} out of range for dimension {m.n}")

    state.step += 1
    rows, vals = m.column(i)
    losses = _coordinate_step(f.data, state.h.data, i, zip(rows.tolist(), vals.tolist()))
    abs_fl, cancelled, sum_delta = losses or (0.0, 0.0, 0.0)
    state.delivered += rows.shape[0] if losses else 0
    state.record(state.residual_l1(), cancelled, _clamp(abs_fl - sum_delta))
    return state


def _coordinate_step(f, h, i: int, column):
    """One coordinate-level update at ``i`` on memoryviews ``f`` and ``h`` of F and H.

    ``column`` yields column i's (row, value) pairs in stored order; each
    entry is one IEEE operation per quantity, as in ``_clu.c``, and both sums
    add the entries in that order. Returns None when F[i] is 0, else
    (|F[i]|, cancelled, sum |delta|).
    """
    fl = f[i]
    if fl == 0.0:
        return None
    h[i] += fl
    f[i] = 0.0
    cancelled = sum_delta = 0.0
    for r, v in column:
        old = f[r]
        delta = fl * v
        new = old + delta
        f[r] = new
        abs_delta = abs(delta)
        sum_delta += abs_delta
        # Per-entry overlap |old| + |delta| - |old + delta|: exactly zero where
        # the two share a sign, and never negative, because rounding is monotone.
        cancelled += abs(old) + abs_delta - abs(new)
    return abs(fl), cancelled, sum_delta


def diffuse_vector(state: DiffusionState, m: SparseColumnMatrix) -> DiffusionState:
    """One vector-level update; mutates and returns state."""
    f = state.f
    if m.n != f.shape[0]:
        raise ValueError(f"matrix dimension {m.n} != state dimension {f.shape[0]}")

    state.step += 1
    state.delivered += m.nnz
    state.record(*_vector_step(m, f, state.h))
    return state


def _vector_step(m: SparseColumnMatrix, f: np.ndarray, h: np.ndarray):
    """One vector-level update of F and H in place; returns (residual, cancelled, contracted)."""
    before_l1 = float(np.abs(f).sum())
    h += f
    # Scale every stored entry by the fluid at its column, then fold the
    # incoming contributions per target row.
    per_entry = m.vals * f[m.cols]
    new_f = np.bincount(m.rows, weights=per_entry, minlength=m.n)
    abs_in = np.bincount(m.rows, weights=np.abs(per_entry), minlength=m.n)
    abs_new = np.abs(new_f)
    new_l1 = float(abs_new.sum())
    arrived = float(abs_in.sum())

    # Per row: (sum_k |delta_jk|) - |sum_k delta_jk|, exactly zero where all
    # contributions share a sign and never negative (both folds perform the
    # same additions, and rounding is monotone).
    cancelled = float((abs_in - abs_new).sum())
    f[:] = new_f
    return new_l1, cancelled, _clamp(before_l1 - arrived)


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the residual L1 drops to ``tol`` or after ``max_steps`` steps.

    ``tol=None`` disables the residual test (fixed-length runs).
    """

    tol: float | None = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tol must be positive (or None)")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")


@dataclass
class DiffusionRun:
    """Final state of a driven diffusion plus how the run ended.

    ``status`` is "converged" (the recomputed l1(F) is at or below tol),
    "budget" (max_steps ran out first) or "non_finite" (l1(F) overflowed to
    inf or became NaN).
    """

    state: DiffusionState
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def trace(self) -> list[TraceRecord]:
        return self.state.trace

    @property
    def steps(self) -> int:
        return self.state.step


_STATUS = ("budget", "converged", "non_finite")  # run[2] of the run functions indexes this


def _status(residual: float, stop_at: float) -> int:
    """Index in _STATUS of the status an exact l1(F) implies; stop_at is tol, or -1 for none."""
    if not math.isfinite(residual):
        return 2
    return 1 if residual <= stop_at else 0


def run_diffusion(
    m: SparseColumnMatrix,
    f0,
    seq: UpdateSequence | None = None,
    stop: StoppingRule | None = None,
    every: int = 1,
) -> DiffusionRun:
    """Drive coordinate-level diffusion along ``seq``, or vector-level without one.

    A coordinate-level run keeps one trace row per ``every`` steps, the rows
    ``aggregate_sweeps`` would make of its per-step trace; vector-level runs
    keep every step. Never raises on non-convergence or overflow: the run
    comes back with ``status`` "budget" or "non_finite".
    """
    if every < 1:
        raise ValueError("every must be positive")
    if seq is None and every != 1:
        raise ValueError("vector-level runs record every step")
    if seq is not None and seq.n != m.n:
        raise ValueError(f"sequence dimension {seq.n} != matrix dimension {m.n}")
    stop = stop or StoppingRule()

    state = DiffusionState.start(as_vector(f0, m.n))
    stop_at = -1.0 if stop.tol is None else stop.tol
    status = _STATUS[_status(state.trace[0].residual_l1, stop_at)]
    if status == "budget":
        status = _run(state, m, stop, None if seq is None else seq.period(), every)
    return DiffusionRun(state, status)


def _bind(m: SparseColumnMatrix, state: DiffusionState, acc: np.ndarray, run: np.ndarray,
          order: np.ndarray | None = None, every: int = 1):
    """``steps(max_steps, stop_at) -> rows`` on ``m``, ``state``'s F and H, ``acc`` and ``run``.

    Coordinate-level along ``order`` with windows of ``every`` steps, else
    vector-level: the kernels of :mod:`._clu`, or :func:`_python_clu` and
    :func:`_python_vlu` without a compiler.
    """
    kernels = _clu.load()
    if kernels is None and order is None:
        return _python_vlu(m, state, acc, run)
    if kernels is None:
        return _python_clu(m, state, order.tolist(), every, acc, run)
    if order is None:
        return kernels.vlu(m.rows, m.cols, m.vals, state.f, state.h, acc, run)
    return kernels.clu(order, m.indptr, m.rows, m.vals, state.f, state.h, acc, run, every)


def _python_clu(m: SparseColumnMatrix, state: DiffusionState, order: list[int], every: int,
                acc: np.ndarray, run: np.ndarray):
    """``fluidsolve_clu_run``'s window loop on :func:`_coordinate_step`, in one call per run.

    The per-column tuples, built once per run, halve the cost of a step.
    """
    bounds, rows, vals = m.indptr.tolist(), m.rows.tolist(), m.vals.tolist()
    columns = [tuple(zip(rows[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    f, h, n, period = state.f.data, state.h.data, m.n, len(order)

    def steps(max_steps: int, stop_at: float) -> list:
        resid, win_c, win_k, total_c, total_k = acc.tolist()
        step, count, status = run.tolist()
        pos, out = step % period, []
        while status == 0 and step < max_steps:
            for _ in range(min(every - step % every, n - step % n, max_steps - step)):
                i = order[pos]
                pos = 0 if pos + 1 == period else pos + 1
                step += 1
                column = columns[i]
                losses = _coordinate_step(f, h, i, column)
                if losses is not None:
                    abs_fl, cancelled, sum_delta = losses
                    contracted = abs_fl - sum_delta
                    if contracted <= 0.0:  # _clamp, inlined: a call costs more than the test
                        contracted = 0.0
                    resid = resid - abs_fl + sum_delta - cancelled
                    if resid < 0.0:  # a NaN stays NaN for the exact check to catch
                        resid = 0.0
                    count += len(column)
                    total_c += cancelled
                    total_k += contracted
                    win_c += cancelled
                    win_k += contracted
                if resid <= stop_at:
                    break
            if resid <= stop_at or step % n == 0:
                resid = state.residual_l1()
                status = _status(resid, stop_at)
            if step % every == 0:
                out.append((resid, win_c, win_k))
                win_c = win_k = 0.0
        acc[:] = (resid, win_c, win_k, total_c, total_k)
        run[:] = (step, count, status)
        return out

    return steps


def _python_vlu(m: SparseColumnMatrix, state: DiffusionState, acc: np.ndarray, run: np.ndarray):
    """``fluidsolve_vlu_run`` as one :func:`_vector_step` per call."""

    def steps(max_steps: int, stop_at: float) -> list:
        row = _vector_step(m, state.f, state.h)
        acc[[0, 3, 4]] = row[0], acc[3] + row[1], acc[4] + row[2]
        run[:] = (run[0] + 1, run[1] + m.nnz, _status(row[0], stop_at))
        return [row]

    return steps


def _run(state: DiffusionState, m: SparseColumnMatrix, stop: StoppingRule,
         order: np.ndarray | None = None, every: int = 1) -> str:
    """Step ``state`` on by the run function of :func:`_bind`; return the status.

    Coordinate-level along ``order`` with a trace row per ``every`` steps,
    else vector-level with a row per step; rows are numbered on from those
    ``state`` holds. Each call updates F, H, the running residual, the
    window sums, the totals, the step and the nonzeros delivered in place,
    and returns a buffer of rows, appended here in step order. F, H, every
    loss and every exact residual are bitwise the per-step engine's (see
    ``_clu.c``). The running residual follows l1(F) - |fl| + sum|delta| -
    cancelled, the engine's update in exact arithmetic; a stretch stops once
    it reaches tol, and it is replaced by the exact ``np.abs(F).sum()`` then
    and every n steps. Only an exact value ends the run.
    """
    acc = np.array([state.trace[-1].residual_l1, 0.0, 0.0, state.total_cancelled,
                    state.total_contracted])
    run = np.array([state.step, state.delivered, 0], dtype=np.int64)
    steps = _bind(m, state, acc, run, order, every)
    stop_at = -1.0 if stop.tol is None else stop.tol
    trace, status = state.trace, "budget"
    while status == "budget" and state.step < stop.max_steps:
        rows = steps(stop.max_steps, stop_at)
        # row k is window (or step) k; tuple.__new__ is TraceRecord._make without a Python call
        steps_of = range(len(trace), len(trace) + len(rows))
        trace.extend(map(tuple.__new__, repeat(TraceRecord), zip(steps_of, *zip(*rows))))
        state.step, state.delivered, code = run.tolist()
        status = _STATUS[code]
    state.total_cancelled, state.total_contracted = acc[3:].tolist()
    return status


def aggregate_sweeps(trace: list[TraceRecord], every: int) -> list[TraceRecord]:
    """Downsample a per-step trace to every ``every``-th step.

    Row k reports the residual after k*every steps with cancelled/contracted
    summed over that window; a trailing partial window is dropped. Row 0 is
    passed through. This is the reporting convention for coordinate-level
    runs, where one "iteration" means n consecutive coordinate updates.
    """
    if every <= 0:
        raise ValueError("every must be positive")
    if not trace:
        return []
    out = [TraceRecord(0, trace[0].residual_l1, 0.0, 0.0)]
    for k, upper in enumerate(range(every, len(trace), every), start=1):
        window = trace[upper - every + 1 : upper + 1]
        out.append(
            TraceRecord(
                k,
                trace[upper].residual_l1,
                sum(r.cancelled for r in window),
                sum(r.contracted for r in window),
            )
        )
    return out
