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

A trace is one record array of :data:`TRACE_DTYPE` rows (step, residual_l1,
cancelled, contracted), 32 bytes a row once a run ends: an item is an
``np.record`` and ``rows.residual_l1`` is the residual column. A windowed
run's trace grows by 32 bytes per window, and an ``every=1`` run's by 32
bytes per step. The run functions' buffers of rows are copied into that
array whole and numbered on from its row count, so row k of a run is step
(or window) k; a row the engine records carries ``state.step``.

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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _clu
from .linalg import SparseColumnMatrix, UpdateSequence, as_vector

__all__ = [
    "DiffusionState",
    "StoppingRule",
    "DiffusionRun",
    "diffuse_coordinate",
    "diffuse_vector",
    "run_diffusion",
    "aggregate_sweeps",
]


TRACE_DTYPE = np.dtype([("step", np.int64), ("residual_l1", np.float64),
                        ("cancelled", np.float64), ("contracted", np.float64)])


class _Trace(Sequence):
    """A state's trace: its rows live in one record array of :data:`TRACE_DTYPE`.

    The array grows by doubling, 32 bytes a row once :meth:`trim` drops the
    spare capacity. Length, indexing, iteration and ``np.asarray`` read
    :attr:`rows`: an item is an ``np.record`` with fields step, residual_l1,
    cancelled and contracted, and a slice is a record array.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self):
        self._buf = np.recarray(16, TRACE_DTYPE)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        return self.rows[k]

    def __iter__(self):
        return iter(self.rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.rows, dtype, copy=copy)

    @property
    def rows(self) -> np.recarray:
        """The record array of rows, a view that the next append may leave behind."""
        return self._buf[:self._len]

    def _reserve(self, count: int) -> int:
        """Make room for ``count`` more rows; return the index of the first."""
        start = self._len
        if start + count > len(self._buf):
            grown = np.recarray(max(2 * len(self._buf), start + count), TRACE_DTYPE)
            grown[:start] = self._buf[:start]
            self._buf = grown
        self._len = start + count
        return start

    def append(self, step: int, residual_l1: float, cancelled: float, contracted: float) -> None:
        k = self._reserve(1)  # before self._buf is read: it may replace the buffer
        self._buf[k] = step, residual_l1, cancelled, contracted

    def extend(self, values: np.ndarray) -> None:
        """Append a (k, 3) array of [residual_l1, cancelled, contracted] rows as steps len, len + 1, ..."""
        start = self._reserve(len(values))
        block = self._buf[start:self._len]
        block.step = np.arange(start, self._len)
        block.residual_l1, block.cancelled, block.contracted = values.T

    def trim(self) -> None:
        """Drop the spare capacity."""
        if self._len < len(self._buf):
            self._buf = self._buf[:self._len].copy()


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
    trace: _Trace = field(default_factory=_Trace)
    total_cancelled: float = 0.0
    total_contracted: float = 0.0
    delivered: int = 0

    @classmethod
    def start(cls, f0) -> "DiffusionState":
        """Fresh state with F = f0 and H = 0; records the step-0 trace row."""
        f0 = as_vector(f0).copy()
        state = cls(f0.copy(), np.zeros_like(f0), f0)
        state.trace.append(0, state.residual_l1(), 0.0, 0.0)
        return state

    def record(self, residual_l1: float, cancelled: float, contracted: float) -> None:
        """Append the row of step ``self.step`` and add its losses to the totals."""
        self.total_cancelled += cancelled
        self.total_contracted += contracted
        self.trace.append(self.step, residual_l1, cancelled, contracted)

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
    """One coordinate-level update at source ``i``; mutates and returns state.

    The row it records carries the step count ``state.step``. On a state that a
    windowed :func:`run_diffusion` left, whose rows are numbered by window,
    that number is not the row's index.
    """
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
    """One vector-level update; mutates and returns state (its row carries ``state.step``)."""
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
    per_entry = m.vals * m._per_entry(f)
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
    def trace(self) -> _Trace:
        """The state's trace; ``trace.rows`` is its record array, ``rows.residual_l1`` a column."""
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
    status = _STATUS[_status(state.trace.rows.residual_l1[0], stop_at)]
    if status == "budget":
        status = _run(state, m, stop, None if seq is None else seq.period(), every)
    return DiffusionRun(state, status)


def _bind(m: SparseColumnMatrix, state: DiffusionState, order: np.ndarray | None = None,
          every: int = 1, snap: np.ndarray | None = None):
    """``(steps, acc, run)``: ``steps(max_steps, stop_at) -> rows`` steps ``state`` on ``m``.

    Coordinate-level along ``order`` with windows of ``every`` steps, else
    vector-level: the kernels of :mod:`._clu`, or :func:`_python_clu` and
    :func:`_python_vlu` without a compiler. ``snap`` is the optional
    snapshot buffer of F and H that :mod:`._clu` describes. F and H are
    ``state``'s; the rest of the run's state, which ``steps`` reads and
    updates in place, is

    * ``acc``, float64: [residual, window cancelled, window contracted,
      total cancelled, total contracted], from the residual of ``state``'s
      last row, empty window sums and ``state``'s totals;
    * ``run``, int64: [step, delivered, status], from ``state``'s step and
      delivered count and status 0, an index of ``_STATUS``.
    """
    acc = np.array([state.trace.rows.residual_l1[-1], 0.0, 0.0, state.total_cancelled, state.total_contracted])
    run = np.array([state.step, state.delivered, 0], dtype=np.int64)
    lib = _clu.load()
    if lib is not None:
        steps = _clu.bind(lib, order, m.indptr, m.rows, m.vals, state.f, state.h, acc, run, every, snap)
    elif order is None:
        steps = _python_vlu(m, state, acc, run, snap)
    else:
        steps = _python_clu(m, state, order.tolist(), every, acc, run, snap)
    return steps, acc, run


def _python_clu(m: SparseColumnMatrix, state: DiffusionState, order: list[int], every: int,
                acc: np.ndarray, run: np.ndarray, snap: np.ndarray | None = None):
    """``fluidsolve_clu_run``'s window loop on :func:`_coordinate_step`.

    The per-column tuples, built once per run, halve the cost of a step.
    """
    bounds, rows, vals = m.indptr.tolist(), m.rows.tolist(), m.vals.tolist()
    columns = [tuple(zip(rows[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    f, h, n, period = state.f.data, state.h.data, m.n, len(order)
    out = _clu.rows_buffer(snap, n)

    def steps(max_steps: int, stop_at: float) -> np.ndarray:
        resid, win_c, win_k, total_c, total_k = acc.tolist()
        step, count = run[:2].tolist()
        pos, status, written = step % period, 0, 0
        while status == 0 and step < max_steps and written < len(out):
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
                if snap is not None:
                    snap[written] = state.f, state.h
                out[written] = resid, win_c, win_k
                written += 1
                win_c = win_k = 0.0
        acc[:] = (resid, win_c, win_k, total_c, total_k)
        run[:] = (step, count, status)
        return out[:written]

    return steps


def _python_vlu(m: SparseColumnMatrix, state: DiffusionState, acc: np.ndarray, run: np.ndarray,
                snap: np.ndarray | None = None):
    """``fluidsolve_vlu_run``'s loop on :func:`_vector_step`."""
    out = _clu.rows_buffer(snap, m.n)

    def steps(max_steps: int, stop_at: float) -> np.ndarray:
        resid, total_c, total_k = acc[[0, 3, 4]].tolist()
        step, count = run[:2].tolist()
        status = written = 0
        while status == 0 and step < max_steps and written < len(out):
            resid, cancelled, contracted = _vector_step(m, state.f, state.h)
            if snap is not None:
                snap[written] = state.f, state.h
            out[written] = resid, cancelled, contracted
            written += 1
            step += 1
            count += m.nnz
            total_c += cancelled
            total_k += contracted
            status = _status(resid, stop_at)
        acc[[0, 3, 4]] = resid, total_c, total_k
        run[:] = (step, count, status)
        return out[:written]

    return steps


def _run(state: DiffusionState, m: SparseColumnMatrix, stop: StoppingRule,
         order: np.ndarray | None = None, every: int = 1) -> str:
    """Step ``state`` on by the run function of :func:`_bind`; return the status.

    Coordinate-level along ``order`` with a trace row per ``every`` steps,
    else vector-level with a row per step; rows are numbered on from those
    ``state`` holds. Each call updates F, H, the running residual, the
    window sums, the totals, the step and the nonzeros delivered in place,
    and returns a buffer of rows, copied here into the trace in one slice
    assignment; the trace is trimmed to its length at the end. F, H, every
    loss and every exact residual are bitwise the per-step engine's (see
    ``_clu.c``). The running residual follows l1(F) - |fl| + sum|delta| -
    cancelled, the engine's update in exact arithmetic; a stretch stops once
    it reaches tol, and it is replaced by the exact ``np.abs(F).sum()`` then
    and every n steps. Only an exact value ends the run.
    """
    trace = state.trace
    steps, acc, run = _bind(m, state, order, every)
    stop_at = -1.0 if stop.tol is None else stop.tol
    status = "budget"
    while status == "budget" and state.step < stop.max_steps:
        trace.extend(steps(stop.max_steps, stop_at))
        state.step, state.delivered, code = run.tolist()
        status = _STATUS[code]
    trace.trim()
    state.total_cancelled, state.total_contracted = acc[3:].tolist()
    return status


def aggregate_sweeps(trace, every: int) -> np.recarray:
    """Downsample a per-step trace, a run's or a list of 4-tuples, to every ``every``-th step.

    Row k reports the residual after k*every steps with cancelled/contracted
    summed over that window in step order; a trailing partial window is
    dropped. Row 0 is passed through. This is the reporting convention for
    coordinate-level runs, where one "iteration" means n consecutive
    coordinate updates. Returns a record array, as a run's ``trace.rows``.
    """
    if every <= 0:
        raise ValueError("every must be positive")
    rows, out = np.asarray(trace, TRACE_DTYPE), _Trace()
    if len(rows):
        resid, cancelled, contracted = (rows[name].tolist() for name in TRACE_DTYPE.names[1:])
        out.append(0, resid[0], 0.0, 0.0)
        for k, upper in enumerate(range(every, len(rows), every), start=1):
            window = slice(upper - every + 1, upper + 1)
            out.append(k, resid[upper], sum(cancelled[window]), sum(contracted[window]))
    out.trim()
    return out.rows
