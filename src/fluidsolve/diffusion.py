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
vector-level runs through :func:`diffuse_vector` and coordinate-level runs
through a scalar loop that reproduces :func:`diffuse_coordinate` bitwise in
F and H, keeping one trace row per window of steps.

The engine is thread-compatible, not thread-safe: a DiffusionState is owned
by one driver, while independent runs may share read-only matrices freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import SparseColumnMatrix, UpdateSequence, as_vector

__all__ = [
    "TraceRecord",
    "MetricAccumulator",
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


@dataclass
class MetricAccumulator:
    """Running totals of the two loss channels plus the trace rows."""

    total_contracted: float = 0.0
    total_cancelled: float = 0.0
    per_step: list[TraceRecord] = field(default_factory=list)

    def record(self, step: int, residual_l1: float, cancelled: float, contracted: float) -> None:
        self.total_cancelled += cancelled
        self.total_contracted += contracted
        self.per_step.append(TraceRecord(step, residual_l1, cancelled, contracted))


class DiffusionState:
    """Paired fluid vectors (F, H) with a step counter and metric accumulators.

    Trace rows carry an incrementally tracked residual L1 (cheap and exact in
    real arithmetic, assuming only the step functions mutate F, but it drifts
    by roundoff); :meth:`residual_l1` always recomputes from scratch.
    """

    __slots__ = ("f", "h", "f0", "step", "metrics", "_resid_l1")

    def __init__(self, f: np.ndarray, h: np.ndarray, f0: np.ndarray, step: int, metrics: MetricAccumulator):
        self.f = f
        self.h = h
        self.f0 = f0
        self.step = step
        self.metrics = metrics
        self._resid_l1 = float(np.abs(f).sum())

    @classmethod
    def start(cls, f0) -> "DiffusionState":
        """Fresh state with F = f0 and H = 0; records the step-0 trace row."""
        f0 = as_vector(f0).copy()
        state = cls(f0.copy(), np.zeros_like(f0), f0, 0, MetricAccumulator())
        state.metrics.per_step.append(TraceRecord(0, state._resid_l1, 0.0, 0.0))
        return state

    @property
    def n(self) -> int:
        return int(self.f.shape[0])

    def residual_l1(self) -> float:
        return float(np.abs(self.f).sum())

    def conservation_defect(self, m: SparseColumnMatrix) -> float:
        """l1(F + H - m@H - F_0); zero up to roundoff for a faithful run."""
        return float(np.abs(self.f + self.h - m.matvec(self.h) - self.f0).sum())

    @property
    def trace(self) -> list[TraceRecord]:
        return self.metrics.per_step


def diffuse_coordinate(state: DiffusionState, m: SparseColumnMatrix, i: int) -> DiffusionState:
    """One coordinate-level update at source ``i``; mutates and returns state."""
    f = state.f
    if m.n != f.shape[0]:
        raise ValueError(f"matrix dimension {m.n} != state dimension {f.shape[0]}")
    if not 0 <= i < m.n:
        raise ValueError(f"coordinate {i} out of range for dimension {m.n}")

    state.step += 1
    fluid = float(f[i])
    if fluid == 0.0:
        state.metrics.record(state.step, state._resid_l1, 0.0, 0.0)
        return state

    state.h[i] += fluid
    f[i] = 0.0
    rows, vals = m.column(i)
    delta = fluid * vals
    old = f[rows]  # post-removal values at the receiving coordinates
    new = old + delta
    abs_old = np.abs(old)
    abs_delta = np.abs(delta)
    abs_new = np.abs(new)
    f[rows] = new

    # Per-entry overlap |old| + |delta| - |old + delta|; exactly zero (not
    # just tiny) wherever the two operands share a sign.
    cancelled = float(np.maximum(abs_old + abs_delta - abs_new, 0.0).sum())
    sum_delta = float(abs_delta.sum())
    contracted = max(0.0, abs(fluid) - sum_delta)
    resid = state._resid_l1 - abs(fluid) + float(abs_new.sum()) - float(abs_old.sum())
    state._resid_l1 = 0.0 if resid < 0.0 else resid  # not max(0.0, .): that maps NaN to 0
    state.metrics.record(state.step, state._resid_l1, cancelled, contracted)
    return state


def diffuse_vector(state: DiffusionState, m: SparseColumnMatrix) -> DiffusionState:
    """One vector-level update; mutates and returns state."""
    f = state.f
    if m.n != f.shape[0]:
        raise ValueError(f"matrix dimension {m.n} != state dimension {f.shape[0]}")

    state.step += 1
    state.h += f
    # Scale every stored entry by the fluid at its column, then fold the
    # incoming contributions per target row.
    per_entry = m.vals * f[m.cols]
    new_f = np.bincount(m.rows, weights=per_entry, minlength=m.n)
    abs_in = np.bincount(m.rows, weights=np.abs(per_entry), minlength=m.n)
    new_l1 = float(np.abs(new_f).sum())
    delivered = float(abs_in.sum())

    # Per row: (sum_k |delta_jk|) - |sum_k delta_jk|, exactly zero where all
    # contributions share a sign (both folds perform the same additions).
    cancelled = float(np.maximum(abs_in - np.abs(new_f), 0.0).sum())
    contracted = max(0.0, state._resid_l1 - delivered)
    state.f = new_f
    state._resid_l1 = new_l1
    state.metrics.record(state.step, new_l1, cancelled, contracted)
    return state


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the residual L1 drops to ``tol`` or after ``max_steps`` steps.

    ``tol=None`` disables the residual test (fixed-length runs).
    """

    tol: float | None = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.tol is not None and self.tol <= 0.0:
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


def _status(residual: float, tol: float | None) -> str:
    """Status implied by an exact l1(F): "budget" means keep going."""
    if not math.isfinite(residual):
        return "non_finite"
    if tol is not None and residual <= tol:
        return "converged"
    return "budget"


def run_diffusion(
    m: SparseColumnMatrix,
    f0,
    mode: str = "vlu",
    seq: UpdateSequence | None = None,
    stop: StoppingRule | None = None,
    every: int = 1,
) -> DiffusionRun:
    """Drive coordinate-level ("clu") or vector-level ("vlu") diffusion.

    A coordinate-level run keeps one trace row per ``every`` steps, the rows
    ``aggregate_sweeps`` would make of its per-step trace; vector-level runs
    keep every step. Never raises on non-convergence or overflow: the run
    comes back with ``status`` "budget" or "non_finite".
    """
    if mode not in ("vlu", "clu"):
        raise ValueError(f"mode must be 'vlu' or 'clu', got {mode!r}")
    if every < 1:
        raise ValueError("every must be positive")
    if mode == "clu":
        if seq is None:
            raise ValueError("coordinate-level runs need an update sequence")
        if seq.n != m.n:
            raise ValueError(f"sequence dimension {seq.n} != matrix dimension {m.n}")
    else:
        if seq is not None:
            raise ValueError("vector-level runs take no update sequence")
        if every != 1:
            raise ValueError("vector-level runs record every step")
    stop = stop or StoppingRule()

    state = DiffusionState.start(as_vector(f0, m.n))
    status = _status(state.residual_l1(), stop.tol)
    if status != "budget":
        return DiffusionRun(state, status)
    if mode == "clu":
        return DiffusionRun(state, _run_clu(state, m, seq, stop, every))
    while state.step < stop.max_steps:
        diffuse_vector(state, m)
        status = _status(state._resid_l1, stop.tol)
        if status != "budget":
            break
    return DiffusionRun(state, status)


def _run_clu(state: DiffusionState, m: SparseColumnMatrix, seq: UpdateSequence,
             stop: StoppingRule, every: int) -> str:
    """Coordinate-level steps on Python floats; mutates ``state``, returns the status.

    F and H are copied to lists and the matrix to per-column (row, value)
    tuples, once per run. Each step performs the IEEE operations of
    :func:`diffuse_coordinate` entry by entry, so F and H end bitwise equal
    to that many calls. The per-step sums (cancelled, contracted) add
    entries in column order, where numpy adds 8 or more pairwise, so they
    may differ in the last bits. The running residual follows
    l1(F) - |fl| + sum|delta| - cancelled, the engine's update in exact
    arithmetic; it is replaced by the exact ``np.abs(F).sum()`` every n
    steps and whenever it reaches tol, and only an exact value ends the run.
    """
    n = m.n
    stop_at = -1.0 if stop.tol is None else stop.tol
    f, h = state.f.tolist(), state.h.tolist()
    rows, vals = m.rows.tolist(), m.vals.tolist()
    bounds = m.indptr.tolist()
    columns = [tuple(zip(rows[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    metrics = state.metrics
    trace = metrics.per_step
    total_c, total_k = metrics.total_cancelled, metrics.total_contracted
    win_c = win_k = 0.0
    resid = state._resid_l1
    status = "budget"
    step = state.step
    for i in itertools.islice(seq.iter_indices(), max(0, stop.max_steps - step)):
        step += 1
        fl = f[i]
        if fl != 0.0:
            h[i] += fl
            f[i] = 0.0
            cancelled = sum_delta = 0.0
            for r, v in columns[i]:
                old = f[r]
                delta = fl * v
                new = old + delta
                f[r] = new
                abs_delta = abs(delta)
                sum_delta += abs_delta
                # rounding is monotone, so this overlap is never negative
                cancelled += abs(old) + abs_delta - abs(new)
            abs_fl = abs(fl)
            contracted = max(0.0, abs_fl - sum_delta)
            resid = resid - abs_fl + sum_delta - cancelled
            if resid < 0.0:  # a NaN stays NaN for the exact check to catch
                resid = 0.0
            total_c += cancelled
            total_k += contracted
            win_c += cancelled
            win_k += contracted
        if resid <= stop_at or step % n == 0:
            resid = float(np.abs(np.array(f)).sum())
            status = _status(resid, stop.tol)
        if step % every == 0:
            trace.append(TraceRecord(step // every, resid, win_c, win_k))
            win_c = win_k = 0.0
        if status != "budget":
            break
    state.f, state.h = np.array(f), np.array(h)
    state.step, state._resid_l1 = step, resid
    metrics.total_cancelled, metrics.total_contracted = total_c, total_k
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
