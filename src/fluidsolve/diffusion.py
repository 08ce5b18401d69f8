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

The engine is thread-compatible, not thread-safe: a DiffusionState is owned
by one driver, while independent runs may share read-only matrices freely.
"""

from __future__ import annotations

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
    """Running totals of the two loss channels plus the per-step trace."""

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
    real arithmetic, assuming only the step functions mutate F);
    :meth:`residual_l1` always recomputes from scratch.
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
    state._resid_l1 = max(0.0, state._resid_l1 - abs(fluid) + float(abs_new.sum()) - float(abs_old.sum()))
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
    """Final state of a driven diffusion plus a convergence flag."""

    state: DiffusionState
    converged: bool

    @property
    def trace(self) -> list[TraceRecord]:
        return self.state.trace

    @property
    def steps(self) -> int:
        return self.state.step


def run_diffusion(
    m: SparseColumnMatrix,
    f0,
    mode: str = "vlu",
    seq: UpdateSequence | None = None,
    stop: StoppingRule | None = None,
) -> DiffusionRun:
    """Drive coordinate-level ("clu") or vector-level ("vlu") diffusion.

    Never raises on non-convergence: when max_steps runs out first, the run
    comes back with ``converged=False``.
    """
    if mode not in ("vlu", "clu"):
        raise ValueError(f"mode must be 'vlu' or 'clu', got {mode!r}")
    if mode == "clu":
        if seq is None:
            raise ValueError("coordinate-level runs need an update sequence")
        if seq.n != m.n:
            raise ValueError(f"sequence dimension {seq.n} != matrix dimension {m.n}")
    elif seq is not None:
        raise ValueError("vector-level runs take no update sequence")
    stop = stop or StoppingRule()

    state = DiffusionState.start(as_vector(f0, m.n))
    residual = state.trace[-1].residual_l1
    if stop.tol is not None and residual <= stop.tol:
        return DiffusionRun(state, True)

    indices = seq.iter_indices() if mode == "clu" else None
    converged = False
    while state.step < stop.max_steps:
        if mode == "clu":
            diffuse_coordinate(state, m, next(indices))
        else:
            diffuse_vector(state, m)
        if stop.tol is not None and state.trace[-1].residual_l1 <= stop.tol:
            converged = True
            break
    return DiffusionRun(state, converged)


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
