"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The recorder wraps public functions of the program from the outside: it
finds each function object through a name exported by ``fluidsolve`` or
``fluidsolve.cli`` and replaces every binding of that object in the loaded
``fluidsolve.*`` modules, so each caller's lookup hits the wrapper (for
example both ``fluidsolve.diffusion.run_diffusion`` and the copy that
``fluidsolve.cli`` imported). Methods are replaced on their class.

Two kinds of wrapper:

* span -- one record per call (name, start, end, parent), kept in memory and
  written out at the end; self time is the duration minus child spans and
  folded calls.
* folded -- per-step functions (``diffuse_coordinate``, ``diffuse_vector``,
  ``step_*``, ``matvec``) called up to millions of times. Only a count and
  busy total per (parent span, name) are kept, so memory stays bounded.
"""

from __future__ import annotations

import json
import os
import sys
import time

SCHEMES = ("PI", "GSl", "Jac", "GSa")

# (span name, exported by, public name)
SPAN_FUNCTIONS = [
    ("io.read_matrix_market", "fluidsolve", "read_matrix_market"),
    ("io.write_trace_csv", "fluidsolve", "write_trace_csv"),
    ("diffusion.run_diffusion", "fluidsolve", "run_diffusion"),
    ("diffusion.aggregate_sweeps", "fluidsolve", "aggregate_sweeps"),
    ("equivalence.pagerank_decompose", "fluidsolve", "pagerank_decompose"),
    ("equivalence.pagerank_matrix", "fluidsolve", "pagerank_matrix"),
    ("equivalence.verify_equivalence", "fluidsolve", "verify_equivalence"),
    ("cases.load_case", "fluidsolve", "load_case"),
    ("cli.diffusion_form", "fluidsolve.cli", "diffusion_form"),
    ("cli.run_experiment", "fluidsolve.cli", "run_experiment"),
    ("cli.run_verification", "fluidsolve.cli", "run_verification"),
    ("cli.cancellation_report", "fluidsolve.cli", "cancellation_report"),
]
# (span name, exported class, method)
SPAN_METHODS = [
    ("linalg.from_entries", "SparseColumnMatrix", "from_entries"),
    ("linalg.from_dense", "SparseColumnMatrix", "from_dense"),
    ("linalg.scaled", "SparseColumnMatrix", "scaled"),
    ("schemes.RowView", "RowView", "__init__"),
]
FOLDED_FUNCTIONS = [
    ("diffusion.clu", "diffuse_coordinate"),
    ("diffusion.vlu", "diffuse_vector"),
    ("schemes.step", "step_pi"),
    ("schemes.step", "step_gsl"),
    ("schemes.step", "step_jacobi"),
    ("schemes.step", "step_gsa"),
]
FOLDED_METHODS = [("linalg.matvec", "SparseColumnMatrix", "matvec")]

# Computed (not measured) cost model of one VLU step on an n x n matrix with
# nnz stored entries: each stored entry is read once (value, row and column
# index, 8 B each) and gathers one F entry; F is read and H read and written
# once, the new F written once. Flops: a multiply and an add per entry for
# F, an abs and an add for the cancellation fold; per row, the H update and
# the residual and cancellation reductions.
VLU_BYTES_PER_NNZ, VLU_BYTES_PER_ROW = 32, 32
VLU_FLOPS_PER_NNZ, VLU_FLOPS_PER_ROW = 4, 4

# Per-layer metrics reported by a traced run: (name, unit, better).
LAYER_METRICS = [
    ("io.read_matrix_market.self_s", "s", "lower"),
    ("io.read_matrix_market.ns_per_nnz", "ns", "lower"),
    ("io.bytes_read", "B", "lower"),
    ("io.write_trace_csv.s", "s", "lower"),
    ("io.write_trace_csv.rows", "count", "lower"),
    ("linalg.from_entries.s", "s", "lower"),
    ("linalg.from_entries.ns_per_nnz", "ns", "lower"),
    ("linalg.scaled.s", "s", "lower"),
    ("linalg.matvec.calls", "count", "lower"),
    ("linalg.matvec.s", "s", "lower"),
    ("linalg.from_dense.s", "s", "lower"),
    ("diffusion.run_diffusion.s", "s", "lower"),
    ("diffusion.run_diffusion.self_s", "s", "lower"),
    ("diffusion.clu.calls", "count", "lower"),
    ("diffusion.clu.s", "s", "lower"),
    ("diffusion.clu.ns_per_nnz", "ns", "lower"),
    ("diffusion.clu.useful_ratio", "ratio", "higher"),
    ("diffusion.vlu.calls", "count", "lower"),
    ("diffusion.vlu.s", "s", "lower"),
    ("diffusion.vlu.ns_per_nnz", "ns", "lower"),
    ("diffusion.vlu.bytes_per_step_computed", "B", "lower"),
    ("diffusion.vlu.flops_per_byte_computed", "flop/B", "higher"),
    ("diffusion.aggregate_sweeps.s", "s", "lower"),
    *((f"diffusion.sweeps.{s}", "sweeps", "lower") for s in SCHEMES),
    *((f"diffusion.nnz_delivered.{s}", "count", "lower") for s in SCHEMES),
    *((f"diffusion.trace_rows.{s}", "count", "lower") for s in SCHEMES),
    *((f"diffusion.residual_gap.{s}", "l1", "lower") for s in SCHEMES),
    ("schemes.step.calls", "count", "lower"),
    ("schemes.step.s", "s", "lower"),
    ("schemes.RowView.s", "s", "lower"),
    ("equivalence.pagerank_decompose.s", "s", "lower"),
    ("equivalence.verify_equivalence.s", "s", "lower"),
    ("equivalence.verify_equivalence.steps", "count", "lower"),
    ("equivalence.pagerank_matrix.s", "s", "lower"),
    ("cases.load_case.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.diffusion_form.s", "s", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("cli.run_verification.self_s", "s", "lower"),
    ("cli.cancellation_report.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_ns")

    def __init__(self, span_id, parent, name, start):
        self.id, self.parent, self.name, self.start = span_id, parent, name, start
        self.end = None
        self.child_ns = 0


class Recorder:
    """Spans, folded per-step tallies and work counters of one traced process."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._fold_depth = 0
        self.folded: dict[tuple[str, str], list[int]] = {}  # (parent, name) -> [calls, ns]
        self.counters: dict[str, float] = {}
        self.scheme: str | None = None  # set by child.py around each run_experiment

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            node = _Span(len(self.spans), parent.id if parent else None, name, time.perf_counter_ns())
            self.spans.append(node)
            self._stack.append(node)
            try:
                result = fn(*args, **kwargs)
            finally:
                node.end = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent.child_ns += node.end - node.start
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def fold(self, name, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self._fold_depth += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._fold_depth -= 1
                parent = self._stack[-1] if self._stack else None
                tally = self.folded.setdefault((parent.name if parent else "", name), [0, 0])
                tally[0] += 1
                tally[1] += elapsed
                # A folded call inside another folded call is already
                # inside the outer one's time.
                if parent is not None and self._fold_depth == 0:
                    parent.child_ns += elapsed

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import fluidsolve
        import fluidsolve.cli

        exported = {"fluidsolve": fluidsolve, "fluidsolve.cli": fluidsolve.cli}
        hooks = self._hooks()
        for name, where, attr in SPAN_FUNCTIONS:
            fn = getattr(exported[where], attr)
            _rebind(fn, self.span(name, fn, hooks.get(name)))
        for name, attr in FOLDED_FUNCTIONS:
            fn = getattr(fluidsolve, attr)
            _rebind(fn, self.fold(name, fn, hooks.get(name)))
        for name, cls_name, attr in SPAN_METHODS + FOLDED_METHODS:
            cls = getattr(fluidsolve, cls_name)
            raw = cls.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrap = self.fold if (name, cls_name, attr) in FOLDED_METHODS else self.span
            wrapped = wrap(name, fn, hooks.get(name))
            setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def _hooks(self):
        def read_mm(result, path, *args, **kwargs):
            self.count("io.bytes_read", os.path.getsize(path))
            self.count("io.read_matrix_market.nnz", result.nnz)

        def from_entries(result, *args, **kwargs):
            self.count("linalg.from_entries.nnz", result.nnz)

        def write_csv(result, path, records, *args, **kwargs):
            self.count("io.write_trace_csv.rows", len(records))

        def verify(result, *args, **kwargs):
            self.count("equivalence.verify_equivalence.steps", result.steps)

        def clu(state, m, i, *args, **kwargs):
            if state.f[i] != 0.0:
                nnz = m.col_nnz(i)
                self.count("diffusion.clu.useful")
                self.count("diffusion.clu.nnz", nnz)
                if self.scheme is not None:
                    self.count(f"diffusion.nnz_delivered.{self.scheme}", nnz)

        def vlu(state, m, *args, **kwargs):
            self.count("diffusion.vlu.nnz", m.nnz)
            self.count("diffusion.vlu.rows", m.n)
            if self.scheme is not None:
                self.count(f"diffusion.nnz_delivered.{self.scheme}", m.nnz)

        return {
            "io.read_matrix_market": read_mm,
            "linalg.from_entries": from_entries,
            "io.write_trace_csv": write_csv,
            "equivalence.verify_equivalence": verify,
            "diffusion.clu": clu,
            "diffusion.vlu": vlu,
        }

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per name: calls, busy ns and self ns, spans and folded calls alike."""
        out: dict[str, dict[str, int]] = {}
        for node in self.spans:
            if node.end is None:
                continue
            t = out.setdefault(node.name, {"calls": 0, "ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["ns"] += node.end - node.start
            t["self_ns"] += node.end - node.start - node.child_ns
        for (_, name), (calls, ns) in self.folded.items():
            t = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            t["calls"] += calls
            t["ns"] += ns
            t["self_ns"] += ns
        return out

    def dump(self, path) -> None:
        """Write every span and folded tally as JSON."""
        spans = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start_ns": s.start,
             "end_ns": s.end, "self_ns": None if s.end is None else s.end - s.start - s.child_ns}
            for s in self.spans
        ]
        folded = [{"parent": p, "name": n, "calls": c, "ns": ns} for (p, n), (c, ns) in self.folded.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "folded": folded, "counters": self.counters}, fh)

    def layer_metrics(self, import_s: float, runs: dict) -> dict[str, float]:
        """Every LAYER_METRICS value except trace.overhead_s, which needs an untraced run.

        ``runs`` maps scheme -> {"sweeps", "trace_rows", "residual_gap"}, taken
        from the program's results; layers that did not run report 0.
        """
        tot = self.totals()
        c = self.counters

        def sec(name, key="ns"):
            return tot.get(name, {}).get(key, 0) / 1e9

        def per(num_ns, denom):
            return num_ns / denom if denom else 0.0

        def calls(name):
            return tot.get(name, {}).get("calls", 0)

        vlu_steps = calls("diffusion.vlu")
        vlu_bytes = per(VLU_BYTES_PER_NNZ * c.get("diffusion.vlu.nnz", 0)
                        + VLU_BYTES_PER_ROW * c.get("diffusion.vlu.rows", 0), vlu_steps)
        vlu_flops = per(VLU_FLOPS_PER_NNZ * c.get("diffusion.vlu.nnz", 0)
                        + VLU_FLOPS_PER_ROW * c.get("diffusion.vlu.rows", 0), vlu_steps)
        m = {
            "io.read_matrix_market.self_s": sec("io.read_matrix_market", "self_ns"),
            "io.read_matrix_market.ns_per_nnz": per(tot.get("io.read_matrix_market", {}).get("self_ns", 0),
                                                    c.get("io.read_matrix_market.nnz", 0)),
            "io.bytes_read": c.get("io.bytes_read", 0),
            "io.write_trace_csv.s": sec("io.write_trace_csv"),
            "io.write_trace_csv.rows": c.get("io.write_trace_csv.rows", 0),
            "linalg.from_entries.s": sec("linalg.from_entries"),
            "linalg.from_entries.ns_per_nnz": per(tot.get("linalg.from_entries", {}).get("ns", 0),
                                                  c.get("linalg.from_entries.nnz", 0)),
            "linalg.scaled.s": sec("linalg.scaled"),
            "linalg.matvec.calls": calls("linalg.matvec"),
            "linalg.matvec.s": sec("linalg.matvec"),
            "linalg.from_dense.s": sec("linalg.from_dense"),
            "diffusion.run_diffusion.s": sec("diffusion.run_diffusion"),
            "diffusion.run_diffusion.self_s": sec("diffusion.run_diffusion", "self_ns"),
            "diffusion.clu.calls": calls("diffusion.clu"),
            "diffusion.clu.s": sec("diffusion.clu"),
            "diffusion.clu.ns_per_nnz": per(tot.get("diffusion.clu", {}).get("ns", 0), c.get("diffusion.clu.nnz", 0)),
            "diffusion.clu.useful_ratio": per(c.get("diffusion.clu.useful", 0), calls("diffusion.clu")),
            "diffusion.vlu.calls": vlu_steps,
            "diffusion.vlu.s": sec("diffusion.vlu"),
            "diffusion.vlu.ns_per_nnz": per(tot.get("diffusion.vlu", {}).get("ns", 0), c.get("diffusion.vlu.nnz", 0)),
            "diffusion.vlu.bytes_per_step_computed": vlu_bytes,
            "diffusion.vlu.flops_per_byte_computed": per(vlu_flops, vlu_bytes),
            "diffusion.aggregate_sweeps.s": sec("diffusion.aggregate_sweeps"),
            "schemes.step.calls": calls("schemes.step"),
            "schemes.step.s": sec("schemes.step"),
            "schemes.RowView.s": sec("schemes.RowView"),
            "equivalence.pagerank_decompose.s": sec("equivalence.pagerank_decompose"),
            "equivalence.verify_equivalence.s": sec("equivalence.verify_equivalence"),
            "equivalence.verify_equivalence.steps": c.get("equivalence.verify_equivalence.steps", 0),
            "equivalence.pagerank_matrix.s": sec("equivalence.pagerank_matrix"),
            "cases.load_case.s": sec("cases.load_case"),
            "cli.import_s": import_s,
            "cli.diffusion_form.s": sec("cli.diffusion_form"),
            "cli.run_experiment.self_s": sec("cli.run_experiment", "self_ns"),
            "cli.run_verification.self_s": sec("cli.run_verification", "self_ns"),
            "cli.cancellation_report.self_s": sec("cli.cancellation_report", "self_ns"),
        }
        for s in SCHEMES:
            run = runs.get(s, {})
            m[f"diffusion.sweeps.{s}"] = run.get("sweeps", 0)
            m[f"diffusion.nnz_delivered.{s}"] = c.get(f"diffusion.nnz_delivered.{s}", 0)
            m[f"diffusion.trace_rows.{s}"] = run.get("trace_rows", 0)
            m[f"diffusion.residual_gap.{s}"] = run.get("residual_gap", 0.0)
        return m


def _rebind(fn, wrapper) -> None:
    """Point every binding of ``fn`` in the loaded fluidsolve modules at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fluidsolve" and not mod_name.startswith("fluidsolve."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
