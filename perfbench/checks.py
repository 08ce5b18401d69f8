"""Untimed correctness checks on one repetition's results.

Each scheme run and each extra command (verify, cancel-report) is one
attempt; an attempt fails when any of its checks fails. The fixed point is
checked against the damped problem x = d Q x + (1-d) e, using the link
matrix the benchmark generated (graphs) or the dense Q the run reported
(built-in cases), never the program's own kernels:

* the run reports converged and its recomputed l1(F) is at most tol;
* conservation: l1(F + H - dQ H - f0) <= 1e-10 l1(f0), with f0 rebuilt here;
* the trace CSV has the header, one row per reported iteration, and a
  nonincreasing residual column;
* graphs: any two schemes' solutions differ by at most 2 tol / (1 - d),
  since F_n + (I - dQ) H_n = F_0 bounds each error by tol / (1 - d);
* cases: every solution is within 1e-8 (l1) of ``dense_solve_oracle``;
* verify: every max_discrepancy is at most 1e-10; cancel-report: the
  requested number of finite, nonnegative per-step rows.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

TRACE_HEADER = "step,residual_l1,cancelled,contracted"
CONSERVATION_RTOL = 1e-10
ORACLE_TOL = 1e-8
VERIFY_TOL = 1e-10


class LinkMatrix(NamedTuple):
    """Q as 0-based coordinate arrays, independent of the program's matrix class."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "LinkMatrix":
        rows, cols = np.nonzero(a)
        return cls(a.shape[0], rows, cols, a[rows, cols])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.n)


def initial_fluid(q: LinkMatrix, d: float, scheme: str) -> np.ndarray:
    """f0 of the scheme's diffusion twin on dQ: (1-d)e, or dQe + (1-d)e - e from x0 = e."""
    e = np.full(q.n, 1.0 / q.n)
    if scheme in ("Jac", "GSa"):
        return (1.0 - d) * e
    return d * q.matvec(e) + (1.0 - d) * e - e


def _check_csv(path: Path, run: dict) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return "bad trace CSV header"
    expected = run["steps"] // run["n"] + 1 if run["clu"] else run["steps"] + 1
    if len(lines) - 1 != expected:
        return f"trace CSV has {len(lines) - 1} rows, expected {expected}"
    resid = np.array([float(line.split(",")[1]) for line in lines[1:]])
    if not np.all(np.isfinite(resid)) or np.any(np.diff(resid) > 1e-12 * resid[:-1]):
        return "trace CSV residual column is not finite and nonincreasing"
    return None


def check_runs(runs, arrays, matrices: dict, d: float, tol: float) -> dict[str, list[str]]:
    """Failure messages keyed by failed run ("case/scheme/round"); ``matrices`` maps case -> LinkMatrix."""
    failures: dict[str, list[str]] = {}
    by_case: dict[tuple[str, int], list[tuple[str, np.ndarray]]] = {}
    for k, run in enumerate(runs):
        label = f"{run['case']}/{run['scheme']}/{run['round']}"
        q = matrices[run["case"]]
        f, h, x = arrays[f"f{k}"], arrays[f"h{k}"], arrays[f"x{k}"]
        f0 = initial_fluid(q, d, run["scheme"])
        resid = float(np.abs(f).sum())
        defect = float(np.abs(f + h - d * q.matvec(h) - f0).sum())
        if not run["converged"]:
            problem = f"not converged after {run['steps']} steps"
        elif not resid <= tol:
            problem = f"reported converged but recomputed l1(F) = {resid!r} > tol"
        elif not defect <= CONSERVATION_RTOL * float(np.abs(f0).sum()):
            problem = f"conservation defect {defect!r}"
        elif "oracle_" + run["case"] in arrays and not (
                float(np.abs(x - arrays["oracle_" + run["case"]]).sum()) <= ORACLE_TOL):
            problem = "solution off dense_solve_oracle by more than 1e-8"
        else:
            problem = _check_csv(Path(run["csv"]), run)
        if problem:
            failures.setdefault(label, []).append(problem)
        by_case.setdefault((run["case"], run["round"]), []).append((label, x))
    bound = 2.0 * tol / (1.0 - d)
    for (case, _), sols in by_case.items():
        if "oracle_" + case in arrays:
            continue
        for (la, xa), (lb, xb) in itertools.combinations(sols, 2):
            gap = float(np.abs(xa - xb).sum())
            if not gap <= bound:
                for label, other in ((la, lb), (lb, la)):
                    failures.setdefault(label, []).append(f"differs from {other} by {gap!r} > {bound!r}")
    return failures


def check_commands(payload: dict) -> dict[str, list[str]]:
    """Failure messages keyed by failed command and round, for the cases workload's verify and cancel-report."""
    failures = {}
    for rnd, cmd in enumerate(payload["commands"]):
        bad = [r for r in cmd["verify"] if not r[2] <= VERIFY_TOL]
        if bad:
            failures[f"verify/{rnd}"] = [f"{len(bad)} reports above {VERIFY_TOL}, first {bad[0]}"]
        c = cmd["cancel"]
        totals = (c["cancelled"], c["contracted"])
        if c["rows"] != c["steps"] or not all(math.isfinite(t) and t >= 0.0 for t in totals):
            failures[f"cancel-report/{rnd}"] = [f"unexpected summary {c}"]
    return failures
