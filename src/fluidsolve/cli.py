"""Experiment harness: run the built-in cases or custom problems from files.

Subcommands:

* ``case <name>``    -- run schemes on a built-in 5x5 case, write trace CSVs
                        and a gnuplot script.
* ``custom``         -- same pipeline on a MatrixMarket matrix (+ optional
                        b / x0 vector files).
* ``verify``         -- lockstep scheme-vs-diffusion equivalence suite over
                        the built-in cases, summary CSV.
* ``cancel-report``  -- cancellation/contraction split for one scheme.

Every scheme is traced through a diffusion form so residual fluid,
cancellation and contraction are measurable. Affine schemes (Jac, GSa) run
on (d*Q, (1-d)e); the linear ones (PI, GSl) run on the decomposed PageRank
form, d*Q with the rank-one part folded into f0 = d Q x0 + (1-d) e - x0,
from x0 = e by default. For PI that is exactly power iteration on the
materialized PageRank operator P. For GSl it is coordinate-level diffusion
on d*Q from that f0, which is affine Gauss-Seidel started at x0; it is not
the lockstep twin of Gauss-Seidel on P, which ``verify`` runs (see
:func:`fluidsolve.equivalence.diffusion_form`, re-exported here). Reported
"iterations" follow the vector-level count: coordinate-level runs keep one
trace row per n updates (or per ``--sample-every`` updates) with losses
summed over the window.

Exit codes: 0 success, 1 usage error, 2 input parse/validation error,
3 non-convergence within the step budget, a non-finite iterate (l1(F)
overflowed to inf or became NaN), or a failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import linecache
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cases import BUILTIN_CASES, DEFAULT_DAMPING, CaseDefinition, load_case
from .diffusion import DiffusionRun, StoppingRule, run_diffusion
from .equivalence import DiffusionEquivalent, diffusion_form, pagerank_matrix, verify_equivalence
from .io import STEP_ROW, ParseError, read_matrix_market, read_vector, write_csv, write_trace_csv
from .linalg import UpdateSequence, uniform_vector
from .schemes import COORDINATE, LINEAR, SCHEME_KINDS, SchemeSpec

__all__ = [
    "RunConfig",
    "SchemeTrace",
    "ExperimentResult",
    "CancellationSummary",
    "make_sequence",
    "diffusion_form",
    "run_experiment",
    "run_custom",
    "run_verification",
    "cancellation_report",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the experiment subcommands."""

    schemes: tuple[str, ...] = SCHEME_KINDS
    seq_spec: str = "roundrobin"
    iterations: int = 200
    tol: float = 1e-10
    output_dir: Path = Path(".")
    sample_every: int | None = None  # None: the matrix dimension

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("no schemes selected")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        unknown = [s for s in self.schemes if s not in SCHEME_KINDS]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; valid: {', '.join(SCHEME_KINDS)}")
        repeated = next((s for s in self.schemes if self.schemes.count(s) > 1), None)
        if repeated is not None:
            raise ValueError(f"scheme {repeated} selected more than once")
        if self.sample_every is not None and self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def make_sequence(spec: str, n: int) -> UpdateSequence:
    """Parse a sequence spec: 'roundrobin' or a 1-based comma list like '3,1,2'."""
    text = spec.strip().lower()
    if text in ("roundrobin", "round-robin", "round_robin"):
        return UpdateSequence.round_robin(n)
    try:
        one_based = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(f"bad sequence spec {spec!r}: use 'roundrobin' or e.g. '3,1,2'") from None
    for i in one_based:
        if not 1 <= i <= n:
            raise ValueError(f"sequence index {i} outside 1..{n}")
    return UpdateSequence.explicit(n, [i - 1 for i in one_based])


@dataclass
class SchemeTrace:
    """One scheme's run; ``run.trace`` holds its CSV rows."""

    scheme: str
    equivalent: DiffusionEquivalent
    run: DiffusionRun
    csv_path: Path | None = None

    @property
    def converged(self) -> bool:
        return self.run.converged

    def solution(self) -> np.ndarray:
        return self.equivalent.reconstruct(self.run.state.h)


@dataclass
class ExperimentResult:
    case: CaseDefinition
    traces: dict[str, SchemeTrace]
    plot_path: Path


def _trace_scheme(case: CaseDefinition, scheme: str, seq_spec: str, stop: StoppingRule, every: int,
                  b: np.ndarray | None = None, x0: np.ndarray | None = None) -> SchemeTrace:
    """Run ``scheme``'s diffusion form on ``case``, keeping a trace row per ``every`` steps."""
    seq = make_sequence(seq_spec, case.q.n) if scheme in COORDINATE else None
    b, x0 = (None, x0) if scheme in LINEAR else (b, None)  # each scheme takes one of the two
    equiv = diffusion_form(case.q, case.d, scheme, seq=seq, b=b, x0=x0)
    run = run_diffusion(equiv.matrix, equiv.f0, seq=equiv.seq, stop=stop, every=every)
    return SchemeTrace(scheme=scheme, equivalent=equiv, run=run)


def _write_plot_script(path: Path, stem: str, schemes: tuple[str, ...]) -> None:
    def curves(column: int) -> str:
        return ", \\\n     ".join(f'"{stem}_{s}.csv" skip 1 using 1:{column} with linespoints '
                                  f'title "{s}"' for s in schemes)

    script = f"""# Convergence traces for {stem}: run `gnuplot {path.name}` next to the CSVs.
set datafile separator ","
set terminal pngcairo size 900,600
set key top right
set xlabel "iteration"

set output "{stem}_residual.png"
set ylabel "residual fluid (L1)"
set logscale y
plot {curves(2)}

set output "{stem}_cancelled.png"
set ylabel "cancelled fluid per iteration"
unset logscale y
plot {curves(3)}
"""
    path.write_text(script, encoding="utf-8")


def run_experiment(case: CaseDefinition, cfg: RunConfig,
                   b: np.ndarray | None = None, x0: np.ndarray | None = None) -> ExperimentResult:
    """Trace the selected schemes on one case; write CSVs and a plot script."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    n = case.q.n
    traces = {}
    for scheme in cfg.schemes:
        clu = scheme in COORDINATE  # budget and window count sweeps of n updates
        stop = StoppingRule(tol=cfg.tol, max_steps=cfg.iterations * (n if clu else 1))
        every = (cfg.sample_every or n) if clu else 1
        trace = _trace_scheme(case, scheme, cfg.seq_spec, stop, every, b=b, x0=x0)
        trace.csv_path = cfg.output_dir / f"{case.name}_{scheme}.csv"
        write_trace_csv(trace.csv_path, trace.run.trace)
        traces[scheme] = trace
    plot_path = cfg.output_dir / f"{case.name}_plot.gp"
    _write_plot_script(plot_path, case.name, cfg.schemes)
    return ExperimentResult(case, traces, plot_path)


def run_custom(matrix_path, cfg: RunConfig, b_path=None, x0_path=None,
               d: float = DEFAULT_DAMPING, name: str | None = None) -> ExperimentResult:
    """run_experiment on a user-supplied MatrixMarket Q (+ optional vectors)."""
    q = read_matrix_market(matrix_path)
    b, x0 = (None if path is None else read_vector(path) for path in (b_path, x0_path))
    for label, v in (("b", b), ("x0", x0)):
        if v is not None and v.shape[0] != q.n:
            raise ValueError(f"{label} has {v.shape[0]} entries but the matrix is {q.n}x{q.n}")
    case = CaseDefinition(name=name or Path(matrix_path).stem, q=q, d=d)
    return run_experiment(case, cfg, b=b, x0=x0)


def run_verification(cfg: RunConfig, csv_path: Path):
    """Lockstep equivalence reports for every built-in case and scheme, written to ``csv_path``.

    The linear schemes are checked against the fully materialized PageRank
    operator (5x5, so the dense pattern is harmless here); the affine ones
    against (d*Q, (1-d)e).
    """
    reports = []
    for case_name in BUILTIN_CASES:
        case = load_case(case_name)
        n = case.q.n
        p_full = pagerank_matrix(case.q, case.d)
        q_d = case.q.scaled(case.d)
        b = (1.0 - case.d) * uniform_vector(n)
        e = uniform_vector(n)
        for kind in cfg.schemes:
            seq = make_sequence(cfg.seq_spec, n) if kind in COORDINATE else None
            if kind in LINEAR:
                spec = SchemeSpec(kind, p_full, x0=e, seq=seq)
            else:
                spec = SchemeSpec(kind, q_d, b=b, seq=seq)
            steps = cfg.iterations * (n if spec.coordinate_level else 1)
            report = verify_equivalence(spec, steps)
            report.scheme = f"{case_name}/{kind}"
            reports.append(report)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(csv_path, "scheme,steps,max_discrepancy", "%s,%d,%.17g",
              [(r.scheme, r.steps, r.max_discrepancy) for r in reports])
    return reports


@dataclass
class CancellationSummary:
    """How the lost fluid splits between cancellation and contraction.

    ``per_step`` holds (step, cancelled, contracted, fraction) with
    fraction = cancelled / (cancelled + contracted); a 0/0 step is reported
    as the NaN sentinel, as is an all-zero run.
    """

    scheme: str
    steps: int
    cumulative_cancelled: float
    cumulative_contracted: float
    per_step: list[tuple[int, float, float, float]]

    @property
    def cumulative_fraction(self) -> float:
        total = self.cumulative_cancelled + self.cumulative_contracted
        if total == 0.0:
            return math.nan
        return self.cumulative_cancelled / total

    def fraction_at_update(self, k: int) -> float:
        """Per-step fraction at the k-th update of the classical scheme (NaN past the run).

        For PI and GSl the initial fluid already encodes the first operator
        application (f0 = P x0 - x0), so classical update k lines up with
        engine step k - 1; for Jac and GSa the two counts coincide.
        """
        step = k - (1 if self.scheme in LINEAR else 0)
        return next((frac for s, _, _, frac in self.per_step if s == step), math.nan)


def cancellation_report(case: CaseDefinition, scheme: str, n_steps: int,
                        seq_spec: str = "roundrobin") -> CancellationSummary:
    """Run ``scheme``'s diffusion twin for exactly ``n_steps`` engine steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    run = _trace_scheme(case, scheme, seq_spec, StoppingRule(tol=None, max_steps=n_steps), 1).run
    per_step = []
    for step, _, cancelled, contracted in run.trace.rows[1:].tolist():
        lost = cancelled + contracted
        frac = cancelled / lost if lost > 0.0 else math.nan
        per_step.append((step, cancelled, contracted, frac))
    return CancellationSummary(
        scheme=scheme,
        steps=n_steps,
        cumulative_cancelled=run.state.total_cancelled,
        cumulative_contracted=run.state.total_contracted,
        per_step=per_step,
    )


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common_flags(sub, to_tol: bool = True):
    """Flags of every experiment; ``to_tol`` adds those of runs to a tolerance (case, custom)."""
    sub.add_argument("--schemes", default=",".join(SCHEME_KINDS),
                     help="comma list among PI,GSl,Jac,GSa (default: all)")
    sub.add_argument("--iters", type=int, default=200,
                     help="iteration budget (sweeps for coordinate-level schemes)")
    sub.add_argument("--seq", default="roundrobin",
                     help="update order of GSl/GSa: 'roundrobin' or 1-based list like '3,1,2'")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    if to_tol:
        sub.add_argument("--tol", type=float, default=RunConfig.tol,
                         help="stop once residual fluid L1 falls below this")
        sub.add_argument("--sample-every", type=int, default=None,
                         help="record coordinate-level traces every K updates (default: n)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fluidsolve",
        description="Iterative solvers instrumented through their fluid-diffusion form.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_case = subs.add_parser("case", parents=[], help="run a built-in example")
    p_case.add_argument("name", choices=BUILTIN_CASES)
    _add_common_flags(p_case)

    p_custom = subs.add_parser("custom", help="run on a MatrixMarket matrix")
    p_custom.add_argument("--matrix", required=True, type=Path,
                          help="MatrixMarket coordinate real general file (column-stochastic Q)")
    p_custom.add_argument("--b", type=Path, default=None,
                          help="affine term for Jac/GSa, one real per line (default: (1-d)e)")
    p_custom.add_argument("--x0", type=Path, default=None,
                          help="start vector for PI/GSl, one real per line (default: e)")
    p_custom.add_argument("--d", type=float, default=DEFAULT_DAMPING,
                          help="damping factor in (0,1) applied to the matrix")
    p_custom.add_argument("--name", default=None, help="output file stem (default: matrix stem)")
    _add_common_flags(p_custom)

    p_verify = subs.add_parser("verify", help="scheme-vs-diffusion lockstep checks")
    _add_common_flags(p_verify, to_tol=False)
    p_verify.set_defaults(iters=50)

    p_cancel = subs.add_parser("cancel-report", help="cancellation vs contraction split")
    p_cancel.add_argument("name", choices=BUILTIN_CASES)
    p_cancel.add_argument("--scheme", default="PI", choices=SCHEME_KINDS)
    p_cancel.add_argument("--steps", type=int, default=20, help="engine steps to run")
    p_cancel.add_argument("--seq", default="roundrobin")
    p_cancel.add_argument("--out", type=Path, default=Path("."))
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        schemes=tuple(tok.strip() for tok in args.schemes.split(",") if tok.strip()),
        seq_spec=args.seq,
        iterations=args.iters,
        tol=getattr(args, "tol", RunConfig.tol),
        output_dir=args.out,
        sample_every=getattr(args, "sample_every", None),
    )


def _report_experiment(result: ExperimentResult) -> int:
    worst = EXIT_OK
    for scheme, trace in result.traces.items():
        status = "converged" if trace.converged else f"NOT CONVERGED ({trace.run.status})"
        print(
            f"{result.case.name} {scheme:>3}: {status} after {trace.run.steps} steps, "
            f"{trace.run.state.delivered} nonzeros delivered, "
            f"residual {trace.run.state.residual_l1():.3e} -> {trace.csv_path}"
        )
        if not trace.converged:
            worst = EXIT_NOT_CONVERGED
    print(f"plot script -> {result.plot_path}")
    return worst


@contextlib.contextmanager
def _warnings_about(path):
    """Show the warnings of the block as being about the input file ``path``.

    A warning names the first frame outside the package, which for
    ``python -m fluidsolve`` is runpy's (``<frozen runpy>:88``), not the input.
    Each distinct warning the filters let through is issued again, once, when
    the block ends. Distinct, because the filters' once-per-location memory
    is reset by any ``catch_warnings`` in between, such as the one in
    ``os.get_exec_path`` when the kernel is built.
    """
    name = str(path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        for w in {(str(w.message), w.category): w for w in caught}.values():
            # an input file has no line to quote: an empty cache entry spares reading all of it
            linecache.cache.setdefault(name, (0, None, [], name))
            warnings.warn_explicit(w.message, w.category, name, 0)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "case":
            cfg = _config_from_args(args)
            return _report_experiment(run_experiment(load_case(args.name), cfg))

        if args.command == "custom":
            cfg = _config_from_args(args)
            with _warnings_about(args.matrix):
                result = run_custom(
                    args.matrix, cfg, b_path=args.b, x0_path=args.x0, d=args.d, name=args.name
                )
            return _report_experiment(result)

        if args.command == "verify":
            cfg = _config_from_args(args)
            csv_path = cfg.output_dir / "verify.csv"
            reports = run_verification(cfg, csv_path)
            for r in reports:
                flag = "ok" if r.max_discrepancy <= 1e-10 else "FAIL"
                print(f"{r.scheme:>12}: {r.steps:5d} steps, "
                      f"max discrepancy {r.max_discrepancy:.3e} [{flag}]")
            print(f"report -> {csv_path}")
            # a NaN discrepancy fails `<=`, where max() over the reports could drop it
            passed = all(r.max_discrepancy <= 1e-10 for r in reports)
            return EXIT_OK if passed else EXIT_NOT_CONVERGED

        if args.command == "cancel-report":
            case = load_case(args.name)
            summary = cancellation_report(case, args.scheme, args.steps, seq_spec=args.seq)
            args.out.mkdir(parents=True, exist_ok=True)
            csv_path = args.out / f"{case.name}_{args.scheme}_cancellation.csv"
            write_csv(csv_path, "step,cancelled,contracted,fraction", STEP_ROW, summary.per_step)
            print(f"{case.name} {args.scheme}: cumulative cancellation fraction "
                  f"{summary.cumulative_fraction!r} over {summary.steps} steps")
            print(f"fraction at classical update 5: {summary.fraction_at_update(5)!r}")
            print(f"series -> {csv_path}")
            return EXIT_OK
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
