"""One repetition of a benchmark workload, in a fresh interpreter.

Reaches the program only through names exported by ``fluidsolve`` and
``fluidsolve.cli``. Writes ``result.json`` (monotonic-clock marks, per-scheme
solve times, per-layer metrics when traced) and ``arrays.npz`` (final F, H
and solution per run, for the untimed correctness check) into ``--result``.

    python3 perfbench/child.py --matrix g.mtx --schemes PI,GSl,Jac,GSa --result DIR
    python3 perfbench/child.py --cases --result DIR [--trace]

The program must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

DAMPING = 0.85
TOL = 1e-10
VERIFY_ITERS = 50  # the default of `fluidsolve verify`
CANCEL_CASE, CANCEL_SCHEME, CANCEL_STEPS = "case4", "PI", 20
# The cases commands run this many rounds per process. Interpreter start and
# numpy import are the costs that contention on a shared host moves most (by
# up to 30% within minutes, see README.md), so one round per process left
# run_s too unsteady to hold its bound; setup_s still reports the import.
CASES_ROUNDS = 10


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", type=Path, help="MatrixMarket file of the link matrix Q")
    src.add_argument("--cases", action="store_true", help="the built-in 5x5 cases")
    parser.add_argument("--schemes", default="PI,GSl,Jac,GSa")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    schemes = tuple(args.schemes.split(","))

    t_import = time.monotonic()
    import fluidsolve
    import fluidsolve.cli as cli
    marks = {"start": T_START, "import_begin": t_import, "imported": time.monotonic()}

    rec = None
    if args.trace:
        from tracer import Recorder

        rec = Recorder()
        rec.install()

    if args.cases:
        cases = [fluidsolve.load_case(name) for name in fluidsolve.BUILTIN_CASES]
    else:
        q = fluidsolve.read_matrix_market(args.matrix)
        cases = [fluidsolve.CaseDefinition(name=args.matrix.stem, q=q, d=DAMPING)]
    marks["loaded"] = time.monotonic()

    solve_s = dict.fromkeys(schemes, 0.0)
    traces = {}
    commands = []
    for rnd in range(CASES_ROUNDS if args.cases else 1):
        out = args.result / f"out{rnd}"
        for case in cases:
            for scheme in schemes:
                cfg = cli.RunConfig(schemes=(scheme,), tol=TOL, output_dir=out / scheme)
                if rec is not None:
                    rec.scheme = scheme
                t0 = time.monotonic()
                result = cli.run_experiment(case, cfg)
                solve_s[scheme] += time.monotonic() - t0
                traces[rnd, case.name, scheme] = result.traces[scheme]
        if rec is not None:
            rec.scheme = None
        if args.cases:
            verify_cfg = cli.RunConfig(iterations=VERIFY_ITERS, output_dir=out / "verify")
            reports = cli.run_verification(verify_cfg, verify_cfg.output_dir / "verify.csv")
            cancel_case = next(c for c in cases if c.name == CANCEL_CASE)
            commands.append((reports, cli.cancellation_report(cancel_case, CANCEL_SCHEME, CANCEL_STEPS)))
    marks["end"] = time.monotonic()

    # Untimed from here on.
    import numpy as np

    runs, arrays = [], {}
    for k, ((rnd, case_name, scheme), trace) in enumerate(traces.items()):
        state = trace.run.state
        arrays[f"f{k}"], arrays[f"h{k}"], arrays[f"x{k}"] = state.f, state.h, trace.solution()
        runs.append({
            "round": rnd, "case": case_name, "scheme": scheme, "n": state.n,
            "converged": bool(trace.converged), "steps": int(trace.run.steps),
            "tracked_residual": float(trace.run.trace[-1].residual_l1),
            "trace_rows": len(trace.run.trace), "csv": str(trace.csv_path),
            "clu": trace.equivalent.mode == "clu",
        })
    payload = {"marks": marks, "solve_s": solve_s, "runs": runs}
    if args.cases:
        for case in cases:
            arrays[f"q_{case.name}"] = case.q.to_dense()
            arrays[f"oracle_{case.name}"] = fluidsolve.dense_solve_oracle(
                case.q.scaled(case.d), (1.0 - case.d) * fluidsolve.uniform_vector(case.q.n))
        payload["commands"] = [{
            "verify": [[r.scheme, r.steps, r.max_discrepancy] for r in reports],
            "cancel": {
                "steps": summary.steps, "rows": len(summary.per_step),
                "cancelled": summary.cumulative_cancelled, "contracted": summary.cumulative_contracted,
            },
        } for reports, summary in commands]
    if rec is not None:
        per_scheme = {}
        for k, run in enumerate(runs):
            agg = per_scheme.setdefault(run["scheme"], {"sweeps": 0.0, "trace_rows": 0, "residual_gap": 0.0})
            agg["sweeps"] += run["steps"] / (run["n"] if run["clu"] else 1)
            agg["trace_rows"] += run["trace_rows"]
            gap = run["tracked_residual"] - float(np.abs(arrays[f"f{k}"]).sum())
            if abs(gap) >= abs(agg["residual_gap"]):
                agg["residual_gap"] = gap
        payload["layers"] = rec.layer_metrics(marks["imported"] - marks["import_begin"], per_scheme)
        rec.dump(args.result / "spans.json")
    np.savez(args.result / "arrays.npz", **arrays)
    with open(args.result / "result.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
