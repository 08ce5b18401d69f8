"""The fluidsolve benchmark: wall time to tol per scheme, on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload graph-2e3 --seed 1 --seconds 60 --trace 0

Each workload is a closed loop with one client: one repetition at a time,
each in a fresh Python process with ``src`` on PYTHONPATH and BLAS threads
capped at the CPU count. Repetitions repeat until ``--seconds`` is used up
(never starting one predicted to overrun, always at least one), and every
metric is the median over repetitions. Every repetition is checked for
correctness, untimed (see checks.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
tracer.py, plus trace.overhead_s (traced minus untraced run_s); the spans of
the last traced repetition go to ``.perfbench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import LinkMatrix, check_commands, check_runs  # noqa: E402
from child import CASES_ROUNDS, DAMPING, TOL  # noqa: E402
from graphs import OUT_DEGREE, make_graph  # noqa: E402
from tracer import LAYER_METRICS, SCHEMES  # noqa: E402

# A repetition still running this long after the benchmark started is killed
# (and fails), so that the benchmark always exits within 180 s.
DEADLINE_S = 165.0

# Why each workload exists, and why there are only two: see README.md.
WORKLOADS = {
    "graph-2e3": {"n": 2_000, "schemes": SCHEMES},
    "cases-5x5": {"n": None, "schemes": SCHEMES},
}

# Bounded end-to-end metrics, reported on every workload; then per-scheme
# solve times, printed where the scheme runs. A PI or Jac solve at n=2000
# takes ~10 ms, too short to hold a bound on a noisy shared host.
END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB")]
REPORTED = END_TO_END + [(f"solve_{s}_s", "s") for s in SCHEMES]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def environment_lines() -> list[str]:
    models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    return [
        f"# environment: python {platform.python_version()}, numpy {np.__version__}, nproc {nproc()}, "
        f"cpu {models[0] if models else 'unknown'}, LLC {llc or 'unknown'}, BLAS threads capped at {nproc()}",
        "# limits: CPUs are not pinned and caches are not dropped (the sandbox allows neither); "
        "bytes are computed from array sizes, not measured; no bandwidth or roofline ratio is given "
        "(the matrix and vectors take under 1 MB at n=2000, far below 4x the LLC)",
    ]


@dataclass
class Rep:
    """One repetition: metrics (empty if the process failed), attempts, failures."""

    traced: bool
    metrics: dict
    layers: dict
    attempted: int
    failed: int
    failures: dict  # what failed -> messages


def run_rep(cmd, env, rep_dir: Path, traced: bool, matrices: dict, schemes, cases: bool,
            deadline: float) -> Rep:
    rep_dir.mkdir()
    attempted = CASES_ROUNDS * (len(schemes) * 4 + 2) if cases else len(schemes)
    cmd = cmd + ["--result", str(rep_dir)] + (["--trace"] if traced else [])
    with open(rep_dir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=rep_dir, stdout=log, stderr=subprocess.STDOUT)
        try:
            # wait4, not wait: its rusage gives this child's peak RSS.
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (rep_dir / "child.log").read_text(errors="replace").strip().splitlines()[-3:]
        message = f"exit code {proc.returncode}: {' | '.join(tail)}"
        return Rep(traced, {}, {}, attempted, attempted, {"process": [message]})

    payload = json.loads((rep_dir / "result.json").read_text())
    with np.load(rep_dir / "arrays.npz") as npz:
        arrays = dict(npz)
    marks = payload["marks"]
    metrics = {
        "run_s": marks["end"] - t_spawn,
        "setup_s": marks["loaded"] - t_spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    for scheme, seconds in payload["solve_s"].items():
        metrics[f"solve_{scheme}_s"] = seconds
    metrics["solve_s"] = sum(payload["solve_s"].values())
    if cases:
        matrices = {name[2:]: LinkMatrix.from_dense(a) for name, a in arrays.items() if name.startswith("q_")}
    failures = check_runs(payload["runs"], arrays, matrices, DAMPING, TOL)
    if cases:
        failures.update(check_commands(payload))
    return Rep(traced, metrics, payload.get("layers", {}), attempted, len(failures), failures)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    traced_run = args.trace == 1

    root = Path.cwd()
    if not (root / "src" / "fluidsolve" / "__init__.py").is_file():
        print("error: src/fluidsolve not found; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_tmp"))
    try:
        # Import once before timing: the program must load, and the first
        # repetition should not pay for a cold file cache alone.
        probe = subprocess.run([sys.executable, "-c", "import fluidsolve.cli"], env=env, cwd=tmp,
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            print(f"error: cannot import fluidsolve:\n{probe.stderr}", file=sys.stderr)
            return 2

        child = [sys.executable, str(HERE / "child.py")]
        if wl["n"] is None:
            cmd, matrices, size = child + ["--cases"], {}, "built-in cases case1..case4, n=5"
        else:
            path = tmp / "graph.mtx"
            rows, cols, vals = make_graph(path, wl["n"], args.seed)
            matrices = {path.stem: LinkMatrix(wl["n"], rows, cols, vals)}
            cmd = child + ["--matrix", str(path), "--schemes", ",".join(wl["schemes"])]
            size = f"n={wl['n']}, nnz={rows.shape[0]}, out-degree {OUT_DEGREE}"

        reps: list[Rep] = []
        group = (False, True) if traced_run else (False,)
        start = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            for traced in group:
                rep_dir = tmp / f"rep{len(reps)}"
                reps.append(run_rep(cmd, env, rep_dir, traced, matrices, wl["schemes"], wl["n"] is None,
                                    deadline))
                if traced and (rep_dir / "spans.json").is_file():
                    out_dir = root / ".perfbench_out"
                    out_dir.mkdir(exist_ok=True)
                    shutil.copy(rep_dir / "spans.json", out_dir / f"{args.workload}-seed{args.seed}-spans.json")
                shutil.rmtree(rep_dir)
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - start + longest > args.seconds:
                break
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    plain = [r for r in reps if r.metrics and not r.traced]
    traced_reps = [r for r in reps if r.metrics and r.traced]
    if not plain or (traced_run and not traced_reps):
        print(f"error: every repetition failed: {reps[-1].failures}", file=sys.stderr)
        return 1

    print(*environment_lines(), sep="\n")
    print(f"# workload {args.workload}, seed {args.seed}: {size}, d={DAMPING}, tol={TOL}; "
          f"closed loop, 1 client, fresh process per repetition; {len(reps)} repetitions "
          f"({len(plain)} untraced, {len(traced_reps)} traced ok) in {elapsed:.1f} s")
    print(f"{'metric':<42} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} {'samples':>8}")

    def row(name, unit, values):
        q1, q3 = quartiles(values)
        print(f"{name:<42} {unit:>7} {statistics.median(values):>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>8}")

    for name, unit in REPORTED:
        values = [r.metrics[name] for r in plain if name in r.metrics]
        if values:
            row(name, unit, values)
        else:
            print(f"{name:<42} {unit:>7} {'n/a (scheme not run on this workload)':>38}")
    print(f"{'fail_frac':<42} {'ratio':>7} {failed / attempted:>12.6g} ({failed} of {attempted} attempted "
          f"scheme and command runs)")
    for i, r in enumerate(reps):
        for what, problems in r.failures.items():
            print(f"FAILED repetition {i} {what}: {'; '.join(problems)}")

    if traced_run:
        layers = {name: statistics.median(r.layers[name] for r in traced_reps) for name, _, _ in LAYER_METRICS
                  if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r.metrics["run_s"] for r in traced_reps)
                                      - statistics.median(r.metrics["run_s"] for r in plain))
        print("# per-layer metrics, median over traced repetitions (0 where the layer does not run):")
        for name, unit, _ in LAYER_METRICS:
            print(f"{name:<42} {unit:>7} {layers[name]:>12.6g}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": statistics.median(r.metrics[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
