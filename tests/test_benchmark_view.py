"""The benchmark reaches the program only through exported names.

``perfbench/tracer.py`` looks up functions and methods by name in
``fluidsolve`` and ``fluidsolve.cli`` and wraps them. Installing its recorder
in a fresh interpreter fails as soon as one of those names is deleted or
renamed. ``perfbench/child.py`` also reads attributes of the results and
calls the verify and cancel-report functions with fixed arguments, so one
untraced repetition of each workload, the cases and a seeded graph, guards the
rest of that view.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import perfbench_graphs

ROOT = Path(__file__).resolve().parents[1]


INSTALL = ("import sys; sys.path.insert(0, 'perfbench'); from tracer import Recorder; "
           "rec = Recorder(); rec.install()")


def _traced(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"{INSTALL}\n{code}", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_benchmark_tracer_installs():
    _traced("")


def test_traced_read_counts_every_entry_into_the_build(tmp_path):
    # linalg.from_entries.ns_per_nnz divides by this counter: a hook that no longer
    # matches the build's signature would leave it at 0 and report the layer as free
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 4\n"
                    "1 1 0.5\n2 1 0.5\n3 2 1.0\n1 3 1.0\n")
    code = ("import json, fluidsolve; fluidsolve.read_matrix_market(sys.argv[1]); "
            "print(json.dumps(rec.counters))")
    counters = json.loads(_traced(code, str(path)).stdout)
    assert counters["linalg.from_entries.nnz"] == 4
    assert counters["io.read_matrix_market.nnz"] == 4


def _repetition(tmp_path: Path, *source: str) -> list[dict]:
    """The runs of one untraced ``perfbench/child.py`` repetition, as the benchmark reads them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "perfbench/child.py", *source, "--result", str(tmp_path)]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((tmp_path / "result.json").read_text())["runs"]
    assert {run["scheme"] for run in runs} == {"PI", "GSl", "Jac", "GSa"}
    assert all(run["clu"] == (run["scheme"] in ("GSl", "GSa")) for run in runs)
    assert all(run["converged"] for run in runs)
    # trace_rows is len(run.trace), which the traced metrics add up: one per data row of the CSV
    for run in runs:
        data_rows = Path(run["csv"]).read_text().count("\n") - 1
        assert run["trace_rows"] == data_rows, run
    return runs


def test_benchmark_cases_repetition_runs(tmp_path):
    _repetition(tmp_path, "--cases")


def test_benchmark_graph_repetition_runs(tmp_path):
    graphs = perfbench_graphs()
    graphs.write_matrix_market(tmp_path / "graph.mtx", 200, *graphs.link_matrix(200, 1))
    assert len(_repetition(tmp_path, "--matrix", str(tmp_path / "graph.mtx"))) == 4


def test_traced_verify_counts_every_gauss_seidel_reference_step(tmp_path):
    # schemes.step.calls tallies verify's textbook steps: 4 cases x 2 schemes x 2 sweeps x 5;
    # schemes.RowView.calls its row views, one per case and Gauss-Seidel scheme
    names = ("schemes.step", "schemes.RowView")
    code = ("import json, fluidsolve.cli as cli; from pathlib import Path; out = Path(sys.argv[1]); "
            "cfg = cli.RunConfig(schemes=('GSl', 'GSa'), iterations=2, output_dir=out); "
            "cli.run_verification(cfg, out / 'verify.csv'); "
            f"print(json.dumps([rec.totals().get(k, {{}}).get('calls', 0) for k in {names!r}]))")
    assert json.loads(_traced(code, str(tmp_path)).stdout) == [80, 8]


def test_traced_cancel_report_records_the_layers_of_a_run():
    # cancel-report runs through the CLI's scheme-to-run path: the per-layer
    # metrics of the cases workload read these spans
    names = ("cli.diffusion_form", "equivalence.pagerank_decompose", "diffusion.run_diffusion")
    code = ("import json, fluidsolve, fluidsolve.cli as cli; "
            "cli.cancellation_report(fluidsolve.load_case('case4'), 'GSl', 20); "
            f"print(json.dumps([rec.totals().get(k, {{}}).get('calls', 0) for k in {names!r}]))")
    assert json.loads(_traced(code).stdout) == [1, 1, 1]
