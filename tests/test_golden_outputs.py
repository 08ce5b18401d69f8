"""Golden-output guard: every file the CLI writes keeps its exact bytes.

Runs ``case case1..4``, ``verify``, ``cancel-report`` for every built-in
case and scheme, and ``custom`` on the benchmark's seeded n=200 graph (with
the default trace window and with ``--sample-every 7``) through
:func:`fluidsolve.cli.main`, then compares the SHA-256 of each written file
with ``tests/golden_outputs.json``. All of it runs twice, through the
compiled kernels and as without a C compiler, and must give the same bytes.

A change that is meant to alter an output regenerates the JSON with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in its change notes which files changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from fluidsolve.cases import BUILTIN_CASES
from fluidsolve.cli import EXIT_OK, main
from fluidsolve.schemes import SCHEME_KINDS

from helpers import perfbench_graphs

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
GRAPH_N, GRAPH_SEED = 200, 1


def _commands(out: Path, graph: Path) -> list[list[str]]:
    cmds = [["case", name, "--out", str(out / "case")] for name in BUILTIN_CASES]
    cmds.append(["verify", "--out", str(out / "verify")])
    cmds += [["cancel-report", name, "--scheme", scheme, "--out", str(out / "cancel-report")]
             for name in BUILTIN_CASES for scheme in SCHEME_KINDS]
    custom = ["custom", "--matrix", str(graph), "--name", "graph"]
    cmds.append(custom + ["--out", str(out / "custom")])
    cmds.append(custom + ["--sample-every", "7", "--out", str(out / "custom-every7")])
    return cmds


def write_outputs(root: Path) -> dict[str, str]:
    """Run every golden command under ``root``; map each output file to its SHA-256."""
    graphs = perfbench_graphs()
    graph = root / "graph.mtx"
    graphs.write_matrix_market(graph, GRAPH_N, *graphs.link_matrix(GRAPH_N, GRAPH_SEED))
    out = root / "out"
    for argv in _commands(out, graph):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != EXIT_OK:
            raise RuntimeError(f"fluidsolve {' '.join(argv)} exited {code}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def test_outputs_match_golden(tmp_path, clu_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = write_outputs(tmp_path)
    assert sorted(got) == sorted(want), "set of written files changed"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"output bytes differ from {GOLDEN.name}: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = write_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(hashes)} files -> {GOLDEN}")
