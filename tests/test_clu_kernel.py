"""The compiled diffusion kernel against its fallbacks, and how it is loaded.

``fluidsolve._clu.load`` compiles ``_clu.c`` into ``$XDG_CACHE_HOME/fluidsolve``
on first use and returns None when it cannot; runs then take the per-step
engine's own steps, ``diffusion._coordinate_step`` and ``diffusion._vector_step``.
The loader tests run the CLI in fresh interpreters, each with its own cache
directory.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fluidsolve import StoppingRule, UpdateSequence, _clu, l1_norm, run_diffusion
from helpers import perfbench_graphs, seeded_link_matrix

ROOT = Path(__file__).resolve().parents[1]
N = 2000


def _run(path, m, f0, seq, stop, every):
    with pytest.MonkeyPatch.context() as mp:
        if path == "fallback":
            mp.setattr(_clu, "load", lambda: None)
        elif _clu.load() is None:
            pytest.skip("no C compiler to build the coordinate-level kernel")
        return run_diffusion(m, f0, seq=seq, stop=stop, every=every)


def _bits(trace):
    return [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex()) for r in trace]


@pytest.mark.parametrize("every", [1, 7, N])
@pytest.mark.parametrize("end", ["converged", "budget"])
def test_kernel_matches_fallback_bitwise(every, end):
    m = seeded_link_matrix(N, 1).scaled(0.85)
    rng = np.random.default_rng(7)
    f0 = 1e3 * rng.uniform(-1.0, 1.0, N)
    order = rng.permutation(np.concatenate((np.arange(N), rng.integers(0, N, N // 4))))
    seq = UpdateSequence.explicit(N, order.tolist())
    # converged: 10,369 steps in, mid-window for every = 7 and N; budget: ends mid-period
    if end == "converged":
        stop = StoppingRule(tol=1e-3 * l1_norm(f0), max_steps=20 * N)
    else:
        stop = StoppingRule(tol=None, max_steps=3 * N + 5)
    kernel = _run("kernel", m, f0, seq, stop, every)
    fallback = _run("fallback", m, f0, seq, stop, every)

    assert kernel.status == fallback.status == end
    assert kernel.steps == fallback.steps
    got, want = kernel.state, fallback.state
    assert got.f.tobytes() == want.f.tobytes()
    assert got.h.tobytes() == want.h.tobytes()
    assert got.total_cancelled.hex() == want.total_cancelled.hex()
    assert got.total_contracted.hex() == want.total_contracted.hex()
    assert _bits(got.trace) == _bits(want.trace)
    assert len(got.trace) == kernel.steps // every + 1
    assert got.delivered == want.delivered > 0


@pytest.mark.parametrize("name, bad", [
    ("rows", np.array([1, -1, 0])),  # negative row
    ("order", np.array([0, 1, 3])),  # index past n
    ("indptr", np.array([0, 2, 1, 3])),  # decreasing column bounds
    ("vals", np.ones(3, dtype=np.float32)),  # wrong dtype for a double pointer
    ("h", np.zeros(4)),  # wrong length
])
def test_kernel_rejects_arrays_that_do_not_fit(name, bad):
    if _clu.load() is None:
        pytest.skip("no C compiler to build the coordinate-level kernel")
    bind = _clu.load().clu
    arrays = dict(order=np.arange(3), indptr=np.array([0, 1, 2, 3]), rows=np.array([1, 2, 0]),
                  vals=np.full(3, 0.5), f=np.ones(3), h=np.zeros(3), acc=np.zeros(5),
                  delivered=np.zeros(1, dtype=np.int64))
    assert bind(**arrays)(3, 0, -1.0) == 3
    with pytest.raises(ValueError):
        bind(**{**arrays, name: bad})


@pytest.mark.parametrize("name, bad", [
    ("vals", np.ones(3, dtype=np.float32)),  # wrong dtype for a double pointer
    ("cols", np.array([0, 1, 2], dtype=np.int32)),  # wrong dtype for an int64 pointer
    ("h", np.zeros(4)),  # wrong length
    ("cols", np.array([0, 1])),  # shorter than the stored entries
    ("rows", np.array([1, 3, 0])),  # row past n
    ("cols", np.array([0, -1, 2])),  # negative column
])
def test_vector_kernel_rejects_arrays_that_do_not_fit(name, bad):
    if _clu.load() is None:
        pytest.skip("no C compiler to build the vector-level kernel")
    bind = _clu.load().vlu
    arrays = dict(rows=np.array([1, 2, 0]), cols=np.arange(3), vals=np.full(3, 0.5), f=np.ones(3),
                  h=np.zeros(3))
    # one call runs at most STRETCH steps, the rows its buffer holds
    assert len(bind(**arrays)(_clu.STRETCH + 1, -1.0)) == _clu.STRETCH
    with pytest.raises(ValueError):
        bind(**{**arrays, name: bad})


def test_kernel_builds_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH to build the kernel")
    flags = (*_clu.CFLAGS, "-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(["cc", *flags, "-o", str(tmp_path / "_clu.so"), str(_clu.SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- loading -------------------------------------------------------------------

PROBE = """\
import sys
from fluidsolve import _clu
from fluidsolve.cli import main
code = main(sys.argv[1:])
print("kernel", _clu.load() is not None)
print("modules", "hashlib" in sys.modules, "subprocess" in sys.modules)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.mtx"
    graphs = perfbench_graphs()
    graphs.write_matrix_market(path, 200, *graphs.link_matrix(200, 1))
    return path


def _start(graph: Path, out: Path, cache: Path, path_var: str | None = None,
           schemes: str = "GSl,GSa") -> subprocess.Popen:
    """``fluidsolve custom --schemes <schemes>`` on ``graph`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=str(cache))
    if path_var is not None:
        env["PATH"] = path_var
    argv = ["custom", "--matrix", str(graph), "--schemes", schemes, "--out", str(out)]
    return subprocess.Popen([sys.executable, "-c", PROBE, *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc: subprocess.Popen, out: Path,
            schemes: str = "GSl,GSa") -> tuple[dict, dict[str, bytes]]:
    """Wait for ``proc``; return its probe lines and the CSVs it wrote."""
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr, stderr
    probe = {line.split()[0]: line.split()[1:] for line in stdout.splitlines()
             if line.startswith(("kernel ", "modules "))}
    csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert sorted(csvs) == sorted(f"graph_{s}.csv" for s in schemes.split(","))
    return probe, csvs


@pytest.fixture(scope="module")
def kernel_run(graph, tmp_path_factory):
    """One compiled-kernel run: its cache directory and the CSVs it wrote."""
    tmp = tmp_path_factory.mktemp("kernel")
    probe, csvs = _finish(_start(graph, tmp / "out", tmp / "cache"), tmp / "out")
    if probe["kernel"] != ["True"]:
        pytest.skip("no C compiler to build the coordinate-level kernel")
    return tmp / "cache", csvs


@pytest.fixture(scope="module")
def vector_run(graph, kernel_run, tmp_path_factory):
    """A PI,Jac run on the warm cache of ``kernel_run``: its probe lines and CSVs."""
    out = tmp_path_factory.mktemp("vector") / "out"
    return _finish(_start(graph, out, kernel_run[0], schemes="PI,Jac"), out, "PI,Jac")


def test_cold_cache_two_processes(graph, kernel_run, tmp_path):
    cache = tmp_path / "cache"
    procs = [_start(graph, tmp_path / f"out{k}", cache) for k in range(2)]
    results = [_finish(proc, tmp_path / f"out{k}") for k, proc in enumerate(procs)]
    for probe, csvs in results:
        assert probe["kernel"] == ["True"]
        assert csvs == kernel_run[1]
    files = sorted(p.name for p in (cache / "fluidsolve").iterdir())
    assert len(files) == 1 and files[0].endswith(".so"), files


def test_no_compiler_falls_back(graph, kernel_run, tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    probe, csvs = _finish(_start(graph, tmp_path / "out", tmp_path / "cache", str(empty)),
                          tmp_path / "out")
    assert probe["kernel"] == ["False"]
    assert csvs == kernel_run[1]
    assert not list(tmp_path.joinpath("cache").rglob("*.so"))


def test_no_compiler_falls_back_for_vector_schemes(graph, vector_run, tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = _start(graph, tmp_path / "out", tmp_path / "cache", str(empty), schemes="PI,Jac")
    probe, csvs = _finish(proc, tmp_path / "out", "PI,Jac")
    assert probe["kernel"] == ["False"]
    assert csvs == vector_run[1]


@pytest.mark.parametrize("how", ["read-only", "not-a-directory"])
def test_unwritable_cache_falls_back(graph, kernel_run, tmp_path, how):
    cache = tmp_path / "cache"
    if how == "read-only":
        (cache / "fluidsolve").mkdir(parents=True)
        (cache / "fluidsolve").chmod(0o555)
    else:
        cache.write_text("")  # the cache directory cannot be created under a file
    try:
        probe, csvs = _finish(_start(graph, tmp_path / "out", cache), tmp_path / "out")
    finally:
        if how == "read-only":
            (cache / "fluidsolve").chmod(0o755)
    # root writes through a read-only mode, and then the kernel builds
    built = how == "read-only" and os.geteuid() == 0
    assert probe["kernel"] == [str(built)]
    assert csvs == kernel_run[1]


def test_warm_run_imports_neither_hashlib_nor_subprocess(graph, kernel_run, tmp_path):
    probe, csvs = _finish(_start(graph, tmp_path / "out", kernel_run[0]), tmp_path / "out")
    assert probe["kernel"] == ["True"]
    assert probe["modules"] == ["False", "False"]
    assert csvs == kernel_run[1]


def test_concurrent_builds_write_distinct_temp_files(tmp_path, monkeypatch):
    # Two threads of one process that build the kernel together must not share
    # a temp file; cc is faked, and a barrier holds both builds open at once.
    barrier = threading.Barrier(2, timeout=30)
    outputs = []

    def fake_cc(args, **kwargs):
        out = Path(args[args.index("-o") + 1])
        outputs.append(out)
        barrier.wait()
        out.write_bytes(b"built")
        return subprocess.CompletedProcess(args, 0, b"", b"")

    monkeypatch.setattr(subprocess, "run", fake_cc)
    target = tmp_path / "cache" / "_clu-test.so"
    errors = []

    def build():
        try:
            _clu._compile(b"", target)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(outputs) == 2 and outputs[0] != outputs[1], outputs
    assert errors == []
    assert target.read_bytes() == b"built"
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_warm_vector_run_imports_neither_hashlib_nor_subprocess(vector_run):
    probe, _ = vector_run
    assert probe["kernel"] == ["True"]
    assert probe["modules"] == ["False", "False"]
