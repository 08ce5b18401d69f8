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

from fluidsolve import (BUILTIN_CASES, StoppingRule, UpdateSequence, _clu, l1_norm, load_case,
                        run_diffusion)
from fluidsolve.cli import RunConfig, run_experiment
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
    ("run", np.zeros(3)),  # wrong dtype for an int64 pointer
    ("every", 0),  # a window of no steps
    ("run", np.array([-1, 0, 0])),  # a negative step, which would index order before its start
])
def test_kernel_rejects_arrays_that_do_not_fit(name, bad):
    if _clu.load() is None:
        pytest.skip("no C compiler to build the coordinate-level kernel")
    bind = _clu.load().clu
    arrays = dict(order=np.arange(3), indptr=np.array([0, 1, 2, 3]), rows=np.array([1, 2, 0]),
                  vals=np.full(3, 0.5), f=np.ones(3), h=np.zeros(3), acc=np.zeros(5),
                  run=np.zeros(3, dtype=np.int64), every=1)
    steps = bind(**arrays)
    assert len(steps(3, -1.0)) == 3  # a row per step, as every is 1
    assert len(steps(3 + _clu.STRETCH + 1, -1.0)) == _clu.STRETCH  # at most STRETCH per call
    with pytest.raises(ValueError):
        bind(**{**arrays, name: bad})


@pytest.mark.parametrize("name, bad", [
    ("vals", np.ones(3, dtype=np.float32)),  # wrong dtype for a double pointer
    ("cols", np.array([0, 1, 2], dtype=np.int32)),  # wrong dtype for an int64 pointer
    ("h", np.zeros(4)),  # wrong length
    ("cols", np.array([0, 1])),  # shorter than the stored entries
    ("rows", np.array([1, 3, 0])),  # row past n
    ("cols", np.array([0, -1, 2])),  # negative column
    ("acc", np.zeros(3)),  # too short for the run state
])
def test_vector_kernel_rejects_arrays_that_do_not_fit(name, bad):
    if _clu.load() is None:
        pytest.skip("no C compiler to build the vector-level kernel")
    bind = _clu.load().vlu
    arrays = dict(rows=np.array([1, 2, 0]), cols=np.arange(3), vals=np.full(3, 0.5), f=np.ones(3),
                  h=np.zeros(3), acc=np.zeros(5), run=np.zeros(3, dtype=np.int64))
    # one call runs at most STRETCH steps, the rows its buffer holds
    assert len(bind(**arrays)(_clu.STRETCH + 1, -1.0)) == _clu.STRETCH
    with pytest.raises(ValueError):
        bind(**{**arrays, name: bad})


def test_coordinate_level_run_of_up_to_stretch_rows_is_one_call(tmp_path, monkeypatch):
    kernels = _clu.load()
    if kernels is None:
        pytest.skip("no C compiler to build the coordinate-level kernel")
    calls = []

    def counted_clu(*arrays):
        steps = kernels.clu(*arrays)
        return lambda *args: calls.append(args) or steps(*args)

    monkeypatch.setattr(_clu, "load", lambda: kernels._replace(clu=counted_clu))
    for name in BUILTIN_CASES:  # what one round of the cases benchmark runs
        cfg = RunConfig(schemes=("GSl", "GSa"), output_dir=tmp_path / name)
        for trace in run_experiment(load_case(name), cfg).traces.values():
            assert trace.converged and len(trace.run.trace) <= _clu.STRETCH + 1
    assert len(calls) == 2 * len(BUILTIN_CASES)  # one call per run


def test_kernel_builds_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH to build the kernel")
    flags = (*_clu.CFLAGS, "-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(["cc", *flags, "-o", str(tmp_path / "_clu.so"), str(_clu.SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- sanitizer gate ------------------------------------------------------------

SANITIZED_CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                    "-ffp-contract=off", "-shared", "-fPIC")

# Run by test_kernel_passes_the_sanitizers in a child under the sanitizer runtimes:
# builds the kernel with the flags it is given, then holds both kernels, bit for bit,
# to the no-compiler path and F and H to the per-step engine, on instances with
# n from 1 to 300, empty columns, self-loops, explicit orders with repeats, windows
# of 1, 3 and n steps, runs of more than STRETCH rows and runs that stop on tol.
SANITIZED = """\
import os
import sys

import numpy as np

os.environ.pop("LD_PRELOAD", None)  # cc itself runs without the sanitizer runtime
from fluidsolve import (DiffusionState, SparseColumnMatrix, StoppingRule, UpdateSequence, _clu,
                        diffuse_coordinate, diffuse_vector, l1_norm, run_diffusion)

_clu.CFLAGS = tuple(sys.argv[1:])
kernels = _clu.load()
assert kernels is not None, "the sanitized kernel did not build"


def bits(state, status):
    rows = [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex()) for r in state.trace]
    return (state.f.tobytes(), state.h.tobytes(), rows, state.total_cancelled.hex(),
            state.total_contracted.hex(), state.delivered, state.step, status)


def no_compiler(*args, **kwargs):
    _clu.load = lambda: None
    try:
        return run_diffusion(*args, **kwargs)
    finally:
        _clu.load = lambda: kernels


def engine(m, f0, seq, steps):
    state = DiffusionState.start(f0)
    order = seq.period().tolist() if seq is not None else None
    for t in range(steps):
        if seq is None:
            diffuse_vector(state, m)
        else:
            diffuse_coordinate(state, m, order[t % len(order)])
    return state


rng = np.random.default_rng(5)
runs = 0
for n in (1, 2, 7, 8, 9, 64, 129, 300):
    # signed entries, self-loops and about a tenth of the columns left empty
    pos = np.union1d(rng.choice(n * n, size=min(3 * n, n * n), replace=False),
                     np.arange(0, n * n, n + 1)[: n // 10 + 1])
    rows, cols = pos % n, pos // n
    keep = rng.random(n)[cols] >= 0.1
    m = SparseColumnMatrix.from_entries(n, rows[keep], cols[keep], rng.uniform(-1, 1, keep.sum()))
    m = m.scaled(0.6 / max(m.column_l1_norms().max(), 1e-300))
    f0 = rng.uniform(-1, 1, n)
    repeats = rng.integers(0, n, n // 2 + 1)
    for seq in (UpdateSequence.round_robin(n),
                UpdateSequence.explicit(n, rng.permutation(np.concatenate((np.arange(n), repeats))).tolist()),
                None):
        for every in ((1, 3, n) if seq is not None else (1,)):
            for stop in (StoppingRule(tol=None, max_steps=2 * _clu.STRETCH + 7),  # buffer refills
                         StoppingRule(tol=0.2 * l1_norm(f0), max_steps=50 * n + 600)):  # stops on tol
                got = run_diffusion(m, f0, seq=seq, stop=stop, every=every)
                want = no_compiler(m, f0, seq=seq, stop=stop, every=every)
                assert bits(got.state, got.status) == bits(want.state, want.status), (n, every, stop)
                ref = engine(m, f0, seq, got.steps)
                assert got.state.f.tobytes() == ref.f.tobytes(), (n, every, stop)
                assert got.state.h.tobytes() == ref.h.tobytes(), (n, every, stop)
                if seq is None:
                    assert bits(got.state, 0)[2:7] == bits(ref, 0)[2:7], (n, stop)
                runs += 1
print("ok", runs)
"""


def _sanitizer_runtimes() -> list[str]:
    """The paths of libasan.so and libubsan.so, or [] when gcc cannot resolve them."""
    if shutil.which("gcc") is None:
        return []
    paths = [subprocess.run(["gcc", f"-print-file-name={lib}"], capture_output=True,
                            text=True).stdout.strip() for lib in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(p) for p in paths) else []


def test_kernel_passes_the_sanitizers(tmp_path):
    runtimes = _sanitizer_runtimes()
    if not runtimes:
        pytest.skip("libasan.so does not resolve (gcc -print-file-name), so no sanitized build")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=str(tmp_path / "cache"),
               LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run([sys.executable, "-c", SANITIZED, *SANITIZED_CFLAGS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.startswith("ok "), proc.stdout


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
