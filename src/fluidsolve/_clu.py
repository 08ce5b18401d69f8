"""Diffusion runs compiled from ``_clu.c``.

:func:`load` returns the compiled library, or None, and :func:`bind` ties one
of its run functions to one run's arrays::

    bind(lib, order, indptr, rows, vals, f, h, acc, run, every=1, snap=None)

With an update ``order`` it binds the coordinate-level driver, with windows
of ``every`` steps (``fluidsolve_clu_run`` documents the contract); with
``order`` None it binds vector-level steps (``fluidsolve_vlu_run``). Both take
column j as ``rows``/``vals[indptr[j]:indptr[j+1]]`` and the run state
``acc`` and ``run`` that ``diffusion._bind`` lays out.

It returns ``steps(max_steps, stop_at) -> rows``: one call runs until the
status is settled, ``max_steps`` is reached or the buffer of rows is full,
and returns the rows it wrote as a (rows, 3) array of [residual, cancelled,
contracted], a view of that buffer that the next call overwrites, while
``acc`` and ``run`` carry the rest of the run's state. The buffer holds
:data:`STRETCH` rows, or as many as the snapshot buffer ``snap``, a
C-contiguous (rows, 2, n) float64 array: with one, row k of the call's rows
comes with F in ``snap[k, 0]`` and H in ``snap[k, 1]`` as they were when the
kernel wrote it. A run binds once, which checks the arrays once, and a run
of up to a buffer of rows is then one call.

The C source is compiled on first use with ``cc`` into
``$XDG_CACHE_HOME/fluidsolve`` (default ``~/.cache/fluidsolve``), under a
name keyed by the source and the compiler flags, and loaded with ``ctypes``.
A missing compiler, a failed build or a cache directory that cannot be
written makes :func:`load` return None instead; ``diffusion._bind`` then
picks the engine's own Python steps, which give bitwise the same results
and snapshots more slowly.
"""

from __future__ import annotations

import ctypes
import functools
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_clu.c")
# -ffp-contract=off: a fused multiply-add would change the bits of old + fl*v.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Most trace rows one call writes without a snapshot buffer: the size of the buffer they go to.
STRETCH = 256


def _fit(layout, what: str) -> None:
    """Raise unless every (array, dtype, size) of ``layout`` is a 1-D C-contiguous match."""
    if any(a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous or a.size != size
           for a, dtype, size in layout):
        raise ValueError(f"arrays do not fit the {what} kernel")


def _in_range(index, n: int) -> bool:
    # viewed as unsigned, a negative index wraps to a huge one and fails the same test
    return index.size == 0 or index.view(np.uint64).max() < n


def rows_buffer(snap, n: int) -> np.ndarray:
    """The buffer of rows of a run with snapshot buffer ``snap``: as many rows, or STRETCH without.

    Raises unless ``snap`` is None or a C-contiguous (rows >= 1, 2, n) float64 array.
    """
    if snap is None:
        return np.empty((STRETCH, 3))
    if (snap.dtype != np.float64 or snap.ndim != 3 or len(snap) < 1 or snap.shape[1:] != (2, n)
            or not snap.flags.c_contiguous):
        raise ValueError("the snapshot buffer does not fit the state")
    return np.empty((len(snap), 3))


def bind(lib, order, indptr, rows, vals, f, h, acc, run, every=1, snap=None):
    """``steps(max_steps, stop_at) -> rows`` of ``lib``'s run function on these arrays.

    Checks the arrays once, then passes pointers: coordinate-level along
    ``order`` with windows of ``every`` steps, vector-level when ``order`` is None.
    """
    kind, n = "vector-level" if order is None else "coordinate-level", f.size
    _fit(((indptr, np.int64, n + 1), (rows, np.int64, rows.size), (vals, np.float64, rows.size),
          (f, np.float64, n), (h, np.float64, n), (acc, np.float64, 5), (run, np.int64, 3)), kind)
    if (indptr[0] != 0 or indptr[-1] != rows.size or (indptr[1:] < indptr[:-1]).any()
            or not _in_range(rows, n)):
        raise ValueError(f"the column arrays do not fit the {kind} kernel")
    if order is None:
        fn, sizes, arrays = lib.fluidsolve_vlu_run, (n,), (indptr, rows, vals, f, h, np.empty(2 * n))
    else:
        _fit(((order, np.int64, order.size),), kind)
        if order.size == 0 or not _in_range(order, n) or every < 1 or run[0] < 0:
            raise ValueError("empty update order, or index, window or step out of range")
        fn, sizes = lib.fluidsolve_clu_run, (every, order.size, n)
        arrays = (order, indptr, rows, vals, f, h, np.empty(n))
    out = rows_buffer(snap, n)
    arrays = (*arrays, acc, run, out, snap)
    # made once: ctypes would convert each Python int argument again on every call
    ints = map(ctypes.c_int64, (len(out), *sizes))
    args = [*ints, *(ctypes.c_void_p(None if a is None else a.ctypes.data) for a in arrays)]

    def steps(max_steps, stop_at):
        return out[:fn(max_steps, stop_at, *args)]

    steps.arrays = arrays  # keeps every buffer alive while the kernel may use it
    return steps


def _compile(source: bytes, target: Path) -> None:
    """Build ``target`` from ``source``; a temp file and os.replace keep it atomic.

    The temp file's name is unique to the call, so concurrent builds, from
    other processes or from threads of this one, never write the same file.
    """
    import subprocess  # only a cold cache pays for this import

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    tmp = Path(name)
    try:
        proc = subprocess.run(["cc", *CFLAGS, "-o", str(tmp), "-x", "c", "-"], input=source,
                              capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"cc exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled library, its run functions' argument types set, or None when it cannot be built."""
    source = SOURCE.read_bytes()
    key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(source))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fluidsolve"
    target = cache / f"_clu-{key:08x}.so"
    try:
        if not target.exists():
            _compile(source, target)
        lib = ctypes.CDLL(str(target))
    except OSError:  # no cc, a failed build, a cache directory that cannot be written
        return None
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    clu, vlu = lib.fluidsolve_clu_run, lib.fluidsolve_vlu_run
    clu.argtypes = [i64, f64, i64, i64, i64, i64, *[ptr] * 11]
    vlu.argtypes = [i64, f64, i64, i64, *[ptr] * 10]
    clu.restype = vlu.restype = i64
    return lib
