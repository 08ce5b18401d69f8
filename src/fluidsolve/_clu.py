"""Diffusion runs compiled from ``_clu.c``.

:func:`load` returns a :class:`Kernels` pair of ``bind`` functions, each of
which ties a run function of ``_clu.c`` to one run's arrays:

* ``clu(order, indptr, rows, vals, f, h, acc, run, every, snap=None)`` for
  the coordinate-level driver (``fluidsolve_clu_run`` documents the contract);
* ``vlu(indptr, rows, vals, f, h, acc, run, snap=None)`` for vector-level steps
  (``fluidsolve_vlu_run``); both take column j as ``rows``/``vals[indptr[j]:indptr[j+1]]``.

Each returns ``steps(max_steps, stop_at) -> rows``: one call runs until the
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
from typing import Callable, NamedTuple

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


def _check(kind, indptr, rows, vals, f, h, acc, run) -> None:
    """Raise unless the column arrays and the run state are what ``kind``'s pointers assume."""
    n = f.size
    _fit(((indptr, np.int64, n + 1), (rows, np.int64, rows.size), (vals, np.float64, rows.size),
          (f, np.float64, n), (h, np.float64, n), (acc, np.float64, 5), (run, np.int64, 3)), kind)
    if (indptr[0] != 0 or indptr[-1] != rows.size or (indptr[1:] < indptr[:-1]).any()
            or not _in_range(rows, n)):
        raise ValueError(f"the column arrays do not fit the {kind} kernel")


def _steps(fn, sizes, arrays, out, snap):
    """``steps(max_steps, stop_at)`` of ``fn`` on ``sizes``, ``arrays``, ``out`` and ``snap``."""
    arrays = (*arrays, out, snap)
    # made once: ctypes would convert each Python int argument again on every call
    ints = map(ctypes.c_int64, (len(out), *sizes))
    args = [*ints, *(ctypes.c_void_p(None if a is None else a.ctypes.data) for a in arrays)]

    def steps(max_steps, stop_at):
        return out[:fn(max_steps, stop_at, *args)]

    steps.arrays = arrays  # keeps every buffer alive while the kernel may use it
    return steps


def _bind_clu(fn):
    """``bind`` for the compiled ``fn``: checks the arrays once, then passes pointers."""

    def bind(order, indptr, rows, vals, f, h, acc, run, every, snap=None):
        _check("coordinate-level", indptr, rows, vals, f, h, acc, run)
        _fit(((order, np.int64, order.size),), "coordinate-level")
        if order.size == 0 or not _in_range(order, f.size) or every < 1 or run[0] < 0:
            raise ValueError("empty update order, or index, window or step out of range")
        scratch = np.empty(f.size)
        return _steps(fn, (every, order.size, f.size),
                      (order, indptr, rows, vals, f, h, scratch, acc, run),
                      rows_buffer(snap, f.size), snap)

    return bind


def _bind_vlu(fn):
    """``bind`` for the compiled ``fn``: checks the arrays once, then passes pointers."""

    def bind(indptr, rows, vals, f, h, acc, run, snap=None):
        _check("vector-level", indptr, rows, vals, f, h, acc, run)
        scratch = np.empty(2 * f.size)
        return _steps(fn, (f.size,), (indptr, rows, vals, f, h, scratch, acc, run),
                      rows_buffer(snap, f.size), snap)

    return bind


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


class Kernels(NamedTuple):
    """The ``bind`` functions of the module docstring."""

    clu: Callable
    vlu: Callable


@functools.cache
def load() -> Kernels | None:
    """The compiled kernels, or None when they cannot be built."""
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
    return Kernels(_bind_clu(clu), _bind_vlu(vlu))
