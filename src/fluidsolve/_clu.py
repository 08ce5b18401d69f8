"""Diffusion step functions compiled from ``_clu.c``.

:func:`load` returns a :class:`Kernels` pair of ``bind`` functions, each of
which ties a step function of ``_clu.c`` to one run's arrays:

* ``clu(order, indptr, rows, vals, f, h, acc, delivered)`` returns
  ``steps(k, pos, stop_at) -> taken`` (``fluidsolve_clu_steps`` documents the
  contract);
* ``vlu(rows, cols, vals, f, h)`` returns ``steps(k, stop_at) -> rows``, the
  (residual, cancelled, contracted) row of each step taken
  (``fluidsolve_vlu_steps``).

Binding once per run checks the arrays once and keeps a call at about 2 us,
so a run may make one call per trace window even when the window is a
single step.

The C source is compiled on first use with ``cc`` into
``$XDG_CACHE_HOME/fluidsolve`` (default ``~/.cache/fluidsolve``), under a
name keyed by the source and the compiler flags, and loaded with ``ctypes``.
A missing compiler, a failed build or a cache directory that cannot be
written makes :func:`load` return None instead; ``diffusion._bind`` then
picks the engine's own Python steps, which give bitwise the same results
more slowly.
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
# Most vector-level steps one call runs: the size of the buffer their rows go to.
STRETCH = 256


def _fit(layout, what: str) -> None:
    """Raise unless every (array, dtype, size) of ``layout`` is a 1-D C-contiguous match."""
    if any(a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous or a.size != size
           for a, dtype, size in layout):
        raise ValueError(f"arrays do not fit the {what} kernel")


def _in_range(index, n: int) -> bool:
    # viewed as unsigned, a negative index wraps to a huge one and fails the same test
    return index.size == 0 or index.view(np.uint64).max() < n


def _check_clu(order, indptr, rows, vals, f, h, acc, delivered) -> None:
    """Raise unless the arrays are what ``fluidsolve_clu_steps``'s pointers assume."""
    n = f.size
    _fit(((order, np.int64, order.size), (indptr, np.int64, n + 1), (rows, np.int64, rows.size),
          (vals, np.float64, rows.size), (f, np.float64, n), (h, np.float64, n),
          (acc, np.float64, 5), (delivered, np.int64, 1)), "coordinate-level")
    if (order.size == 0 or indptr[0] != 0 or indptr[-1] != rows.size
            or (indptr[1:] < indptr[:-1]).any()):
        raise ValueError("empty update order, or indptr does not delimit the stored entries")
    if not (_in_range(order, n) and _in_range(rows, n)):
        raise ValueError("index out of range for the coordinate-level kernel")


def _check_vlu(rows, cols, vals, f, h) -> None:
    """Raise unless the arrays are what ``fluidsolve_vlu_steps``'s pointers assume."""
    n = f.size
    _fit(((rows, np.int64, rows.size), (cols, np.int64, rows.size), (vals, np.float64, rows.size),
          (f, np.float64, n), (h, np.float64, n)), "vector-level")
    if not (_in_range(rows, n) and _in_range(cols, n)):
        raise ValueError("index out of range for the vector-level kernel")


def _bind_clu(fn):
    """``bind`` for the compiled ``fn``: checks the arrays once, then passes pointers."""

    def bind(order, indptr, rows, vals, f, h, acc, delivered):
        arrays = (order, indptr, rows, vals, f, h, acc, delivered)
        _check_clu(*arrays)
        ptrs = [order.ctypes.data, order.size, *(a.ctypes.data for a in arrays[1:])]

        def steps(k, pos, stop_at):
            return fn(k, pos, stop_at, *ptrs)

        steps.arrays = arrays  # keeps every buffer alive while the kernel may use it
        return steps

    return bind


def _bind_vlu(fn):
    """``bind`` for the compiled ``fn``: checks the arrays once, then passes pointers."""

    def bind(rows, cols, vals, f, h):
        _check_vlu(rows, cols, vals, f, h)
        scratch, out = np.empty(2 * f.size), np.empty((STRETCH, 3))
        arrays = (rows, cols, vals, f, h, scratch, out)
        ptrs = [f.size, rows.size, *(a.ctypes.data for a in arrays)]

        def steps(k, stop_at):
            """Run up to min(k, STRETCH) steps; return their [residual, cancelled, contracted]."""
            return out[:fn(min(k, STRETCH), stop_at, *ptrs)].tolist()

        steps.arrays = arrays  # keeps every buffer alive while the kernel may use it
        return steps

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
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    clu, vlu = lib.fluidsolve_clu_steps, lib.fluidsolve_vlu_steps
    clu.argtypes = [i64, i64, ctypes.c_double, ptr, i64, *[ptr] * 7]
    vlu.argtypes = [i64, ctypes.c_double, i64, i64, *[ptr] * 7]
    clu.restype = vlu.restype = i64
    return Kernels(_bind_clu(clu), _bind_vlu(vlu))
