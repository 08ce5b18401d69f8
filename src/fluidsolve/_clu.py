"""Diffusion step functions: the compiled kernel ``_clu.c``, or what runs without it.

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
written selects :data:`FALLBACK` instead. Its ``clu`` is :func:`bind_py`,
which binds :func:`steps_py`, the same step function in Python: bitwise the
same results two orders of magnitude more slowly. Its ``vlu`` is None: the
vector-level step function is then ``diffusion._vector_step``, the arithmetic
of the reference engine that the kernel matches bitwise, one step per call.
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


def steps_py(order, columns, f, h, acc, delivered, k, pos, stop_at):
    """Python transcription of ``fluidsolve_clu_steps``: same updates, same stop, same bits.

    ``columns[i]`` holds column i's (row, value) pairs and ``order`` the
    update order as a list; ``f`` and ``h`` are memoryviews of the arrays,
    which yield and take Python floats, so F and H are updated in place and
    each operation is the kernel's IEEE double operation.
    """
    period = len(order)
    resid, win_c, win_k, total_c, total_k = acc.tolist()
    count = int(delivered[0])
    taken = 0
    while taken < k:
        i = order[pos]
        pos = 0 if pos + 1 == period else pos + 1
        taken += 1
        fl = f[i]
        if fl != 0.0:
            h[i] += fl
            f[i] = 0.0
            cancelled = sum_delta = 0.0
            column = columns[i]
            for r, v in column:
                old = f[r]
                delta = fl * v
                new = old + delta
                f[r] = new
                abs_delta = abs(delta)
                sum_delta += abs_delta
                # rounding is monotone, so this overlap is never negative
                cancelled += abs(old) + abs_delta - abs(new)
            count += len(column)
            abs_fl = abs(fl)
            contracted = abs_fl - sum_delta
            if contracted <= 0.0:  # not max(0.0, .): that maps NaN to 0
                contracted = 0.0
            resid = resid - abs_fl + sum_delta - cancelled
            if resid < 0.0:  # a NaN stays NaN for the exact check to catch
                resid = 0.0
            total_c += cancelled
            total_k += contracted
            win_c += cancelled
            win_k += contracted
        if resid <= stop_at:
            break
    acc[:] = (resid, win_c, win_k, total_c, total_k)
    delivered[0] = count
    return taken


def bind_py(order, indptr, rows, vals, f, h, acc, delivered):
    """:func:`steps_py` bound to one run's arrays: the fallback of :func:`load`.

    Per-column tuples, built once per run, halve the cost of a step against
    slicing the arrays at every step.
    """
    bounds, rows, vals = indptr.tolist(), rows.tolist(), vals.tolist()
    columns = [tuple(zip(rows[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return functools.partial(steps_py, order.tolist(), columns, f.data, h.data, acc, delivered)


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
    """The ``bind`` functions of the module docstring; ``vlu`` is None without a compiler."""

    clu: Callable
    vlu: Callable | None


FALLBACK = Kernels(bind_py, None)


@functools.cache
def load() -> Kernels:
    """The compiled kernels, or :data:`FALLBACK` when they cannot be built."""
    source = SOURCE.read_bytes()
    key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(source))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fluidsolve"
    target = cache / f"_clu-{key:08x}.so"
    try:
        if not target.exists():
            _compile(source, target)
        lib = ctypes.CDLL(str(target))
    except OSError:  # no cc, a failed build, a cache directory that cannot be written
        return FALLBACK
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    clu, vlu = lib.fluidsolve_clu_steps, lib.fluidsolve_vlu_steps
    clu.argtypes = [i64, i64, ctypes.c_double, ptr, i64, *[ptr] * 7]
    vlu.argtypes = [i64, ctypes.c_double, i64, i64, *[ptr] * 7]
    clu.restype = vlu.restype = i64
    return Kernels(_bind_clu(clu), _bind_vlu(vlu))
