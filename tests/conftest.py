"""Fixtures shared by the test modules."""

import pytest

from fluidsolve import _clu


@pytest.fixture(params=["kernel", "fallback"])
def clu_path(request, monkeypatch):
    """Runs through the compiled kernel or as without a compiler (None: unchanged).

    Without a compiler, runs take the per-step engine's own steps: coordinate-level
    ones _coordinate_step calls, vector-level ones _vector_step calls, in the kernels' loops.
    """
    if request.param == "fallback":
        monkeypatch.setattr(_clu, "load", lambda: None)
    elif request.param == "kernel" and _clu.load() is None:
        pytest.skip("no C compiler to build the diffusion kernel")
    return request.param
