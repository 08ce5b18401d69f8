"""Fixtures shared by the test modules."""

import pytest

from fluidsolve import _clu


@pytest.fixture(params=["kernel", "fallback"])
def clu_path(request, monkeypatch):
    """Runs through the compiled kernel or as without a compiler (None: unchanged).

    Without a compiler, coordinate-level runs use the kernel's Python twin and
    vector-level runs take one step per call of diffuse_vector's arithmetic.
    """
    if request.param == "fallback":
        monkeypatch.setattr(_clu, "load", lambda: _clu.FALLBACK)
    elif request.param == "kernel" and _clu.load() is _clu.FALLBACK:
        pytest.skip("no C compiler to build the diffusion kernel")
    return request.param
