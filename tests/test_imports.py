"""The package under ``src/`` imports numpy and the standard library only."""

import ast
import sys

from helpers import ROOT

ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path):
    """Top-level names of every absolute import in ``path``, function-level ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    sources = sorted((ROOT / "src" / "fluidsolve").glob("*.py"))
    assert any(path.name == "io.py" for path in sources)
    foreign = {(path.name, name) for path in sources for name in absolute_imports(path)
               if name not in ALLOWED}
    assert not foreign, f"imports outside numpy and the standard library: {sorted(foreign)}"
