"""The README's library examples run as written against the package in ``src/``."""

import os
import re
import subprocess
import sys

from helpers import ROOT


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k, code in enumerate(blocks, start=1):
        # a fresh interpreter, outside the repo, with warnings as errors as in this suite
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"python block {k} of README.md failed:\n{proc.stderr}"
