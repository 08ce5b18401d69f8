"""The traced benchmark run reaches the program only through exported names.

``perfbench/tracer.py`` looks up functions and methods by name in
``fluidsolve`` and ``fluidsolve.cli`` and wraps them. Installing its recorder
in a fresh interpreter fails as soon as one of those names is deleted or
renamed, so this test guards the benchmark's view of the program.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    code = "import sys; sys.path.insert(0, 'perfbench'); from tracer import Recorder; Recorder().install()"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
