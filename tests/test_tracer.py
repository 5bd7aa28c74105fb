"""The benchmark's tracer (``ctmbench/tracer.py``) still finds every function
and method it wraps.

The tracer patches the package by name, so renaming or removing one of
those names breaks only a traced benchmark run.  The install runs in a
fresh interpreter, so the package the other tests import stays unpatched.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.install(tracer.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "ctmbench")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
