"""The benchmark's tracer still finds every program attribute it wraps.

``bench/tracing.py`` replaces named attributes of the package (its
``TARGETS``) with timing wrappers.  A change that renames or drops one of them
breaks the benchmark; this test fails then too, where the benchmark's own
smoke test is not collected.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_tracer_installs_on_the_program() -> None:
    code = (
        "from tracing import TARGETS, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(sorted(tracer.stats) == sorted(TARGETS))"
    )
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
