"""The benchmark's own smoke suite passes against this source tree.

Runs ``python3 -m pytest -q perfbench/test_smoke.py``, which drives every
benchmark workload at its smallest size, traced and untraced, through the
hooks the benchmark installs on budgetreg's public functions and configs.
A change under ``src/`` that breaks one of those hooks fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/test_smoke.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
