"""The benchmark's own smoke suite passes against this source tree.

Runs ``python3 -m pytest -q perfbench/test_smoke.py``, which drives every
benchmark workload at its smallest size, traced and untraced, through the
hooks the benchmark installs on budgetreg's public functions and configs.
A change under ``src/`` that breaks one of those hooks fails here.  The
smoke suite traces each workload only at its smallest size, so each is
also traced once at its full size.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# run.main with its work directory (traces, counter records) moved out of the checkout's .perfbench/
TRACED_RUN = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); import run; "
              "run.WORK = pathlib.Path(sys.argv[2]); sys.exit(run.main(sys.argv[3:]))")


def test_perfbench_smoke_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/test_smoke.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["cv-grid", "wide-pass", "csv-cli"])
def test_full_size_traced_run_is_correct(tmp_path, workload):
    """Every per-layer metric the benchmark requires is read and every run
    passes its checks on the full-size traced unit."""
    args = ["--workload", workload, "--seed", "7", "--trace", "1", "--size", "full", "--seconds", "1"]
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(tmp_path), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert (tmp_path / f"counters-{workload}-full-seed7.json").is_file()
