"""Fixed-seed weight fingerprints of all twelve algorithms stay unchanged.

Runs the benchmark's fingerprint check (``perfbench/fingerprints.py``),
which trains every algorithm once on a small fixed pool and compares the
SHA-256 of its weights and its budget with ``perfbench/fingerprints.json``.
A change that alters the random streams on purpose regenerates that file
with ``--write`` and says so.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprints_match_the_reference():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "fingerprints.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12 of 12 fingerprints match" in proc.stdout
