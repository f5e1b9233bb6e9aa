"""The tests import budgetreg from this checkout's ``src`` tree (pytest's
``pythonpath`` setting in pyproject.toml); the CLI subprocesses they start
get the same tree through ``PYTHONPATH``, so a fresh checkout runs the
suite as plain ``python -m pytest``."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
