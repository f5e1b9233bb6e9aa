"""Locate the checkout and import budgetreg from its ``src`` tree.

The benchmark always measures the package next to it, never an installed
copy, so the import path is pinned to ``<checkout>/src`` and checked after
the import.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # traces, counter records and scratch files
LAYERS = (
    "sampling", "estimator", "solver_ridge", "solver_lasso", "two_phase",
    "baselines", "harness", "core", "datagen", "ingest", "cli",
)


class MissingPackage(RuntimeError):
    """The checkout holds no ``src/budgetreg`` package."""


def import_package():
    """Import budgetreg and every layer module from this checkout; raise
    MissingPackage otherwise."""
    if not (SRC / "budgetreg" / "__init__.py").is_file():
        raise MissingPackage(f"no budgetreg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import budgetreg

    if Path(budgetreg.__file__).resolve().parent != SRC / "budgetreg":
        raise MissingPackage(f"budgetreg was imported from {budgetreg.__file__}, not {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"budgetreg.{layer}")
    return budgetreg


def rebind(package, original, replacement):
    """Point every name bound to ``original`` in the package's modules at
    ``replacement``; return the (module, name) pairs that changed."""
    changed = []
    prefix = package.__name__ + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed
