"""Every name a module exports must exist, so deletions and moves leave no
stale ``__all__`` entries behind."""

import pkgutil

import pytest

import budgetreg

MODULES = ["budgetreg", *sorted(f"budgetreg.{info.name}" for info in pkgutil.iter_modules(budgetreg.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    exec(f"from {module} import *", {})  # AttributeError names a stale entry
