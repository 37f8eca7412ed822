import importlib
import pkgutil

import pytest

import framesync

EXPORTING = [
    name
    for name in ["framesync"] + [
        m.name for m in pkgutil.iter_modules(framesync.__path__, "framesync.")
    ]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_resolves_every_exported_name(name):
    # a name left in __all__ after its definition is gone fails the import
    exec(f"from {name} import *", {})
