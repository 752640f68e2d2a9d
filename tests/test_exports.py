"""Every name that designkit or one of its modules exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import designkit

MODULES = ["designkit"] + [
    f"designkit.{info.name}" for info in pkgutil.iter_modules(designkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], name

