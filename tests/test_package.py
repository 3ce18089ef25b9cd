"""The package's public surface: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fedsum

MODULES = ["fedsum"] + [
    f"fedsum.{info.name}" for info in pkgutil.iter_modules(fedsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    assert len(set(exported)) == len(exported)
