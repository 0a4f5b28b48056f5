"""Every name a module of borrays exports exists."""

import importlib
import pkgutil

import pytest

import borrays

MODULES = ["borrays"] + [
    f"borrays.{info.name}" for info in pkgutil.iter_modules(borrays.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
