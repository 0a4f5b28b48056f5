"""Every name a module of borrays exports exists, and every public
definition of a module is exported."""

import importlib
import inspect
import pkgutil

import pytest

import borrays

MODULES = ["borrays"] + [
    f"borrays.{info.name}" for info in pkgutil.iter_modules(borrays.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    """Each public function or class a module defines is in its ``__all__``."""
    module = importlib.import_module(name)
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    ]
    assert [attr for attr in defined if attr not in module.__all__] == []
