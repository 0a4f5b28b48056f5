"""Every name a module of borrays exports exists, every public
definition of a module is exported, and every exported dataclass is a
value: frozen, with no mutable container in its fields."""

import dataclasses
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


def _exported_dataclasses():
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            value = getattr(module, attr)
            if inspect.isclass(value) and dataclasses.is_dataclass(value):
                found[value.__qualname__] = value
    return found


EXPORTED_DATACLASSES = _exported_dataclasses()


def _samples():
    """One instance of each exported dataclass, built by the library."""
    from borrays import diagrams, groupoid, homcount, presentations, sequences
    a = diagrams.builtin("A")
    p = presentations.presentation(a)
    hom = next(homcount.enumerate_homs(p, 2))
    s = sequences.parse_sequence("pre: Ab ; per: A As")
    t = sequences.parse_sequence("per: As A")
    values = [a, p, presentations.abelianization(p),
              homcount.count_classes_burnside(p, 2), next(iter(hom.values())),
              next(iter(groupoid.realized_closure())), s, s.period[0],
              sequences.tails_equal(s, t), sequences.equivalence(s, t)]
    return {type(v).__qualname__: v for v in values}


def test_every_exported_dataclass_has_a_sample():
    assert sorted(_samples()) == sorted(EXPORTED_DATACLASSES)


@pytest.mark.parametrize("name", sorted(EXPORTED_DATACLASSES))
def test_exported_dataclasses_are_values(name):
    """Frozen, and no field of a sample holds a dict, list, set or
    bytearray, so a shared instance cannot be changed in place."""
    cls = EXPORTED_DATACLASSES[name]
    assert cls.__dataclass_params__.frozen
    sample = _samples()[name]
    mutable = [f.name for f in dataclasses.fields(cls)
               if isinstance(getattr(sample, f.name), (dict, list, set, bytearray))]
    assert mutable == []
