"""The package's exports: ``__all__`` lists its public names, and every
annotation on them resolves, so ``typing.get_type_hints`` works on each."""

import types
import typing

import pytest

import weylpath
from weylpath import RootSystem


def test_all_lists_the_public_names():
    public = {name for name, value in vars(weylpath).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(weylpath.__all__) == len(set(weylpath.__all__))
    assert set(weylpath.__all__) == public


CALLABLES = [name for name in weylpath.__all__ if callable(getattr(weylpath, name))]
METHODS = [name for name, value in vars(RootSystem).items()
           if not name.startswith("_") and callable(value)]


@pytest.mark.parametrize("name", CALLABLES)
def test_export_annotations_resolve(name):
    typing.get_type_hints(getattr(weylpath, name))


@pytest.mark.parametrize("name", METHODS)
def test_root_system_method_annotations_resolve(name):
    typing.get_type_hints(getattr(RootSystem, name))

