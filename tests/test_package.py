"""What ``import viewplan`` exports: each module's ``__all__``, and nothing else."""

import importlib

import pytest

import viewplan

MODULES = [importlib.import_module(f"viewplan.{name}")
           for name in ("acquisition", "geometry", "gp", "planner", "reward", "scene")]


def test_all_is_the_version_and_every_module_all():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(set(names)) == len(names)
    assert sorted(viewplan.__all__) == sorted(names)


# On viewplan.reward this also checks that the package's ``reward`` is the
# function, which the star import binds over the module.
@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(viewplan, name) is getattr(module, name), name
