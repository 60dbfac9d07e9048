"""What ``import viewplan`` exports, and that neither it nor a command imports a scipy subpackage."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import viewplan
from viewplan import _compiled

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


# scipy's subpackages that viewplan's compiled routines live in. Importing
# any of them costs about half a second of every start, so neither the
# import nor a command run may pull one in.
SCIPY_PACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special", "scipy.stats")

# Pinned to one CPU, every cell and baseline candidate runs in this process,
# so a subpackage imported while they run would show in its sys.modules.
COMMANDS_SCRIPT = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from viewplan import cli
out = sys.argv[1]
for argv in (["plan", "--smoke"], ["baseline"], ["experiment", "--smoke", "--scenes", "single"]):
    assert cli.main([*argv, "--out", out]) == 0, argv
print(",".join(name for name in sys.argv[2:] if name in sys.modules))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_commands_import_no_scipy_subpackage(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(viewplan.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", COMMANDS_SCRIPT, str(tmp_path), *SCIPY_PACKAGES],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == ""
    assert (tmp_path / "single_report.csv").is_file()


def test_compiled_routines_are_scipys_own():
    """Imported after viewplan, scipy's packages expose the very objects viewplan loaded.

    The private modules are reached by ``from`` imports, as scipy's own code
    reaches them: a package imported after viewplan loaded one of them does
    not bind it as an attribute.
    """
    from scipy.linalg import lapack
    from scipy.optimize._lbfgsb import setulb
    from scipy.spatial import distance
    from scipy.special import ndtr

    assert _compiled.dpotrf is lapack.dpotrf
    assert _compiled.dpotrs is lapack.dpotrs
    assert _compiled.dtrtrs is lapack.dtrtrs
    assert _compiled.setulb is setulb
    assert _compiled.cdist_sqeuclidean is distance._distance_pybind.cdist_sqeuclidean
    assert _compiled.ndtr is ndtr


def test_missing_compiled_module_is_named():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
        _compiled._load("linalg", "_no_such_module")
