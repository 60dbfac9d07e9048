"""The compiled scipy routines that viewplan calls, loaded without their subpackages.

``import scipy.linalg`` (or ``optimize``, ``spatial``, ``special``) runs the
whole subpackage, about half a second and 49 MB of every start, while
viewplan calls six compiled functions from four extension modules. Each of
those modules is loaded here straight from scipy's install directory under
its own dotted name, so a later ``import scipy.linalg`` reuses the same
module object, and one imported earlier is reused here. (scipy reaches the
module by ``from . import``, which looks in ``sys.modules``; a package
imported after this does not get it as an attribute.) The functions are
called as scipy's Python wrappers call them; :func:`solve_triangular` and
:func:`cho_solve` replicate the two wrappers viewplan used, checks included.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy


def _load(package: str, name: str):
    """scipy's extension module ``scipy.<package>.<name>``, loaded by path once."""
    dotted = f"scipy.{package}.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    folder = Path(scipy.__file__).parent / package
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{name}{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy's compiled module {dotted} is not in {folder} (scipy "
                          f"{scipy.__version__}; viewplan needs scipy>=1.15)", name=dotted)
    spec = importlib.util.spec_from_file_location(dotted, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[dotted] = module
    return module


_flapack = _load("linalg", "_flapack")
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
setulb = _load("optimize", "_lbfgsb").setulb
# What scipy.spatial.distance.cdist(a, b, metric="sqeuclidean") calls after
# np.asarray; it checks the shapes itself.
cdist_sqeuclidean = _load("spatial", "_distance_pybind").cdist_sqeuclidean
ndtr = _load("special", "_special_ufuncs").ndtr


def solve_triangular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=True)`` for square float64 ``a``.

    As scipy does, a C-ordered ``a`` is solved as its transpose, an upper
    triangular Fortran-ordered matrix, so both layouts give scipy's bits.
    """
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=1)
    else:
        x, info = dtrtrs(a.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((chol, True), b)``: solve with a lower Cholesky factor."""
    chol, b = np.asarray_chkfinite(chol), np.asarray_chkfinite(b)
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x
