"""Camera placement optimization for 3D reconstruction of noisy plant scenes.

Places N cameras in continuous space to maximize a geometric reconstruction
reward over a point cloud, using a Gaussian process surrogate with expected
improvement, and compares the regret against a circular-formation baseline.
"""

import ctypes
import os
from pathlib import Path

# One BLAS thread per process: the experiment's worker processes are the
# parallelism, OpenBLAS threads spin while they wait, and the thread count
# changes the last bits of a GP with about 130 or more points. These
# defaults only take effect before numpy loads (the console script imports
# this package first); they keep OpenBLAS from starting a thread pool as
# numpy loads, and set MKL unless MKL_NUM_THREADS is given.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy
import scipy

# The modules are bound before the star imports, which rebind ``reward`` to
# the function; the package exports what each module's ``__all__`` lists.
from . import acquisition, geometry, gp, planner, reward, scene

__all__ = ["__version__", *acquisition.__all__, *geometry.__all__, *gp.__all__,
           *planner.__all__, *reward.__all__, *scene.__all__]

from .acquisition import *
from .geometry import *
from .gp import *
from .planner import *
from .reward import *
from .scene import *

__version__ = "0.1.0"

# The OpenBLAS builds that the numpy and scipy wheels bundle, and the setter
# each exports for its thread count.
_BUNDLED_OPENBLAS = (
    (numpy, "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread() -> None:
    """Set every bundled OpenBLAS to one thread, whatever the environment says.

    Runs once, when this package is imported; forked processes (the
    experiment's workers) inherit the setting. It also covers numpy
    imported before this package and an ``OPENBLAS_NUM_THREADS`` given by
    the caller. A library that is not found (another BLAS, or a package
    built without a bundled one) is skipped.
    """
    for package, pattern, setter in _BUNDLED_OPENBLAS:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


_one_blas_thread()

