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

from .acquisition import EiState, ei_value, ei_values, maximize_ei
from .geometry import (
    CameraPose,
    Placement,
    Point3,
    PointCloud,
    SearchSpace,
    decode,
)
from .gp import (
    KERNEL_FAMILIES,
    FactorizationError,
    GpModel,
    KernelSpec,
    kernel_matrix,
)
from .planner import (
    BaselineResult,
    BoConfig,
    ExperimentReport,
    RegretTrace,
    circular_baseline,
    init_design,
    run_bo,
    run_experiment,
    simple_regret,
)
from .reward import RewardParams, noisy_reward, reward
from .scene import (
    DEFAULT_SIGMA,
    LAYOUTS,
    NoiseModel,
    NoiseRealization,
    SceneSpec,
    apply_noise,
    generate_scene,
    sample_realization,
)

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

__all__ = [
    "__version__",
    "apply_noise",
    "BaselineResult",
    "BoConfig",
    "CameraPose",
    "circular_baseline",
    "decode",
    "DEFAULT_SIGMA",
    "ei_value",
    "ei_values",
    "EiState",
    "ExperimentReport",
    "FactorizationError",
    "generate_scene",
    "GpModel",
    "init_design",
    "KERNEL_FAMILIES",
    "kernel_matrix",
    "KernelSpec",
    "LAYOUTS",
    "maximize_ei",
    "NoiseModel",
    "NoiseRealization",
    "noisy_reward",
    "Placement",
    "Point3",
    "PointCloud",
    "RegretTrace",
    "reward",
    "RewardParams",
    "run_bo",
    "run_experiment",
    "sample_realization",
    "SceneSpec",
    "SearchSpace",
    "simple_regret",
]
