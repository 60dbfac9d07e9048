"""Camera placement optimization for 3D reconstruction of noisy plant scenes.

Places N cameras in continuous space to maximize a geometric reconstruction
reward over a point cloud, using a Gaussian process surrogate with expected
improvement, and compares the regret against a circular-formation baseline.
"""

import os

# One BLAS thread per process unless OPENBLAS_NUM_THREADS (MKL_NUM_THREADS
# for MKL) is set. The experiment's worker processes are the parallelism, and
# OpenBLAS threads spin while they wait, so more threads than cores slow
# every cell down. It only takes effect before numpy loads; the console
# script imports this package first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .acquisition import EiState, ei_value, ei_values, maximize_ei
from .geometry import (
    CameraPose,
    Placement,
    Point3,
    PointCloud,
    SearchSpace,
    decode,
    encode,
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
    "encode",
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
