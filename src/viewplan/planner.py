"""Optimization loop, circular baseline, and the regret experiment grid."""

from __future__ import annotations

import math
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from . import geometry
from .acquisition import EiState, maximize_ei
from .geometry import CameraPose, Placement, PointCloud, SearchSpace, decode
from .gp import KERNEL_FAMILIES, FactorizationError, GpModel
from .reward import RewardParams, noisy_reward
from .scene import NoiseModel, sample_realization, apply_noise

__all__ = [
    "OPTIMUM_VALUE",
    "BoConfig",
    "RegretTrace",
    "BaselineResult",
    "ExperimentReport",
    "simple_regret",
    "init_design",
    "run_bo",
    "circular_baseline",
    "run_experiment",
]

# Regret reference: rewards live in [0, 1], so 1 upper-bounds any placement's
# value and gives a scene-independent target shared by all methods.
OPTIMUM_VALUE = 1.0


@dataclass(frozen=True)
class BoConfig:
    """Everything one optimization run depends on besides the cloud itself."""

    n_cameras: int
    n_init: int = 50
    n_iters: int = 200
    kernel: str = "matern25"
    reward_params: RewardParams = field(default_factory=RewardParams)
    space: SearchSpace = field(default_factory=SearchSpace.default)
    rng_seed: int = 0
    af_budget: int = 2048
    refit_every: int = 0

    def __post_init__(self):
        if self.n_cameras < 2:
            raise ValueError("n_cameras must be at least 2")
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose from {KERNEL_FAMILIES}")
        if self.af_budget < 1:
            raise ValueError("af_budget must be at least 1")
        if self.refit_every < 0:
            raise ValueError("refit_every must be nonnegative")

    def dim(self) -> int:
        return 5 * self.n_cameras


def simple_regret(value: float) -> float:
    """Gap between :data:`OPTIMUM_VALUE` and an achieved value."""
    return OPTIMUM_VALUE - value


@dataclass
class RegretTrace:
    """Observation-by-observation record of one optimization run.

    The first ``n_init`` entries are the space-filling design, the rest the
    sequential queries. ``incomplete`` marks runs cut short by a surrogate
    factorization failure.
    """

    inputs: list
    observed: list
    n_init: int
    incomplete: bool = False

    def __len__(self) -> int:
        return len(self.observed)

    def running_best(self) -> np.ndarray:
        return np.maximum.accumulate(np.asarray(self.observed, dtype=float))

    def regrets(self) -> np.ndarray:
        return OPTIMUM_VALUE - self.running_best()

    def bo_regrets(self) -> np.ndarray:
        """Regret after each sequential query (design rows excluded)."""
        return self.regrets()[self.n_init :]

    def best_value(self) -> float:
        return float(self.running_best()[-1])

    def final_regret(self) -> float:
        return float(self.regrets()[-1])

    def best_input(self) -> np.ndarray:
        idx = int(np.argmax(np.asarray(self.observed)))
        return np.asarray(self.inputs[idx], dtype=float)

    def rows(self):
        """(iteration, phase, observed, running_best, simple_regret) tuples."""
        best = self.running_best()
        for t, value in enumerate(self.observed):
            phase = "init" if t < self.n_init else "bo"
            yield (t + 1, phase, float(value), float(best[t]), simple_regret(float(best[t])))


@dataclass(frozen=True)
class BaselineResult:
    """Best-of-n circular formation on one noisy cloud."""

    placement: Placement
    best_value: float
    values: Tuple[float, ...]
    radii: Tuple[float, ...]
    heights: Tuple[float, ...]

    def final_regret(self) -> float:
        return simple_regret(self.best_value)

    def rows(self):
        best = np.maximum.accumulate(np.asarray(self.values, dtype=float))
        for t, value in enumerate(self.values):
            yield (t + 1, "baseline", float(value), float(best[t]), simple_regret(float(best[t])))


def init_design(config: BoConfig, cloud: PointCloud) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded design, uniform in the centroid-relative search coordinates.

    Returns ``(xs, zs, ys)``: the search coordinates, their placements as
    absolute vectors in :func:`decode`'s format and the observed values,
    each ``ys[k]`` the noisy reward of ``decode(zs[k])``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(0,)))
    xs = rng.uniform(0.0, 1.0, (config.n_init, config.dim()))
    centroid = cloud.centroid()
    zs = np.array([geometry._aimed_encoding(x, config.space, centroid) for x in xs])
    ys = np.array([noisy_reward(decode(z, config.space), cloud, config.reward_params) for z in zs])
    return xs, zs, ys


def run_bo(config: BoConfig, cloud: PointCloud) -> RegretTrace:
    """Sequential surrogate optimization of the noisy reward.

    The surrogate is fitted on, and expected improvement maximized over, the
    centroid-relative search coordinates of :func:`init_design`; the trace
    records each evaluated placement as an absolute vector in
    :func:`decode`'s format.
    Hyperparameters are fitted once on the initial design (optionally
    refreshed every ``refit_every`` queries) and frozen in between. A
    factorization failure ends the run early with the trace flagged
    incomplete rather than raising; a placement that cannot be scored (a
    camera on a scene point or on the centroid) raises ValueError.
    """
    xs, zs, ys = init_design(config, cloud)
    trace = RegretTrace(inputs=list(zs), observed=[float(v) for v in ys], n_init=config.n_init)
    centroid = cloud.centroid()

    fit_seed = np.random.SeedSequence(config.rng_seed, spawn_key=(1,))
    af_rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(2,)))
    af_seeds = af_rng.integers(0, 2**31 - 1, size=max(config.n_iters, 1))

    try:
        model = GpModel.fit(xs, ys, family=config.kernel, seed=fit_seed)
    except FactorizationError:
        trace.incomplete = True
        return trace

    for t in range(config.n_iters):
        try:
            if config.refit_every and t > 0 and t % config.refit_every == 0:
                model = GpModel.fit(model.inputs, model.targets, family=config.kernel, seed=fit_seed)
            state = EiState.from_model(model)
            x = maximize_ei(state, budget=config.af_budget, rng_seed=int(af_seeds[t]))
            z = geometry._aimed_encoding(x, config.space, centroid)
            value = noisy_reward(decode(z, config.space), cloud, config.reward_params)
            model.add_observation(x, value)
        except FactorizationError:
            trace.incomplete = True
            break
        trace.inputs.append(z)
        trace.observed.append(float(value))
    return trace


def circular_baseline(config: BoConfig, cloud: PointCloud, n_candidates: int = 50) -> BaselineResult:
    """Best of ``n_candidates`` centroid-facing circular formations.

    Each candidate spreads the cameras evenly on a horizontal circle that
    surrounds the cloud, sampling the radius uniformly between the cloud's
    enclosing horizontal radius and the box half-extent and the height
    uniformly over the box's vertical range; circles that leave the box are
    resampled.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(0xBA5E,)))
    centroid = cloud.centroid()
    lo = np.array(config.space.lower)
    hi = np.array(config.space.upper)
    r_cap = 0.5 * min(hi[0] - lo[0], hi[1] - lo[1])
    r_enclose = float(
        np.hypot(cloud.points[:, 0] - centroid[0], cloud.points[:, 1] - centroid[1]).max()
    )
    if r_enclose >= r_cap:
        raise ValueError("search box cannot hold a formation surrounding the cloud")
    angles = 2.0 * math.pi * np.arange(config.n_cameras) / config.n_cameras

    values, radii, heights = [], [], []
    best_value, best_placement = -math.inf, None
    for _ in range(n_candidates):
        for _ in range(1000):
            radius = rng.uniform(r_enclose, r_cap)
            height = rng.uniform(lo[2], hi[2])
            xs = centroid[0] + radius * np.cos(angles)
            ys = centroid[1] + radius * np.sin(angles)
            if lo[0] <= xs.min() and xs.max() <= hi[0] and lo[1] <= ys.min() and ys.max() <= hi[1]:
                break
        else:
            raise ValueError("could not sample an in-box circular candidate")
        placement = Placement(tuple(
            CameraPose.looking_at((x, y, height), centroid) for x, y in zip(xs, ys)
        ))
        value = noisy_reward(placement, cloud, config.reward_params)
        values.append(value)
        radii.append(radius)
        heights.append(height)
        if value > best_value:
            best_value, best_placement = value, placement
    return BaselineResult(
        placement=best_placement,
        best_value=float(best_value),
        values=tuple(float(v) for v in values),
        radii=tuple(float(r) for r in radii),
        heights=tuple(float(h) for h in heights),
    )


@dataclass
class ExperimentReport:
    """Traces and baselines for a (kernel x realization) grid on one scene."""

    scene_label: str
    kernels: Tuple[str, ...]
    n_realizations: int
    n_iters: int
    traces: Dict[Tuple[str, int], RegretTrace] = field(default_factory=dict)
    baselines: Dict[int, BaselineResult] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    tracebacks: Dict[str, str] = field(default_factory=dict)

    def mean_bo_regrets(self, kernel: str) -> np.ndarray:
        """Mean regret per sequential iteration across complete realizations."""
        curves = [
            tr.bo_regrets()
            for (k, _), tr in sorted(self.traces.items())
            if k == kernel and not tr.incomplete
        ]
        if not curves:
            return np.full(self.n_iters, np.nan)
        return np.mean(np.stack(curves), axis=0)

    def baseline_mean_regret(self) -> float:
        if not self.baselines:
            return float("nan")
        return float(np.mean([b.final_regret() for b in self.baselines.values()]))

    def n_cells(self) -> int:
        return len(self.kernels) * self.n_realizations + self.n_realizations


# Failures that mark one experiment cell as failed; anything else is a bug.
_CELL_ERRORS = (ValueError, FactorizationError)


def _cell_seed(master: int, spawn_key: Tuple[int, ...]) -> int:
    return int(np.random.SeedSequence(master, spawn_key=spawn_key).generate_state(1)[0])


def _run_cell(name: str, args: tuple):
    """Run one experiment cell: this module's ``run_bo`` or ``circular_baseline``.

    The function is looked up by name when the cell runs, so a replaced
    module attribute also applies in a forked worker. Returns ``(result,
    None, None)``, or ``(None, error, traceback)`` for a cell that raised one
    of ``_CELL_ERRORS``; any other exception propagates.
    """
    try:
        return globals()[name](*args), None, None
    except _CELL_ERRORS as err:
        return None, f"{type(err).__name__}: {err}", traceback.format_exc()


def _cell_workers(n_cells: int) -> int:
    """Worker processes for ``n_cells`` cells: one per usable CPU, at most one per cell."""
    if hasattr(os, "sched_getaffinity"):
        return min(n_cells, len(os.sched_getaffinity(0)))
    return min(n_cells, os.cpu_count() or 1)


def run_experiment(
    scene_cloud: PointCloud,
    noise_model: NoiseModel,
    base_config: BoConfig,
    kernels: Sequence[str] = KERNEL_FAMILIES,
    n_realizations: int = 5,
    n_baseline: int = 50,
    scene_label: str = "scene",
) -> ExperimentReport:
    """Paired regret comparison over noise realizations and kernels.

    Every method (and the baseline) sees the identical noisy cloud within a
    realization. The whole grid is a pure function of the seeds in
    ``base_config``, ``noise_model`` and the scene itself, so the report does
    not depend on how the cells are run. With the ``fork`` start method and
    at least two usable CPUs, the cells run in forked worker processes, one
    per usable CPU and at most one per cell; otherwise they run one after
    another in this process. The workers inherit this process's OpenBLAS
    setting: importing the package sets the OpenBLAS that numpy and scipy
    bundle to one thread, so the workers do not oversubscribe the cores and
    the grid's bits do not depend on ``OPENBLAS_NUM_THREADS``. A cell that
    fails on bad input or a numerical failure (``ValueError``,
    ``FactorizationError``) only annotates the report with its error and
    traceback. Any other exception propagates, cancels the cells not yet
    started and returns once every worker has exited.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    for k in kernels:
        if k not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel {k!r}")
    report = ExperimentReport(
        scene_label=scene_label,
        kernels=tuple(kernels),
        n_realizations=n_realizations,
        n_iters=base_config.n_iters,
    )

    noisy_clouds = {
        rid: apply_noise(scene_cloud, sample_realization(noise_model, scene_cloud, rid))
        for rid in range(n_realizations)
    }
    master = base_config.rng_seed

    # (label, where the result goes, its key, function name, arguments)
    cells = []
    for kernel_idx, kernel in enumerate(report.kernels):
        for rid in range(n_realizations):
            seed = _cell_seed(master, (1, kernel_idx, rid))
            cfg = replace(base_config, kernel=kernel, rng_seed=seed)
            cells.append((f"{kernel}/r{rid}", report.traces, (kernel, rid),
                          "run_bo", (cfg, noisy_clouds[rid])))
    for rid in range(n_realizations):
        cfg = replace(base_config, rng_seed=_cell_seed(master, (2, rid)))
        cells.append((f"baseline/r{rid}", report.baselines, rid,
                      "circular_baseline", (cfg, noisy_clouds[rid], n_baseline)))
    labels, targets, keys, names, args = zip(*cells)

    workers = _cell_workers(len(cells))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            outcomes = list(pool.map(_run_cell, names, args))
    else:
        outcomes = list(map(_run_cell, names, args))

    for label, target, key, (result, error, tb) in zip(labels, targets, keys, outcomes):
        if error is not None:
            report.errors[label] = error
            report.tracebacks[label] = tb
            continue
        target[key] = result
        if isinstance(result, RegretTrace) and result.incomplete:
            report.errors[label] = "incomplete: surrogate factorization failed"
    return report
