"""Optimization loop, circular baseline, and the regret experiment grid."""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
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
        if self.n_init < 2:
            raise ValueError("n_init must be at least 2")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose from {KERNEL_FAMILIES}")
        # The scrambled Sobol' candidates hold at most 2**30 distinct points.
        if not 1 <= self.af_budget <= 2**30:
            raise ValueError("af_budget must be between 1 and 2**30")
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
    incomplete rather than raising, every placement scored so far kept; a
    placement that cannot be scored (a camera on a scene point or on the
    centroid) raises ValueError.
    """
    xs, zs, ys = init_design(config, cloud)
    trace = RegretTrace(inputs=list(zs), observed=[float(v) for v in ys], n_init=config.n_init)
    centroid = cloud.centroid()

    fit_seed = np.random.SeedSequence(config.rng_seed, spawn_key=(1,))
    af_rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(2,)))
    af_seeds = af_rng.integers(0, 2**31 - 1, size=max(config.n_iters, 1))

    try:
        model = GpModel.fit(xs, ys, family=config.kernel, seed=fit_seed)
        for t in range(config.n_iters):
            if config.refit_every and t > 0 and t % config.refit_every == 0:
                model = GpModel.fit(model.inputs, model.targets, family=config.kernel, seed=fit_seed)
            state = EiState.from_model(model)
            x = maximize_ei(state, budget=config.af_budget, rng_seed=int(af_seeds[t]))
            z = geometry._aimed_encoding(x, config.space, centroid)
            value = noisy_reward(decode(z, config.space), cloud, config.reward_params)
            trace.inputs.append(z)
            trace.observed.append(float(value))
            model.add_observation(x, value)
    except FactorizationError:
        trace.incomplete = True
    return trace


def circular_baseline(config: BoConfig, cloud: PointCloud, n_candidates: int = 50) -> BaselineResult:
    """Best of ``n_candidates`` centroid-facing circular formations.

    Each candidate spreads the cameras evenly on a horizontal circle that
    surrounds the cloud, sampling the radius uniformly between the cloud's
    enclosing horizontal radius and the box half-extent and the height
    uniformly over the box's vertical range; circles that leave the box are
    resampled. All candidates are sampled before any is scored, so a
    sampling failure surfaces even when scoring an earlier candidate would
    have failed first. The candidates are then scored in contiguous chunks,
    one per usable CPU, in forked worker processes that inherit the cloud
    instead of receiving a pickled copy (see :func:`_fork_map`; in this
    process under ``taskset -c 0``, without ``fork``, or inside an
    experiment's worker). The result does not depend on how they are
    scored: the winner is the first best candidate, and a scoring error is
    the first one in candidate order.
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

    placements, radii, heights = [], [], []
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
        placements.append(Placement(tuple(
            CameraPose.looking_at((x, y, height), centroid) for x, y in zip(xs, ys)
        )))
        radii.append(radius)
        heights.append(height)

    workers = _workers(n_candidates)
    bounds = [k * n_candidates // workers for k in range(workers + 1)]
    chunks = [(placements[a:b], cloud, config.reward_params) for a, b in zip(bounds, bounds[1:])]
    values = [float(v) for chunk in _fork_map(_score, chunks, workers) for v in chunk]
    best = values.index(max(values))
    return BaselineResult(
        placement=placements[best],
        best_value=values[best],
        values=tuple(values),
        radii=tuple(float(r) for r in radii),
        heights=tuple(float(h) for h in heights),
    )


def _score(placements: Sequence[Placement], cloud: PointCloud, params: RewardParams) -> list:
    """Noisy rewards of ``placements``, one after another, in order."""
    return [noisy_reward(placement, cloud, params) for placement in placements]


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


def _run_cell(fn, args: tuple):
    """Run one experiment cell, ``fn(*args)``.

    Returns ``(result, None, None)``, or ``(None, error, traceback)`` for a
    cell that raised one of ``_CELL_ERRORS``; any other exception propagates.
    """
    try:
        return fn(*args), None, None
    except _CELL_ERRORS as err:
        return None, f"{type(err).__name__}: {err}", traceback.format_exc()


def _workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: one per usable CPU, at most one per task."""
    if hasattr(os, "sched_getaffinity"):
        return min(n_tasks, len(os.sched_getaffinity(0)))
    return min(n_tasks, os.cpu_count() or 1)


# prctl option: the signal this process gets when its parent thread exits.
_PR_SET_PDEATHSIG = 1

# The function and tasks a _fork_map worker inherited; set only in the worker,
# by the pool's initializer, before it takes its first task.
_forked: tuple = (None, ())


def _inherit(fn, tasks, parent: int) -> None:
    global _forked
    _forked = fn, tasks
    _die_with(parent)


def _die_with(parent: int) -> None:
    """Have Linux kill this worker when its parent process ``parent`` dies.

    A pool worker blocks on its call queue and would never see the parent
    go. PR_SET_PDEATHSIG fires when the thread that forked this process
    exits; a fork-context pool forks all its workers from the caller's
    thread on the first submit, and that thread waits for the pool. If the
    parent died before the request, exit now. Does nothing where libc has
    no ``prctl``.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _forked_task(index: int):
    fn, tasks = _forked
    return fn(*tasks[index])


def _fork_map(fn, tasks: Sequence[tuple], workers: int) -> list:
    """``[fn(*t) for t in tasks]``, on up to ``workers`` forked processes.

    The workers inherit ``fn`` and ``tasks`` through fork, so only task
    indices and results are pickled, and each idle worker takes the next
    task. It runs in this process when ``workers`` is 1, when the platform
    has no ``fork``, or when this process is itself a forked worker, so a
    worker never forks again. An exception from ``fn`` propagates, the first
    in task order, once the tasks not yet started are cancelled and every
    worker has exited.
    """
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return [fn(*task) for task in tasks]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_inherit,
                             initargs=(fn, tasks, os.getpid())) as pool:
        return list(pool.map(_forked_task, range(len(tasks))))


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
    another in this process (see :func:`_fork_map`). The workers inherit
    the cells' configs and noisy clouds through fork, sharing them
    copy-on-write instead of receiving pickled copies, and a baseline cell
    scores its candidates one after another in the worker that runs it.
    The workers also inherit this process's OpenBLAS
    setting: importing the package sets the OpenBLAS that numpy and scipy
    bundle to one thread, so the workers do not oversubscribe the cores and
    the grid's bits do not depend on ``OPENBLAS_NUM_THREADS``. A cell that
    fails on bad input or a numerical failure (``ValueError``,
    ``FactorizationError``) only annotates the report with its error and
    traceback. Any other exception propagates, cancels the cells not yet
    started and returns once every worker has exited. A repeated kernel
    raises ValueError before any cell runs.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    report = ExperimentReport(
        scene_label=scene_label,
        kernels=tuple(kernels),
        n_realizations=n_realizations,
        n_iters=base_config.n_iters,
    )
    if len(set(report.kernels)) < len(report.kernels):
        raise ValueError(f"kernels must not repeat, got {report.kernels!r}")

    noisy_clouds = {
        rid: apply_noise(scene_cloud, sample_realization(noise_model, scene_cloud, rid))
        for rid in range(n_realizations)
    }
    master = base_config.rng_seed

    # (method, realization) -> (function, arguments); method is a kernel or "baseline".
    cells = {}
    for kernel_idx, kernel in enumerate(report.kernels):
        for rid in range(n_realizations):
            cfg = replace(base_config, kernel=kernel,
                          rng_seed=_cell_seed(master, (1, kernel_idx, rid)))
            cells[kernel, rid] = run_bo, (cfg, noisy_clouds[rid])
    for rid in range(n_realizations):
        cfg = replace(base_config, rng_seed=_cell_seed(master, (2, rid)))
        cells["baseline", rid] = circular_baseline, (cfg, noisy_clouds[rid], n_baseline)

    outcomes = _fork_map(_run_cell, list(cells.values()), _workers(len(cells)))

    for (method, rid), (result, error, tb) in zip(cells, outcomes):
        label = f"{method}/r{rid}"
        if error is not None:
            report.errors[label] = error
            report.tracebacks[label] = tb
        elif method == "baseline":
            report.baselines[rid] = result
        else:
            report.traces[method, rid] = result
            if result.incomplete:
                report.errors[label] = "incomplete: surrogate factorization failed"
    return report
