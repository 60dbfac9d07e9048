"""Expected improvement over the surrogate and its box-constrained maximizer."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr
from scipy.stats import qmc

from .gp import GpModel

__all__ = ["SIGMA_FLOOR", "EiState", "ei_value", "ei_values", "maximize_ei"]

# Below this predictive standard deviation EI degenerates to plain improvement.
SIGMA_FLOOR = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Pattern search in maximize_ei: starts, first and smallest step, round cap.
_N_REFINE = 5
_STEP_INIT = 0.05
_STEP_MIN = 1e-4
_MAX_ROUNDS = 200


@dataclass(frozen=True)
class EiState:
    """Surrogate plus the incumbent best observed value (original scale)."""

    incumbent: float
    model: GpModel

    @classmethod
    def from_model(cls, model: GpModel) -> "EiState":
        return cls(float(model.targets.max()), model)


def ei_values(state: EiState, z) -> np.ndarray:
    """Expected improvement at each row of z; always nonnegative."""
    mean, var = state.model.posterior_batch(z)
    return _improvement(state.incumbent, mean, var)


def _improvement(incumbent: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    sigma = np.sqrt(var)
    delta = mean - incumbent
    live = sigma > SIGMA_FLOOR
    if live.all():
        return _closed_form(delta, sigma)
    out = np.maximum(delta, 0.0)
    if live.any():
        out[live] = _closed_form(delta[live], sigma[live])
    return out


def _closed_form(delta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """EI elementwise at improvements ``delta`` and positive deviations ``sigma``."""
    u = delta / sigma
    phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return np.maximum(delta * ndtr(u) + sigma * phi, 0.0)


def ei_value(state: EiState, z) -> float:
    """Expected improvement at a single input.

    The scalar form of :func:`ei_values`, kept for the acceptance checks.
    """
    return float(ei_values(state, np.asarray(z, dtype=float).reshape(1, -1))[0])


def _sobol_candidates(dim: int, budget: int, rng_seed: int) -> np.ndarray:
    sob = qmc.Sobol(dim, scramble=True, seed=rng_seed)
    with warnings.catch_warnings():
        # budgets that are not powers of two trade balance for flexibility
        warnings.simplefilter("ignore", UserWarning)
        return sob.random(budget)


def maximize_ei(state: EiState, budget: int = 2048, rng_seed: int = 0) -> np.ndarray:
    """Approximate argmax of EI over the unit cube.

    Scores a seeded low-discrepancy candidate set plus the single best
    training input verbatim, then runs coordinate pattern search from the top
    ``_N_REFINE`` candidates, halving a start's step from ``_STEP_INIT``
    until it falls below ``_STEP_MIN`` or ``_MAX_ROUNDS`` rounds have run.
    A round scores every active start's 2d probes in one
    :meth:`GpModel.coordinate_probes` call; while every start is active it
    works on the start arrays in place, and a start that improves takes its
    best probe's row by index. Deterministic given the seed; the result
    never leaves [0, 1]^d and its EI is at least the best raw candidate's.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    model = state.model
    dim = model.dim
    cand = _sobol_candidates(dim, budget, rng_seed)
    best_seen = model.inputs[int(np.argmax(model.targets))]
    cand = np.vstack([cand, np.clip(best_seen, 0.0, 1.0)[None, :]])
    vals = ei_values(state, cand)

    order = np.argsort(-vals, kind="stable")[: min(_N_REFINE, cand.shape[0])]
    xs = cand[order].copy()
    fs = vals[order].copy()
    steps = np.full(xs.shape[0], _STEP_INIT)
    width = 2 * dim

    for _ in range(_MAX_ROUNDS):
        live = steps >= _STEP_MIN
        if live.all():
            active = None
            x, f, step = xs, fs, steps
        else:
            active = np.flatnonzero(live)
            if active.size == 0:
                break
            x, f, step = xs[active], fs[active], steps[active]
        probes, mean, var = model.coordinate_probes(x, step)
        pvals = _improvement(state.incumbent, mean, var)
        # Flat index of each start's best probe: its row in probes.
        best_probe = np.arange(0, pvals.size, width) + np.argmax(pvals.reshape(-1, width), axis=1)
        top = pvals[best_probe]
        better = top > f
        x[better] = probes[best_probe[better]]
        f[better] = top[better]
        step[~better] *= 0.5
        if active is not None:
            xs[active], fs[active], steps[active] = x, f, step
    best = int(np.argmax(fs))
    return xs[best].copy()
