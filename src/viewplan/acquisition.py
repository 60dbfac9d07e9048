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
    out = np.maximum(delta, 0.0)
    live = sigma > SIGMA_FLOOR
    if np.any(live):
        u = delta[live] / sigma[live]
        phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
        out[live] = np.maximum(delta[live] * ndtr(u) + sigma[live] * phi, 0.0)
    return out


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
    Deterministic given the seed; the result never leaves [0, 1]^d and its
    EI is at least the best raw candidate's.
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

    for _ in range(_MAX_ROUNDS):
        active = np.flatnonzero(steps >= _STEP_MIN)
        if active.size == 0:
            break
        n_active = active.size
        probes, mean, var = model.coordinate_probes(xs[active], steps[active])
        pvals = _improvement(state.incumbent, mean, var).reshape(n_active, 2 * dim)
        k = np.argmax(pvals, axis=1)
        top = pvals[np.arange(n_active), k]
        better = top > fs[active]
        xs[active[better]] = probes.reshape(n_active, 2 * dim, dim)[better, k[better]]
        fs[active[better]] = top[better]
        steps[active[~better]] *= 0.5
    best = int(np.argmax(fs))
    return xs[best].copy()
