"""Expected improvement over the surrogate and its box-constrained maximizer."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ._compiled import ndtr
from .gp import GpModel, _lbfgsb, _probe_positions

__all__ = ["EiState", "ei_value", "ei_values", "maximize_ei"]

# Below this predictive standard deviation EI degenerates to plain improvement.
SIGMA_FLOOR = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Pattern search in maximize_ei: starts, first and smallest step, round cap;
# then the iteration cap of the L-BFGS-B polish that follows it.
_N_REFINE = 5
_STEP_INIT = 0.05
_STEP_MIN = 1e-4
_MAX_ROUNDS = 60
_POLISH_ITERS = 100

# Scrambled Sobol' candidates: the Joe-Kuo direction numbers that
# scipy.stats.qmc.Sobol reads, loaded once so forked workers share them.
_SOBOL_BITS = 30
with np.load(Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz") as _table:
    _SOBOL_POLY = _table["poly"]
    _SOBOL_VINIT = _table["vinit"]


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
    return _improvement(state.incumbent, mean, var)[0]


def _improvement(incumbent: float, mean: np.ndarray, var: np.ndarray) -> tuple:
    """EI at each predictive mean and variance, and the terms its gradient reuses.

    Returns (EI, live, sigma, Phi(u), phi(u)): ``live`` marks the deviations
    above ``SIGMA_FLOOR``, where EI takes its closed form in u = (mean -
    incumbent) / sigma; the last three hold only those entries. Elsewhere
    EI is the plain improvement.
    """
    sigma = np.sqrt(var)
    delta = mean - incumbent
    live = sigma > SIGMA_FLOOR
    out = np.maximum(delta, 0.0)
    delta, sigma = delta[live], sigma[live]
    u = delta / sigma
    phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    cdf = ndtr(u)
    out[live] = np.maximum(delta * cdf + sigma * phi, 0.0)
    return out, live, sigma, cdf, phi


def ei_value(state: EiState, z) -> float:
    """Expected improvement at a single input.

    The scalar form of :func:`ei_values`, kept for the acceptance checks.
    """
    return float(ei_values(state, np.asarray(z, dtype=float).reshape(1, -1))[0])


@functools.lru_cache(maxsize=None)
def _direction_numbers(dim: int) -> np.ndarray:
    """Unscrambled ``(dim, 30)`` direction numbers, column j worth 2**(29 - j).

    The recurrence of Bratley & Fox (1988), section 2, over each dimension's
    primitive polynomial of degree m, run as scipy's ``_sobol.pyx`` runs it;
    the first dimension is all ones.
    """
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        poly = int(_SOBOL_POLY[d])
        m = poly.bit_length() - 1
        row = _SOBOL_VINIT[d, :m].tolist()
        for j in range(m, _SOBOL_BITS):
            new = row[j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    v = v.astype(np.uint32)
    v.flags.writeable = False
    return v


def _sobol_candidates(dim: int, budget: int, rng_seed: int) -> np.ndarray:
    """The first ``budget`` points of a scrambled Sobol' sequence in [0, 1)^dim.

    Byte-identical to ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=rng_seed).random(budget)``: a random digital shift and random lower
    triangular (LMS) matrices drawn in scipy's order, applied to the Joe-Kuo
    direction numbers, points taken in Gray-code order (Owen 1998).
    """
    if dim > _SOBOL_POLY.size:
        raise ValueError(f"Maximum supported dimensionality is {_SOBOL_POLY.size}.")
    rng = np.random.default_rng(rng_seed)
    high_first = np.uint32(1) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    shift = rng.integers(0, 2, (dim, _SOBOL_BITS), dtype=np.uint32) @ high_first[::-1]
    lms = np.tril(rng.integers(0, 2, (dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    lms[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    # Scrambled bit p (from the top) of direction number j: parity of row p & v_j.
    masked = (lms @ high_first)[:, None, :] & _direction_numbers(dim)[:, :, None]
    for s in (16, 8, 4, 2, 1):
        masked ^= masked >> s
    scrambled = (masked & 1) @ high_first
    # table[g] = XOR of the direction numbers at the set bits of g, by doubling.
    levels = (budget - 1).bit_length()
    table = np.zeros((1 << levels, dim), dtype=np.uint32)
    for k in range(levels):
        table[1 << k : 2 << k] = table[: 1 << k] ^ scrambled[:, k]
    i = np.arange(budget)
    return (table[i ^ (i >> 1)] ^ shift) * 2.0**-_SOBOL_BITS


def _ei_and_grad(state: EiState, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EI at each row of z and its gradient in that row.

    dEI = Phi(u) dmean + phi(u) dsigma with u = (mean - incumbent) / sigma;
    at or below ``SIGMA_FLOOR`` EI is the plain improvement and so is its
    gradient.
    """
    mean, var, mean_grad, var_grad = state.model._posterior_grad(z)
    ei, live, sigma, cdf, phi = _improvement(state.incumbent, mean, var)
    grad = mean_grad * (ei > 0.0)[:, None]
    grad[live] = cdf[:, None] * mean_grad[live] + (phi / (2.0 * sigma))[:, None] * var_grad[live]
    return ei, grad


def _pattern_search(state: EiState, budget: int, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts of :func:`maximize_ei` after its pattern search, and their EI."""
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
        pvals = _improvement(state.incumbent, mean, var)[0]
        # A probe clipped back onto its center does not move, whatever its
        # EI rounds to.
        moved = probes.take(_probe_positions(x.shape[0], dim)).reshape(x.shape[0], dim, 2)
        pvals[(moved == x[:, :, None]).reshape(-1)] = -np.inf
        # Flat index of each start's best probe: its row in probes.
        best_probe = np.arange(0, pvals.size, width) + np.argmax(pvals.reshape(-1, width), axis=1)
        top = pvals[best_probe]
        better = top > f
        x[better] = probes[best_probe[better]]
        f[better] = top[better]
        step[~better] *= 0.5
        if active is not None:
            xs[active], fs[active], steps[active] = x, f, step
    return xs, fs


def _polish(state: EiState, xs: np.ndarray) -> np.ndarray:
    """The best of the starts ``xs`` after one bounded L-BFGS-B run on their summed EI.

    A start takes its polished point only where :func:`ei_values` is
    strictly higher there. Both sides are scored by :func:`ei_values`, not
    by the probe arithmetic that found the starts, so the result's EI is at
    least every start's.
    """
    shape = xs.shape

    def objective(flat: np.ndarray):
        ei, grad = _ei_and_grad(state, flat.reshape(shape))
        return -ei.sum(), -grad.reshape(-1)

    # EI's scale follows the targets', so no absolute gradient tolerance fits
    # every state: the run stops on its relative decrease or the cap.
    flat, _ = _lbfgsb(objective, xs.reshape(-1), 0.0, 1.0, maxiter=_POLISH_ITERS, gtol=0.0)
    polished = flat.reshape(shape)
    before, after = ei_values(state, np.vstack([xs, polished])).reshape(2, -1)
    better = after > before
    best = int(np.argmax(np.where(better, after, before)))
    return (polished if better[best] else xs)[best].copy()


def maximize_ei(state: EiState, budget: int = 2048, rng_seed: int = 0) -> np.ndarray:
    """Approximate argmax of EI over the unit cube.

    Scores a seeded low-discrepancy candidate set plus the single best
    training input verbatim, then runs coordinate pattern search from the top
    ``_N_REFINE`` candidates, halving a start's step from ``_STEP_INIT``
    until it falls below ``_STEP_MIN`` or ``_MAX_ROUNDS`` rounds have run.
    A round scores every active start's 2d probes in one
    :meth:`GpModel.coordinate_probes` call; a probe whose clipped coordinate
    equals its center's is never a move. While every start is active the
    round works on the start arrays in place, and a start that improves
    takes its best probe's row by index. One bounded L-BFGS-B run of at
    most ``_POLISH_ITERS`` iterations on the summed closed-form EI and its
    analytic gradient then polishes every start at once, and a start keeps
    its polished point only where EI is strictly higher. Deterministic given
    the seed; the result never leaves [0, 1]^d and its EI is at least that
    of the pattern search's best start, hence at least the best raw
    candidate's.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    xs, _ = _pattern_search(state, budget, rng_seed)
    return _polish(state, xs)
