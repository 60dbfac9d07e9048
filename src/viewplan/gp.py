"""Gaussian process surrogate: kernels, exact inference, likelihood fitting.

Inference follows the standard Cholesky route. Targets are optionally
standardized to zero mean / unit variance before factorization and the
transform is inverted on prediction. Appending an observation keeps the
hyperparameters but recomputes the transform over all targets (see
:meth:`GpModel.add_observation`). A likelihood fit builds its objective once
(:func:`_likelihood`), keeping what the data fix across evaluations, and
factorizes through LAPACK directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._compiled import cdist_sqeuclidean, cho_solve, dpotrf, dpotrs, setulb, solve_triangular

__all__ = [
    "KERNEL_FAMILIES",
    "KernelSpec",
    "GpModel",
    "FactorizationError",
    "kernel_matrix",
]

KERNEL_FAMILIES = ("rbf", "ard_rbf", "matern15", "matern25")

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# A coordinate probe moves its center up, then down, by the step.
_SIGNS = np.array([1.0, -1.0])

# Bounds for likelihood fitting, assuming unit-cube inputs and
# standardized outputs.
_LS_BOUNDS = (1e-3, 10.0)
_VAR_BOUNDS = (1e-4, 10.0)
_NOISE_BOUNDS = (1e-8, 1.0)
# Start points of the multi-start likelihood fit.
_FIT_STARTS = 8


class FactorizationError(RuntimeError):
    """Kernel matrix stayed non positive definite through jitter escalation."""

    def __init__(self, jitter: float):
        super().__init__(f"Cholesky factorization failed at jitter {jitter:g}")
        self.jitter = jitter

    def __reduce__(self):
        # args holds the message, so unpickling must rebuild from the jitter.
        return type(self), (self.jitter,)


@dataclass(frozen=True)
class KernelSpec:
    """Stationary covariance: family name, signal variance, lengthscale(s).

    ``lengthscales`` is a scalar for isotropic families or a per-dimension
    vector for ``ard_rbf``.
    """

    family: str
    output_variance: float = 1.0
    lengthscales: Union[float, np.ndarray] = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (self.output_variance > 0.0 and math.isfinite(self.output_variance)):
            raise ValueError("output_variance must be positive and finite")
        ls = np.asarray(self.lengthscales, dtype=float)
        if ls.ndim > 1 or not np.all(np.isfinite(ls)) or not np.all(ls > 0.0):
            raise ValueError("lengthscales must be positive and finite")
        if ls.ndim == 0:
            object.__setattr__(self, "lengthscales", float(ls))
        else:
            object.__setattr__(self, "lengthscales", ls.copy())

    def lengthscale_vector(self, dim: int) -> np.ndarray:
        ls = np.asarray(self.lengthscales, dtype=float)
        if ls.ndim == 0:
            return np.full(dim, float(ls))
        if ls.size != dim:
            raise ValueError("lengthscale vector does not match input dimension")
        return ls


def _kernel_of_sqdist(family: str, output_variance: float, d2: np.ndarray) -> np.ndarray:
    """Covariances at scaled squared distances, overwriting ``d2``.

    Works in place because temporaries the size of a posterior query cost
    about as much to allocate as the arithmetic on them.
    """
    np.maximum(d2, 0.0, out=d2)
    if family in ("rbf", "ard_rbf"):
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= output_variance
        return d2
    d = np.sqrt(d2)
    d *= _SQRT3 if family == "matern15" else _SQRT5
    decay = np.negative(d)
    np.exp(decay, out=decay)
    d += 1.0
    if family == "matern25":
        d2 *= 5.0 / 3.0
        d += d2
    d *= output_variance
    d *= decay
    return d


def _slope_factors(family: str, output_variance: float, d2: np.ndarray, k: np.ndarray) -> tuple:
    """Factors of g = -2 dk/d(r^2) at scaled squared distances ``d2``, ``k`` the covariances there.

    The derivative of the covariance in a log lengthscale is g times that
    lengthscale's share of r^2, whatever the family. Callers multiply the
    factors onto the share one at a time, scalar first, which keeps the
    rounding of every fitted hyperparameter pinned in the tests.
    """
    if family in ("rbf", "ard_rbf"):
        return (k,)
    d = np.sqrt(d2)
    if family == "matern15":
        return output_variance * 3.0, np.exp(-_SQRT3 * d)
    return output_variance * (5.0 / 3.0), 1.0 + _SQRT5 * d, np.exp(-_SQRT5 * d)


def kernel_matrix(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Cross-covariance matrix between two sets of row-vector inputs."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    ls = spec.lengthscale_vector(a.shape[1])
    d2 = cdist_sqeuclidean(a / ls, b / ls)
    return _kernel_of_sqdist(spec.family, spec.output_variance, d2)


def _standardization(y: np.ndarray) -> tuple[float, float]:
    """Mean and scale of the targets; constant targets get scale 1."""
    scale = float(y.std())
    return float(y.mean()), (scale if scale > 1e-12 else 1.0)


def _chol_with_jitter(k: np.ndarray, eye: np.ndarray):
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    ``eye`` is the identity of k's size. LAPACK does not check for NaN or
    infinity, so callers pass finite data.
    """
    for jitter in _JITTERS:
        chol, info = dpotrf(k + jitter * eye, lower=1, clean=1)
        if info == 0:
            return chol, jitter
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
    raise FactorizationError(_JITTERS[-1])


class GpModel:
    """Exact GP regressor with fixed hyperparameters once constructed.

    A constructed model is immutable from the reader's point of view:
    posterior queries are pure. :meth:`add_observation` extends the
    factorization and must not race with concurrent queries.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        noise_variance: float,
        inputs,
        targets,
        standardize: bool = True,
    ):
        if noise_variance < 0.0 or not math.isfinite(noise_variance):
            raise ValueError("noise_variance must be nonnegative and finite")
        z = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(-1)
        if z.shape[0] != y.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")
        if z.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and targets must be finite")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.standardize = bool(standardize)
        self._y_mean, self._y_scale = _standardization(y) if standardize else (0.0, 1.0)
        self._z = z.copy()
        self._y = y.copy()
        self._refactor()

    # -- factorization ---------------------------------------------------

    def _scale_inputs(self) -> None:
        """Cache what posterior queries need of the training inputs.

        The lengthscale vector, the scaled inputs ``z / ls`` and
        ``2 z^T / ls`` laid out (dim, 1, n) for the probe broadcast of
        :meth:`coordinate_probes`. Fixed between factorizations.
        """
        ls = self.kernel.lengthscale_vector(self.dim)
        self._ls = ls
        self._zs = self._z / ls
        two_t = np.ascontiguousarray(self._z.T) * (2.0 / ls)[:, None]
        self._two_zt = two_t[:, None, :]

    def _refactor(self) -> None:
        self._scale_inputs()
        k = kernel_matrix(self.kernel, self._z)
        k[np.diag_indices_from(k)] += self.noise_variance
        eye = np.eye(k.shape[0])
        self._chol, self.jitter = _chol_with_jitter(k, eye)
        # One triangular inverse per factorization turns every posterior
        # query's triangular solve into a single matrix product.
        self._chol_inv = solve_triangular(self._chol, eye)
        self._alpha = cho_solve(self._chol, self._y_working)

    def _extend_factor(self, k_new: np.ndarray) -> bool:
        """Grow the factor and its inverse by the newest input in O(n^2).

        ``k_new`` holds the covariances between the earlier inputs and the
        newest one. The current jitter is kept. Returns False, changing
        nothing, when the new pivot is not positive.
        """
        n = k_new.shape[0]
        row = solve_triangular(self._chol, k_new)
        pivot_sq = self.kernel.output_variance + self.noise_variance + self.jitter - float(row @ row)
        if not pivot_sq > 0.0:
            return False
        pivot = math.sqrt(pivot_sq)
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = row
        chol[n, n] = pivot
        inv = np.zeros((n + 1, n + 1))
        inv[:n, :n] = self._chol_inv
        inv[n, :n] = -(row @ self._chol_inv) / pivot
        inv[n, n] = 1.0 / pivot
        self._chol, self._chol_inv = chol, inv
        self._alpha = cho_solve(self._chol, self._y_working)
        self._scale_inputs()
        return True

    @property
    def _y_working(self) -> np.ndarray:
        return (self._y - self._y_mean) / self._y_scale

    # -- views -----------------------------------------------------------

    @property
    def inputs(self) -> np.ndarray:
        return self._z.copy()

    @property
    def targets(self) -> np.ndarray:
        return self._y.copy()

    @property
    def dim(self) -> int:
        return int(self._z.shape[1])

    @property
    def n_train(self) -> int:
        return int(self._z.shape[0])

    @property
    def y_mean(self) -> float:
        return self._y_mean

    @property
    def y_scale(self) -> float:
        return self._y_scale

    # -- inference -------------------------------------------------------

    def posterior_batch(self, z, *, _sqdist=None) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances (original target scale) at rows of z.

        ``_sqdist`` is for :meth:`coordinate_probes`: the scaled squared
        distances from the rows of z to the training inputs, overwritten.
        """
        zq = np.atleast_2d(np.asarray(z, dtype=float))
        if zq.shape[1] != self.dim:
            raise ValueError("query dimension does not match training inputs")
        if _sqdist is None:
            d2 = cdist_sqeuclidean(zq / self._ls, self._zs)
        else:
            d2 = _sqdist
        ks = _kernel_of_sqdist(self.kernel.family, self.kernel.output_variance, d2)
        mean, var, _ = self._predict(ks)
        return mean, var

    def _predict(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Means and variances (original scale) of kernel rows ``ks``, and ``v = ks L^-T``."""
        mean_w = ks @ self._alpha
        v = ks @ self._chol_inv.T
        var_w = self.kernel.output_variance - np.einsum("ij,ij->i", v, v)
        var_w = np.maximum(var_w, 0.0)
        mean = self._y_mean + self._y_scale * mean_w
        var = (self._y_scale**2) * var_w
        return mean, var, v

    def _posterior_grad(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Posterior means and variances at rows of z, and their gradients in each row.

        Returns (means, variances, mean gradients, variance gradients), the
        gradients shaped like z. For every family the covariance with
        training input z_i has gradient -g (z - z_i) / ls^2, g from
        :func:`_slope_factors`; the variance's gradient is that of
        -k^T K^-1 k. A variance clipped to 0 keeps the unclipped gradient.
        """
        zq = np.atleast_2d(np.asarray(z, dtype=float))
        if zq.shape[1] != self.dim:
            raise ValueError("query dimension does not match training inputs")
        family, out_var = self.kernel.family, self.kernel.output_variance
        d2 = np.maximum(cdist_sqeuclidean(zq / self._ls, self._zs), 0.0)
        ks = _kernel_of_sqdist(family, out_var, d2.copy())
        mean, var, v = self._predict(ks)
        g = functools.reduce(np.multiply, _slope_factors(family, out_var, d2, ks))
        inv_ls2 = 1.0 / self._ls**2

        def gradient(weights: np.ndarray) -> np.ndarray:
            # sum_i weights_i dk_i/dz, row by row.
            gw = g * weights
            return (gw @ self._z - gw.sum(axis=1)[:, None] * zq) * inv_ls2

        mean_grad = gradient(self._y_scale * self._alpha)
        var_grad = gradient(-2.0 * self._y_scale**2 * (v @ self._chol_inv))
        return mean, var, mean_grad, var_grad

    def coordinate_probes(self, centers, steps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probes of a coordinate search and their posterior.

        For each row x of ``centers`` and its entry s of ``steps`` the probes
        are x with coordinate j moved up by s and then down by s, clipped to
        [0, 1], for j = 0, ..., dim - 1. Returns (probes, means, variances),
        probes stacked as rows in that order. The values equal
        ``posterior_batch(probes)`` up to rounding, but each probe's
        distances to the training inputs are updated from its center's in
        O(n) rather than recomputed in O(n dim). What depends only on the
        training inputs is cached per factorization (:meth:`_scale_inputs`),
        so a call scales the centers once, writes the moved coordinates into
        copies of the centers at cached flat positions, and fills the
        distance grid with three broadcasts.
        """
        x = np.atleast_2d(np.asarray(centers, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError("center dimension does not match training inputs")
        n_c, dim = x.shape
        s = np.asarray(steps, dtype=float).reshape(n_c, 1, 1)
        moved = x[:, :, None] + s * _SIGNS  # (n_c, dim, 2)
        np.maximum(moved, 0.0, out=moved)
        np.minimum(moved, 1.0, out=moved)
        rows = np.repeat(x, 2 * dim, axis=0)
        rows.put(_probe_positions(n_c, dim), moved)

        # Only coordinate j changes, so a probe's squared distance is its
        # center's plus (w - u)(w + u - 2 t) in scaled coordinates.
        xs = x / self._ls
        u = xs[:, :, None]
        w = moved / self._ls[:, None]
        d2 = np.empty((n_c * dim * 2, self.n_train))
        grid = d2.reshape(n_c, dim, 2, self.n_train)
        np.subtract((w + u)[..., None], self._two_zt, out=grid)
        grid *= (w - u)[..., None]
        grid += cdist_sqeuclidean(xs, self._zs)[:, None, None, :]
        mean, var = self.posterior_batch(rows, _sqdist=d2)
        return rows, mean, var

    def add_observation(self, z, y: float) -> None:
        """Append one observation and extend the factorization.

        Hyperparameters stay frozen, but the output standardization is
        recomputed over the full target vector: the initial design often
        spans a far narrower value range than what optimization later finds,
        and a transform frozen there would push new observations hundreds of
        working standard deviations out, collapsing every downstream
        improvement computation to zero.
        """
        zq = np.asarray(z, dtype=float).reshape(1, -1)
        if zq.shape[1] != self.dim:
            raise ValueError("observation dimension does not match training inputs")
        if not np.all(np.isfinite(zq)):
            raise ValueError("observation input must be finite")
        if not math.isfinite(float(y)):
            raise ValueError("target must be finite")
        k_new = kernel_matrix(self.kernel, self._z, zq)[:, 0]
        self._z = np.vstack([self._z, zq])
        self._y = np.append(self._y, float(y))
        if self.standardize:
            self._y_mean, self._y_scale = _standardization(self._y)
        # A pivot that is not positive needs the jitter escalation of a full
        # refactorization.
        if not self._extend_factor(k_new):
            self._refactor()

    # -- fitting ---------------------------------------------------------

    @classmethod
    def fit(cls, inputs, targets, family: str = "matern25", seed: int = 0) -> "GpModel":
        """Maximum-likelihood hyperparameters via multi-start bounded L-BFGS.

        The optimization runs in log space with analytic gradients. The
        returned model's likelihood is at least the likelihood at every
        start point.
        """
        if family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        z = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(-1)
        if z.shape[0] != y.shape[0] or z.shape[0] < 2:
            raise ValueError("fitting needs at least two (input, target) pairs")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and targets must be finite")
        dim = z.shape[1]
        n_ls = dim if family == "ard_rbf" else 1

        y_mean, y_scale = _standardization(y)
        yw = (y - y_mean) / y_scale

        lo, hi = np.log([_LS_BOUNDS] * n_ls + [_VAR_BOUNDS, _NOISE_BOUNDS]).T

        starts = _fit_starts(n_ls, seed, lo, hi)
        mll_and_grad = _likelihood(z, yw, family, n_ls)

        def objective(theta: np.ndarray):
            value, grad = mll_and_grad(theta)
            return -value, -grad

        candidates = []
        for theta0 in starts:
            # L-BFGS-B evaluates theta0 first and never ends worse than it.
            theta, value = _lbfgsb(objective, theta0, lo, hi, maxiter=200, ftol=1e-12, gtol=1e-8)
            if math.isfinite(value):
                candidates.append((-value, theta))
        if not candidates:
            raise FactorizationError(_JITTERS[-1])

        best_mll, best_theta = max(candidates, key=lambda c: c[0])
        ls = np.exp(best_theta[:n_ls])
        spec = KernelSpec(
            family,
            float(np.exp(best_theta[n_ls])),
            ls if n_ls > 1 else float(ls[0]),
        )
        return cls(spec, float(np.exp(best_theta[n_ls + 1])), z, y)


@functools.lru_cache(maxsize=64)
def _probe_positions(n_centers: int, dim: int) -> np.ndarray:
    """Flat indices of the moved coordinates in :meth:`GpModel.coordinate_probes`' rows.

    Row r = 2 (c dim + j) + k moves coordinate j of center c.
    """
    r = np.arange(n_centers * dim * 2)
    positions = r * dim + (r // 2) % dim
    positions.flags.writeable = False
    return positions


def _fit_starts(n_ls: int, seed, lo: np.ndarray, hi: np.ndarray):
    """Deterministic multi-start points in log-hyperparameter space."""
    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.full(n_ls, math.log(0.5)), [0.0, math.log(1e-2)]])]
    while len(starts) < _FIT_STARTS:
        starts.append(rng.uniform(lo, hi))
    return starts


def _likelihood(z: np.ndarray, yw: np.ndarray, family: str, n_ls: int):
    """Log marginal likelihood of fixed data and its gradient, as a function.

    The function takes the log hyperparameters ``theta`` (log lengthscales,
    log signal variance, log noise variance). What the data fix is built
    here once per fit; each call does only the arithmetic that depends on
    theta.
    """
    t = z.shape[0]
    eye = np.eye(t)
    log_norm = 0.5 * t * math.log(2.0 * math.pi)
    diffs = None
    if n_ls > 1:
        # Per-dimension input differences, (dim, t, t), C-contiguous so that
        # each dimension's sum adds in the order its own (t, t) product would.
        zt = np.ascontiguousarray(z.T)
        diffs = zt[:, :, None] - zt[:, None, :]

    def mll_and_grad(theta: np.ndarray):
        ls = np.exp(theta[:n_ls])
        out_var = float(np.exp(theta[n_ls]))
        noise_var = float(np.exp(theta[n_ls + 1]))

        zs = z / ls
        d2 = np.maximum(cdist_sqeuclidean(zs, zs), 0.0)
        kf = _kernel_of_sqdist(family, out_var, d2.copy())

        k = kf + noise_var * eye
        try:
            chol, _ = _chol_with_jitter(k, eye)
        except FactorizationError:
            return -np.inf, np.zeros_like(theta)
        alpha, _ = dpotrs(chol, yw, lower=1)
        mll = -0.5 * float(yw @ alpha) - float(np.sum(np.log(np.diag(chol)))) - log_norm

        # d(mll)/d(theta_j) = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j), and
        # dK/d(log l_j) = g w_j with w_j = (diff_j / l_j)^2, or r^2 for one lengthscale.
        k_inv, _ = dpotrs(chol, eye, lower=1)
        a = np.outer(alpha, alpha) - k_inv
        w = (diffs / ls[:, None, None]) ** 2 if n_ls > 1 else d2[None]
        dk = functools.reduce(np.multiply, _slope_factors(family, out_var, d2, kf), w)

        grad = np.empty_like(theta)
        grad[:n_ls] = 0.5 * (a[None] * dk).reshape(n_ls, -1).sum(axis=1)
        grad[n_ls] = 0.5 * float(np.sum(a * kf))
        grad[n_ls + 1] = 0.5 * noise_var * float(np.trace(a))
        return mll, grad

    return mll_and_grad


def _lbfgsb(fun, x0, lo, hi, *, maxiter: int, ftol: float = 2.2204460492503131e-09,
            gtol: float = 1e-5):
    """Minimize ``fun`` over the box [lo, hi] by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).

    ``fun(x)`` returns the value and the gradient at x and must not change
    x. ``lo`` and ``hi`` are finite and broadcast to x0's shape. Returns the
    final x and its value. This is the loop that
    ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` runs around
    scipy's compiled ``setulb``, with the same inputs at every call and the
    same stop at ``maxiter``, so it takes the same iterates with the same
    evaluations, without ``minimize``'s per-evaluation wrapper. Its
    ``maxfun`` stop (15,000 evaluations) is left out: 20 line-search steps
    per iteration cannot reach it within any cap used here.
    """
    m, maxls, factr = 10, 20, ftol / np.finfo(float).eps
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    n = x.size
    lower, upper = (np.full(n, b, dtype=float) for b in (lo, hi))
    nbd = np.full(n, 2, dtype=np.int32)  # bounded on both sides
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = (np.zeros(k, dtype=np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, dtype=np.int32), np.zeros(29)
    seen = None
    iterations = 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # f and g wanted at x; a repeated x reuses the last answer
            if seen is None or not np.array_equal(x, seen):
                seen = x.copy()
                f, g = fun(seen)
        elif task[0] == 1:  # a new iteration
            iterations += 1
            if iterations >= maxiter:
                task[:] = 5, 504  # stop: iteration limit
        else:
            return x, f
