"""Independent reference implementations used to check the library.

Everything here is written from the definitions with plain Python / dense
linear algebra, deliberately avoiding the library's own vectorized or
factorized code paths.
"""

import ctypes
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize


# -- reward ------------------------------------------------------------------


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(_dot(a, a))


def reward_bruteforce(cam_positions, cam_axes, points, fov, theta_match):
    """Triple-loop reward from the definitions.

    ``cam_axes`` are the stored view axes (in-view points p satisfy
    cos(angle(c - p, axis)) >= cos(fov/2)).
    """
    n = len(cam_positions)
    p_count = len(points)
    cos_half_fov = math.cos(0.5 * fov)
    cos_match = math.cos(theta_match)
    total = 0.0
    for p in points:
        rays = []
        visible = []
        for c, v in zip(cam_positions, cam_axes):
            d = _sub(c, p)
            nd = _norm(d)
            nv = _norm(v)
            rays.append((d, nd))
            visible.append(_dot(d, v) / (nd * nv) >= cos_half_fov)
        for i in range(n - 1):
            for j in range(i + 1, n):
                if not (visible[i] and visible[j]):
                    continue
                (di, ndi), (dj, ndj) = rays[i], rays[j]
                if _dot(di, dj) / (ndi * ndj) < cos_match:
                    continue
                total += _norm(_cross(di, dj)) / (ndi * ndj)
    pairs = n * (n - 1) // 2
    return total / (p_count * pairs)


# -- Gaussian process --------------------------------------------------------


def kernel_value(family, out_var, lengthscales, a, b):
    """Stationary kernel from the closed forms, elementwise math only."""
    ls = np.asarray(lengthscales, dtype=float)
    if ls.ndim == 0:
        ls = np.full(len(a), float(ls))
    d2 = 0.0
    for k in range(len(a)):
        d2 += ((a[k] - b[k]) / ls[k]) ** 2
    if family in ("rbf", "ard_rbf"):
        return out_var * math.exp(-0.5 * d2)
    d = math.sqrt(d2)
    if family == "matern15":
        return out_var * (1.0 + math.sqrt(3.0) * d) * math.exp(-math.sqrt(3.0) * d)
    if family == "matern25":
        return out_var * (1.0 + math.sqrt(5.0) * d + 5.0 * d2 / 3.0) * math.exp(
            -math.sqrt(5.0) * d
        )
    raise ValueError(family)


def posterior_dense(family, out_var, lengthscales, noise_var, z_train, y_train, z_query):
    """Predictive mean and variance through an explicit matrix inverse."""
    t = len(z_train)
    gram = np.empty((t, t))
    for i in range(t):
        for j in range(t):
            gram[i, j] = kernel_value(family, out_var, lengthscales, z_train[i], z_train[j])
    k_inv = np.linalg.inv(gram + noise_var * np.eye(t))
    k_star = np.array(
        [kernel_value(family, out_var, lengthscales, z, z_query) for z in z_train]
    )
    mean = float(k_star @ k_inv @ y_train)
    prior = kernel_value(family, out_var, lengthscales, z_query, z_query)
    var = float(prior - k_star @ k_inv @ k_star)
    return mean, var


def mll_dense(family, out_var, lengthscales, noise_var, z_train, y_train):
    """Gaussian log marginal likelihood through slogdet and a dense solve."""
    t = len(z_train)
    gram = np.empty((t, t))
    for i in range(t):
        for j in range(t):
            gram[i, j] = kernel_value(family, out_var, lengthscales, z_train[i], z_train[j])
    k = gram + noise_var * np.eye(t)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    y = np.asarray(y_train, dtype=float)
    return float(-0.5 * y @ np.linalg.solve(k, y) - 0.5 * logdet - 0.5 * t * math.log(2.0 * math.pi))


# -- expected improvement ----------------------------------------------------


def ei_monte_carlo(mean, sigma, incumbent, n_samples, seed):
    """Sample estimate of E[max(0, X - incumbent)], X ~ N(mean, sigma^2).

    Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    draws = rng.normal(mean, sigma, n_samples)
    gains = np.maximum(draws - incumbent, 0.0)
    return float(gains.mean()), float(gains.std(ddof=1) / math.sqrt(n_samples))


def ei_closed_form(mean, sigma, incumbent):
    """Textbook closed form, written independently of the library."""
    delta = mean - incumbent
    if sigma <= 0.0:
        return max(delta, 0.0)
    u = delta / sigma
    cdf = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return delta * cdf + sigma * pdf


# -- finite differences ------------------------------------------------------


def central_difference(fn, x0, step=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.empty_like(x0)
    for k in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[k] += step
        lo[k] -= step
        grad[k] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


# -- bounded L-BFGS-B --------------------------------------------------------


def assert_lbfgsb_matches_scipy(driver, fun, x0, lo, hi, maxiter, **tols):
    """Run ``driver`` and scipy's L-BFGS-B side by side on ``fun`` from x0 over [lo, hi].

    ``fun`` returns the value and the gradient. Both runs must ask ``fun``
    for the same points in the same order and end at the same x and value,
    compared with ``==``. Returns scipy's result and the number of points
    the driver asked for.
    """
    def recorded(log):
        def wrapped(x):
            log.append(x.copy())
            return fun(x)
        return wrapped

    ours, theirs = [], []
    x, f = driver(recorded(ours), x0, lo, hi, maxiter=maxiter, **tols)
    res = minimize(recorded(theirs), x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
                   options={"maxiter": maxiter, **tols})
    assert len(ours) == len(theirs) == res.nfev
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    assert np.array_equal(x, res.x) and f == res.fun
    return res, len(ours)


# -- platform of the bit pins ------------------------------------------------


def _platform():
    """Whether numpy's X86_V4 target is on, and each bundled OpenBLAS's core, as one line.

    The OpenBLAS libraries are found as ``viewplan/__init__.py`` finds them,
    and each names its core through the getter that sits beside its
    thread-count setter; a library that is not there reads ``none``.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    from viewplan import _BUNDLED_OPENBLAS

    cores = []
    for package, pattern, setter in _BUNDLED_OPENBLAS:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        core = "none"
        for path in sorted(libs.glob(pattern)):
            try:
                corename = getattr(ctypes.CDLL(str(path)),
                                   setter.replace("set_num_threads", "get_corename"))
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            core = corename().decode()
        cores.append(f"{package.__name__} {core}")
    v4 = "on" if __cpu_features__.get("X86_V4") else "off"
    return f"X86_V4 {v4}, OpenBLAS {', '.join(cores)}"


# The message of every bit-pin assertion: where the pins were taken, and
# where this run is.
PIN_PLATFORM = f"pins taken on X86_V4 on, OpenBLAS SkylakeX; this run: {_platform()}"
