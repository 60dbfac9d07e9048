import itertools
import math
import pickle

import numpy as np
import pytest

from oracles import (
    PIN_PLATFORM,
    assert_lbfgsb_matches_scipy,
    central_difference,
    kernel_value,
    mll_dense,
    posterior_dense,
)

from viewplan import FactorizationError, GpModel, KernelSpec, gp, kernel_matrix
from viewplan.gp import (
    _LS_BOUNDS,
    _NOISE_BOUNDS,
    _VAR_BOUNDS,
    _fit_starts,
    _lbfgsb,
    _likelihood,
)

FAMILIES = ("rbf", "ard_rbf", "matern15", "matern25")


def model_mll(model):
    """Log marginal likelihood of a model's data at its hyperparameters, on the working scale."""
    ls = np.atleast_1d(model.kernel.lengthscales)
    with np.errstate(divide="ignore"):  # a noise-free model has log noise -inf
        theta = np.log([*ls, model.kernel.output_variance, model.noise_variance])
    yw = (model.targets - model._y_mean) / model._y_scale
    return _likelihood(model.inputs, yw, model.kernel.family, ls.size)(theta)[0]


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic")
        with pytest.raises(ValueError):
            KernelSpec("rbf", output_variance=0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", lengthscales=-1.0)
        with pytest.raises(ValueError):
            KernelSpec("ard_rbf", lengthscales=np.array([1.0, 0.0]))

    def test_lengthscale_vector_expansion(self):
        assert np.array_equal(KernelSpec("rbf", lengthscales=2.0).lengthscale_vector(3), [2.0] * 3)
        with pytest.raises(ValueError):
            KernelSpec("ard_rbf", lengthscales=np.ones(2)).lengthscale_vector(3)


class TestKernelValues:
    def test_same_input_gives_output_variance(self):
        z = np.array([0.3, -1.2, 0.7])
        for family in FAMILIES:
            spec = KernelSpec(family, output_variance=1.7, lengthscales=0.9)
            assert kernel_matrix(spec, z, z)[0, 0] == pytest.approx(1.7, abs=1e-14)

    def test_rbf_unit_distance(self):
        spec = KernelSpec("rbf")
        assert kernel_matrix(spec, [0.0], [1.0])[0, 0] == pytest.approx(0.606531, abs=1e-6)

    def test_matern25_unit_distance(self):
        spec = KernelSpec("matern25")
        assert kernel_matrix(spec, [0.0], [1.0])[0, 0] == pytest.approx(0.523994, abs=1e-6)

    def test_ard_with_equal_lengthscales_matches_isotropic(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 4))
        iso = KernelSpec("rbf", 1.3, 0.8)
        ard = KernelSpec("ard_rbf", 1.3, np.full(4, 0.8))
        assert kernel_matrix(iso, a, b)[0, 0] == pytest.approx(kernel_matrix(ard, a, b)[0, 0], abs=1e-14)

    def test_matches_independent_closed_forms(self):
        rng = np.random.default_rng(42)
        for family in FAMILIES:
            for _ in range(50):
                d = int(rng.integers(1, 6))
                a, b = rng.normal(size=(2, d))
                ov = float(rng.uniform(0.2, 3.0))
                if family == "ard_rbf":
                    ls = rng.uniform(0.2, 2.0, d)
                else:
                    ls = float(rng.uniform(0.2, 2.0))
                got = kernel_matrix(KernelSpec(family, ov, ls), a, b)[0, 0]
                want = kernel_value(family, ov, ls, a, b)
                assert got == pytest.approx(want, abs=1e-12)

    def test_long_lengthscale_limit(self):
        a = np.array([0.1, 0.9, 0.4])
        b = np.array([0.8, 0.2, 0.6])
        for family in ("rbf", "matern25"):
            spec = KernelSpec(family, output_variance=2.0, lengthscales=1e6)
            assert kernel_matrix(spec, a, b)[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_matrix_is_psd(self):
        rng = np.random.default_rng(3)
        for family in FAMILIES:
            z = rng.uniform(0, 1, (25, 4))
            ls = rng.uniform(0.3, 2.0, 4) if family == "ard_rbf" else 0.7
            k = kernel_matrix(KernelSpec(family, 1.5, ls), z)
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh(k).min() >= -1e-8


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        model = GpModel(KernelSpec("rbf"), 0.0, [[0.0]], [0.0], standardize=False)
        assert model_mll(model) == pytest.approx(-0.918939, abs=1e-6)

    def test_single_unit_observation(self):
        model = GpModel(KernelSpec("rbf"), 0.0, [[0.0]], [1.0], standardize=False)
        assert model_mll(model) == pytest.approx(
            -0.5 - 0.5 * math.log(2.0 * math.pi), abs=1e-9
        )

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for family in FAMILIES:
            t, d = 5, 3
            z = rng.uniform(0, 1, (t, d))
            y = rng.normal(size=t)
            ls = rng.uniform(0.4, 1.5, d) if family == "ard_rbf" else 0.9
            nv = 0.05
            model = GpModel(KernelSpec(family, 1.2, ls), nv, z, y, standardize=False)
            want = mll_dense(family, 1.2, ls, nv, z, y)
            assert model_mll(model) == pytest.approx(want, abs=1e-10)


class TestPosterior:
    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0, 1, (8, 3))
        y = np.sin(z.sum(axis=1))
        model = GpModel(KernelSpec("matern25", 1.0, 1.0), 0.0, z, y)
        for k in range(8):
            (mean,), (var,) = model.posterior_batch(z[k])
            assert mean == pytest.approx(y[k], abs=1e-8)
            assert 0.0 <= var <= 1e-8

    def test_far_field_reverts_to_prior(self):
        # y chosen so the standardization scale is exactly 1
        z = np.array([[0.0, 0.0], [0.05, 0.05]])
        y = np.array([0.0, 2.0])
        spec = KernelSpec("rbf", output_variance=1.4, lengthscales=0.05)
        model = GpModel(spec, 1e-6, z, y)
        far = np.array([50.0, -30.0])
        assert kernel_matrix(spec, z[0], far)[0, 0] < 1e-12
        (mean,), (var,) = model.posterior_batch(far)
        assert mean == pytest.approx(1.0, abs=1e-8)
        assert var == pytest.approx(1.4, abs=1e-8)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for family in FAMILIES:
            t, d = 20, 4
            z = rng.uniform(0, 1, (t, d))
            y = rng.normal(size=t)
            ls = rng.uniform(0.4, 1.5, d) if family == "ard_rbf" else 0.8
            nv = 0.01
            model = GpModel(KernelSpec(family, 1.1, ls), nv, z, y, standardize=False)
            for _ in range(5):
                q = rng.uniform(-0.2, 1.2, d)
                want_mean, want_var = posterior_dense(family, 1.1, ls, nv, z, y, q)
                (mean,), (var,) = model.posterior_batch(q)
                assert mean == pytest.approx(want_mean, abs=1e-8)
                assert var == pytest.approx(want_var, abs=1e-8)
                assert -1e-8 <= var <= 1.1 + 1e-8

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0, 1, (12, 3))
        y = rng.normal(size=12)
        model = GpModel(KernelSpec("matern15", 0.9, 0.6), 0.02, z, y)
        queries = rng.uniform(0, 1, (7, 3))
        means, variances = model.posterior_batch(queries)
        for k in range(7):
            (mean,), (var,) = model.posterior_batch(queries[k])
            assert means[k] == pytest.approx(mean, abs=1e-14)
            assert variances[k] == pytest.approx(var, abs=1e-14)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0, 1, (30, 2))
        y = rng.normal(size=30)
        model = GpModel(KernelSpec("rbf", 1.0, 2.0), 0.0, z, y)
        _, variances = model.posterior_batch(rng.uniform(0, 1, (200, 2)))
        assert np.all(variances >= 0.0)

    def test_added_observation_never_raises_variance(self):
        rng = np.random.default_rng(21)
        z = rng.uniform(0, 1, (10, 3))
        y = rng.normal(size=10)
        model = GpModel(KernelSpec("matern25", 1.0, 0.8), 1e-4, z, y, standardize=False)
        queries = rng.uniform(0, 1, (20, 3))
        _, var_before = model.posterior_batch(queries)
        model.add_observation(rng.uniform(0, 1, 3), 0.3)
        _, var_after = model.posterior_batch(queries)
        assert np.all(var_after <= var_before + 1e-8)

    def test_added_observations_match_a_fresh_model(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(0, 1, (30, 4))
        y = rng.normal(size=30)
        spec = KernelSpec("matern25", 1.3, 0.6)
        grown = GpModel(spec, 1e-4, z[:10], y[:10])
        for k in range(10, 30):
            grown.add_observation(z[k], y[k])
        fresh = GpModel(spec, 1e-4, z, y)
        queries = rng.uniform(0, 1, (50, 4))
        for got, want in zip(grown.posterior_batch(queries), fresh.posterior_batch(queries)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        # The extended factor's log determinant is the likelihood's.
        assert grown.jitter == fresh.jitter
        np.testing.assert_allclose(grown._chol, fresh._chol, rtol=0, atol=1e-9)

    def test_duplicate_observation_escalates_jitter(self):
        z = np.array([[0.1, 0.2], [0.7, 0.4]])
        model = GpModel(KernelSpec("rbf", 1.0, 0.5), 0.0, z, [0.3, -0.2], standardize=False)
        assert model.jitter == 0.0
        model.add_observation(z[0], 0.3)
        assert model.jitter > 0.0
        mean, var = model.posterior_batch(z)
        assert np.all(np.isfinite(mean)) and np.all(var >= 0.0)

    def test_query_dimension_checked(self):
        model = GpModel(KernelSpec("rbf"), 0.1, [[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            model.posterior_batch([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="query dimension"):
            model._posterior_grad([[0.0, 0.0, 0.0]])


class TestFactorization:
    def test_duplicate_inputs_need_jitter(self):
        z = np.zeros((4, 2))
        y = np.full(4, 0.7)
        model = GpModel(KernelSpec("rbf"), 0.0, z, y, standardize=False)
        assert 0.0 < model.jitter <= 1e-4
        assert np.all(np.isfinite(model.posterior_batch([0.0, 0.0])[0]))

    def test_failure_reports_final_jitter(self, monkeypatch):
        # huge signal variance swamps every jitter level in float arithmetic
        z = np.zeros((3, 1))
        y = np.zeros(3)
        with pytest.raises(FactorizationError) as err:
            GpModel(KernelSpec("rbf", output_variance=1e16, lengthscales=1e6), 0.0, z, y,
                    standardize=False)
        assert err.value.jitter == pytest.approx(1e-4)

        # A fit in which no start has a finite likelihood fails the same way.
        def no_factor(k, eye):
            raise FactorizationError(1e-4)

        monkeypatch.setattr(gp, "_chol_with_jitter", no_factor)
        with pytest.raises(FactorizationError) as err:
            GpModel.fit([[0.0], [0.5], [1.0]], [0.0, 1.0, 0.5], family="rbf")
        assert err.value.jitter == pytest.approx(1e-4)

    def test_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(FactorizationError(1e-4)))
        assert type(err) is FactorizationError
        assert err.jitter == 1e-4
        assert str(err) == str(FactorizationError(1e-4))


class TestFit:
    def test_constant_targets_predict_the_constant(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 1, (12, 3))
        y = np.full(12, 3.25)
        model = GpModel.fit(z, y, family="rbf", seed=0)
        for q in rng.uniform(0, 1, (6, 3)):
            assert model.posterior_batch(q)[0][0] == pytest.approx(3.25, abs=1e-6)

    def test_fit_beats_every_start(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(0, 1, (25, 2))
        y = np.sin(4.0 * z[:, 0]) + 0.2 * rng.normal(size=25)
        for family in FAMILIES:
            model = GpModel.fit(z, y, family=family, seed=3)
            fitted_mll = model_mll(model)
            yw = (y - model._y_mean) / model._y_scale
            n_ls = 2 if family == "ard_rbf" else 1
            lo = np.log([_LS_BOUNDS[0]] * n_ls + [_VAR_BOUNDS[0], _NOISE_BOUNDS[0]])
            hi = np.log([_LS_BOUNDS[1]] * n_ls + [_VAR_BOUNDS[1], _NOISE_BOUNDS[1]])
            for theta in _fit_starts(n_ls, 3, lo, hi):
                start_mll, _ = _likelihood(z, yw, family, n_ls)(theta)
                assert fitted_mll >= start_mll - 1e-9

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        z = rng.uniform(0, 1, (15, 3))
        y = np.cos(3.0 * z[:, 1]) + 0.1 * rng.normal(size=15)
        yw = (y - y.mean()) / y.std()
        # Every family takes one lengthscale or one per dimension.
        for family, n_ls in itertools.product(FAMILIES, (1, 3)):
            for _ in range(5):
                theta = np.concatenate(
                    [
                        rng.uniform(math.log(0.2), math.log(2.0), n_ls),
                        [rng.uniform(math.log(0.3), math.log(2.0))],
                        [rng.uniform(math.log(1e-3), math.log(0.1))],
                    ]
                )
                _, grad = _likelihood(z, yw, family, n_ls)(theta)
                fd = central_difference(
                    lambda th: _likelihood(z, yw, family, n_ls)(th)[0], theta
                )
                assert grad == pytest.approx(fd, abs=1e-5, rel=1e-5)

    def test_ard_gradient_matches_finite_differences_at_experiment_size(self):
        # The experiment-menu shape: 4 cameras x 5 coordinates, 20 + 5 points.
        rng = np.random.default_rng(21)
        z = rng.uniform(0, 1, (25, 20))
        y = np.sin(3.0 * z[:, 0]) + z[:, 7] + 0.1 * rng.normal(size=25)
        yw = (y - y.mean()) / y.std()
        for _ in range(3):
            theta = np.concatenate(
                [
                    rng.uniform(math.log(0.5), math.log(3.0), 20),
                    [rng.uniform(math.log(0.3), math.log(2.0))],
                    [rng.uniform(math.log(1e-3), math.log(0.1))],
                ]
            )
            _, grad = _likelihood(z, yw, "ard_rbf", 20)(theta)
            fd = central_difference(lambda th: _likelihood(z, yw, "ard_rbf", 20)(th)[0], theta)
            assert grad == pytest.approx(fd, abs=1e-5, rel=1e-5)

    def test_gradient_small_at_interior_optimum(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0, 1, (25, 2))
        y = np.sin(5.0 * z[:, 0]) + z[:, 1] + 0.1 * rng.normal(size=25)
        model = GpModel.fit(z, y, family="matern25", seed=1)
        ls = model.kernel.lengthscales
        theta = np.log([float(ls), model.kernel.output_variance, model.noise_variance])
        lo = np.log([_LS_BOUNDS[0], _VAR_BOUNDS[0], _NOISE_BOUNDS[0]])
        hi = np.log([_LS_BOUNDS[1], _VAR_BOUNDS[1], _NOISE_BOUNDS[1]])
        interior = np.all(theta > lo + 1e-3) and np.all(theta < hi - 1e-3)
        assert interior, "expected an interior optimum for this dataset"
        yw = (y - model._y_mean) / model._y_scale
        fd = central_difference(lambda th: _likelihood(z, yw, "matern25", 1)(th)[0], theta)
        assert np.linalg.norm(fd) <= 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(0, 1, (18, 3))
        y = rng.normal(size=18)
        a = GpModel.fit(z, y, family="ard_rbf", seed=9)
        b = GpModel.fit(z, y, family="ard_rbf", seed=9)
        assert np.array_equal(
            np.asarray(a.kernel.lengthscales), np.asarray(b.kernel.lengthscales)
        )
        assert a.kernel.output_variance == b.kernel.output_variance
        assert a.noise_variance == b.noise_variance

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            GpModel.fit([[0.0]], [1.0])

    def test_rejects_non_finite_data(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0, 1, (8, 2))
        y = rng.normal(size=8)
        y_nan = y.copy()
        y_nan[3] = np.nan
        z_inf = z.copy()
        z_inf[2, 1] = np.inf
        for family in FAMILIES:
            with pytest.raises(ValueError, match="finite"):
                GpModel.fit(z, y_nan, family=family)
            with pytest.raises(ValueError, match="finite"):
                GpModel.fit(z_inf, y, family=family)


class TestLikelihoodBits:
    """Exact ``float.hex()`` of fitted hyperparameters and of likelihood evaluations.

    Two data shapes (20 x 4 and 50 x 20), every family at its own number of
    lengthscales. A change in the last bit of the likelihood's value or
    gradient moves the fits, so reordering the kernel or gradient arithmetic
    fails here.
    """

    @staticmethod
    def data(n, d):
        rng = np.random.default_rng(1000 * n + d)
        z = rng.uniform(0, 1, (n, d))
        y = np.sin(3.0 * z[:, 0]) + z[:, 1] ** 2 + z[:, 2] * z[:, 3] + 0.3 * rng.normal(size=n)
        return z, y

    # (family, n, dim) -> lengthscale(s), signal variance, noise variance of
    # GpModel.fit(..., seed=5)
    FITS = {
        ('rbf', 20, 4): [
            "0x1.1590afca018b8p-1", "0x1.7d989a3d4fac6p-1", "0x1.a3d6298861f26p-2",
        ],
        ('ard_rbf', 20, 4): [
            "0x1.4000000000001p+3", "0x1.f09d43be287fep-2", "0x1.4000000000001p+3",
            "0x1.4000000000001p+3", "0x1.bab6751116558p-1", "0x1.f66b3b93862fcp-2",
        ],
        ('matern15', 20, 4): [
            "0x1.53c701f7a192bp-1", "0x1.a75fac524e15dp-1", "0x1.893ea06ec280fp-2",
        ],
        ('matern25', 20, 4): [
            "0x1.47db56e4b986ep-1", "0x1.9d48ea2bb4ef2p-1", "0x1.9e80b6ec9e48bp-2",
        ],
        ('rbf', 50, 20): [
            "0x1.bb2a7e8b40ed8p-1", "0x1.21f44529fad97p+0", "0x1.5798ee2308c2fp-27",
        ],
        ('ard_rbf', 50, 20): [
            "0x1.6b4950f8ea13dp-2", "0x1.83de0b1fcba41p-1", "0x1.868e338842930p-1",
            "0x1.91267e95a1b80p-1", "0x1.4000000000001p+3", "0x1.4000000000001p+3",
            "0x1.4000000000001p+3", "0x1.4000000000001p+3", "0x1.dccd11e0dbb2ap+1",
            "0x1.7921bd6e557c3p+0", "0x1.4000000000001p+3", "0x1.4000000000001p+3",
            "0x1.b2fdce6f0ceb9p-1", "0x1.4000000000001p+3", "0x1.4000000000001p+3",
            "0x1.c07f5294c58e4p-2", "0x1.4000000000001p+3", "0x1.ecf01bcb25bd8p+1",
            "0x1.4000000000001p+3", "0x1.4000000000001p+3", "0x1.1da3b3c4ca5b6p+0",
            "0x1.5798ee2308c2fp-27",
        ],
        ('matern15', 50, 20): [
            "0x1.03ab2d0abb6adp+0", "0x1.339d52d720766p+0", "0x1.5798ee2308c2fp-27",
        ],
        ('matern25', 50, 20): [
            "0x1.eb2d276173040p-1", "0x1.2e0988fc93c1ep+0", "0x1.5798ee2308c2fp-27",
        ],
    }

    # (family, n, dim) -> value, then gradient, at log lengthscales evenly
    # spaced from log 0.4 to log 1.5, signal variance 1.3 and noise 0.01.
    LIKELIHOOD = {
        ('rbf', 20, 4): [
            "-0x1.05e87b32ee284p+5", "-0x1.bcd20a06ba0d6p+4", "0x1.ae9d89e35c598p+2",
            "0x1.c1724afe9accdp-1",
        ],
        ('ard_rbf', 20, 4): [
            "-0x1.7b99eba52eddcp+6", "-0x1.23a57498ba036p+6", "-0x1.2d6a9e3a423f4p+5",
            "-0x1.d165f7b23d4aap+5", "-0x1.7bd2db500dc33p+4", "0x1.2a1278f0839cep+5",
            "0x1.63e26fec3a3c9p+5",
        ],
        ('matern15', 20, 4): [
            "-0x1.bd8e9a95669c2p+4", "-0x1.0f1dc0abc6ed3p+1", "0x1.3c3df319ceb70p-4",
            "0x1.f2948f16b3365p-5",
        ],
        ('matern25', 20, 4): [
            "-0x1.c9ef8628fc3cap+4", "-0x1.7cb04b4cdfc33p+2", "0x1.71c4216edd4aap+0",
            "0x1.3f145e254db7bp-3",
        ],
        ('rbf', 50, 20): [
            "-0x1.1e8b436947ebep+6", "0x1.79b5c001a744bp-1", "-0x1.803ac056b8ff1p+2",
            "-0x1.8336c78015f8ap-5",
        ],
        ('ard_rbf', 50, 20): [
            "-0x1.11f8428958d68p+6", "-0x1.d7c1bc30e4226p+0", "0x1.17aab82f6deaap-3",
            "0x1.acd96acd03b9ep-1", "0x1.e58e535d12d8cp-1", "0x1.49944563469d1p+0",
            "0x1.3ef9daa53042cp+0", "0x1.c0ff8b4bb9d1cp+0", "0x1.20974cfd5adf2p-1",
            "0x1.c4630b00b5085p-1", "0x1.3a4323854fc0ap-1", "0x1.f4e5ad4c18a92p-1",
            "0x1.997ad6b295452p-1", "0x1.59e8c74911800p-2", "0x1.102d1a0c44f10p-1",
            "0x1.2215563e460b4p-5", "-0x1.42a45479bbef8p-6", "0x1.00ea086ff2f25p-3",
            "0x1.7ff48a3292934p-2", "0x1.1bd61a86b3f9bp-2", "0x1.8fc6eef91dd38p-3",
            "-0x1.c83dec7021b26p+2", "-0x1.31ca90f546c26p-4",
        ],
        ('matern15', 50, 20): [
            "-0x1.1e12fbbb32077p+6", "0x1.0121a651ded66p+0", "-0x1.855c0fe853c00p+2",
            "-0x1.90193619e83f3p-5",
        ],
        ('matern25', 50, 20): [
            "-0x1.1e367809b7699p+6", "0x1.f4d93ee3c47dap-1", "-0x1.843886d9caee1p+2",
            "-0x1.8c88f72bc37dap-5",
        ],
    }

    @pytest.mark.parametrize("family, n, d", list(FITS))
    def test_fit(self, family, n, d):
        z, y = self.data(n, d)
        model = GpModel.fit(z, y, family=family, seed=5)
        got = [*np.atleast_1d(model.kernel.lengthscales), model.kernel.output_variance,
               model.noise_variance]
        assert [float(v).hex() for v in got] == self.FITS[family, n, d], PIN_PLATFORM

    @pytest.mark.parametrize("family, n, d", list(LIKELIHOOD))
    def test_likelihood(self, family, n, d):
        z, y = self.data(n, d)
        yw = (y - y.mean()) / y.std()
        n_ls = d if family == "ard_rbf" else 1
        ls = np.linspace(math.log(0.4), math.log(1.5), n_ls)
        theta = np.concatenate([ls, [math.log(1.3), math.log(0.01)]])
        value, grad = _likelihood(z, yw, family, n_ls)(theta)
        got = [float(v).hex() for v in [value, *grad]]
        assert got == self.LIKELIHOOD[family, n, d], PIN_PLATFORM


def negated(mll_and_grad):
    """The objective that ``GpModel.fit`` minimizes: the likelihood and its gradient, negated."""
    def objective(theta):
        value, grad = mll_and_grad(theta)
        return -value, -grad
    return objective


class TestLbfgsbDriver:
    """``gp._lbfgsb`` runs as ``scipy.optimize.minimize(method="L-BFGS-B")`` does.

    Both run in one process on the same objective, so unlike the bit pins
    these checks hold on any CPU and with any BLAS.
    """

    # GpModel.fit's settings.
    FIT = {"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8}

    @staticmethod
    def fit_problem(family, n, d):
        """``GpModel.fit``'s objective on ``TestLikelihoodBits.data``, its bounds and starts."""
        z, y = TestLikelihoodBits.data(n, d)
        yw = (y - y.mean()) / y.std()
        n_ls = d if family == "ard_rbf" else 1
        lo = np.log([_LS_BOUNDS[0]] * n_ls + [_VAR_BOUNDS[0], _NOISE_BOUNDS[0]])
        hi = np.log([_LS_BOUNDS[1]] * n_ls + [_VAR_BOUNDS[1], _NOISE_BOUNDS[1]])
        objective = negated(_likelihood(z, yw, family, n_ls))
        return objective, lo, hi, _fit_starts(n_ls, 5, lo, hi)

    @pytest.mark.parametrize("family, n, d", list(TestLikelihoodBits.FITS))
    def test_fit_from_every_start(self, family, n, d):
        objective, lo, hi, starts = self.fit_problem(family, n, d)
        for theta0 in starts:
            assert_lbfgsb_matches_scipy(_lbfgsb, objective, theta0, lo, hi, **self.FIT)

    def test_repeated_point_is_not_evaluated_again(self, monkeypatch):
        objective, lo, hi, starts = self.fit_problem("matern25", 50, 20)
        asked = []
        setulb = gp.setulb

        def recording_setulb(*args):
            setulb(*args)
            if args[11][0] == 3:  # task: f and g wanted at x
                asked.append(args[1].copy())

        monkeypatch.setattr(gp, "setulb", recording_setulb)
        _, calls = assert_lbfgsb_matches_scipy(_lbfgsb, objective, starts[1], lo, hi, **self.FIT)
        repeats = sum(np.array_equal(a, b) for a, b in zip(asked, asked[1:]))
        assert repeats > 0 and calls == len(asked) - repeats

    def test_infinite_start(self):
        # A huge signal variance fails every jitter level (FactorizationError).
        objective = negated(_likelihood(np.zeros((3, 1)), np.array([-1.0, 0.0, 1.0]), "rbf", 1))
        theta0 = np.log([1e6, 1e16, 1e-8])
        assert objective(theta0)[0] == np.inf
        res, _ = assert_lbfgsb_matches_scipy(_lbfgsb, objective, theta0, theta0 - 1.0,
                                             theta0 + 1.0, **self.FIT)
        assert res.fun == np.inf

    def test_stops_at_the_iteration_cap(self):
        objective, lo, hi, starts = self.fit_problem("matern25", 50, 20)
        res, _ = assert_lbfgsb_matches_scipy(_lbfgsb, objective, starts[0], lo, hi,
                                             **{**self.FIT, "maxiter": 3})
        assert res.nit == 3 and res.status == 1

    def test_start_outside_the_bounds(self):
        objective, lo, hi, starts = self.fit_problem("ard_rbf", 20, 4)
        theta0 = starts[0].copy()
        theta0[0], theta0[-1] = hi[0] + 1.0, lo[-1] - 5.0
        res, _ = assert_lbfgsb_matches_scipy(_lbfgsb, objective, theta0, lo, hi, **self.FIT)
        assert np.all((lo <= res.x) & (res.x <= hi))


class TestModelBookkeeping:
    def test_add_observation_grows_training_set(self):
        model = GpModel(KernelSpec("rbf"), 0.01, [[0.0], [1.0]], [0.0, 1.0])
        model.add_observation([0.5], 0.4)
        assert model.n_train == 3
        assert model.targets[-1] == 0.4

    # An infinite coordinate is at infinite distance from every training
    # input, so its covariances are all 0 and only this check catches it.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_add_observation_rejects_non_finite_input(self, value):
        model = GpModel(KernelSpec("rbf"), 0.01, [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="observation input must be finite"):
            model.add_observation([value, 0.5], 0.4)
        assert model.n_train == 2

    def test_standardization_tracks_appended_targets(self):
        model = GpModel(KernelSpec("rbf"), 0.01, [[0.0], [1.0]], [0.0, 2.0])
        model.add_observation([0.5], 100.0)
        y = np.array([0.0, 2.0, 100.0])
        assert model._y_mean == y.mean()
        assert model._y_scale == y.std()

    def test_standardization_off_stays_identity(self):
        model = GpModel(
            KernelSpec("rbf"), 0.01, [[0.0], [1.0]], [0.0, 2.0], standardize=False
        )
        model.add_observation([0.5], 100.0)
        assert model._y_mean == 0.0
        assert model._y_scale == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GpModel(KernelSpec("rbf"), -0.1, [[0.0]], [1.0])
        with pytest.raises(ValueError):
            GpModel(KernelSpec("rbf"), 0.1, [[0.0], [1.0]], [1.0])
        with pytest.raises(ValueError):
            GpModel(KernelSpec("rbf"), 0.1, [[0.0]], [math.nan])
        with pytest.raises(ValueError, match="at least one observation"):
            GpModel(KernelSpec("rbf"), 0.1, np.zeros((0, 1)), [])
        model = GpModel(KernelSpec("rbf"), 0.1, [[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="observation dimension"):
            model.add_observation([0.5, 0.5], 0.4)
        with pytest.raises(ValueError, match="target must be finite"):
            model.add_observation([0.5], math.nan)
        with pytest.raises(ValueError, match="unknown kernel family"):
            GpModel.fit([[0.0], [1.0]], [0.0, 1.0], family="cubic")
