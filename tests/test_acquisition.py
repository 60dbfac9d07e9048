import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from oracles import (
    PIN_PLATFORM,
    assert_lbfgsb_matches_scipy,
    central_difference,
    ei_closed_form,
    ei_monte_carlo,
)

import viewplan
from viewplan import EiState, GpModel, KernelSpec, ei_value, ei_values, maximize_ei
from viewplan.acquisition import (
    _MAX_ROUNDS,
    _POLISH_ITERS,
    SIGMA_FLOOR,
    _ei_and_grad,
    _pattern_search,
    _sobol_candidates,
)
from viewplan.gp import _lbfgsb


def far_field_state(sigma=1.0, incumbent=0.0, train_y=0.0):
    """Model whose posterior at z=50 is exactly N(train_y*k..., ~(0, sigma^2)).

    With a tiny lengthscale the training point is invisible from the query,
    so the posterior there is the prior: mean 0, variance sigma^2.
    """
    model = GpModel(
        KernelSpec("rbf", output_variance=sigma**2, lengthscales=0.01),
        0.0,
        [[0.0]],
        [train_y],
        standardize=False,
    )
    return EiState(incumbent=incumbent, model=model)


FAR = np.array([50.0])


def pinned_state(family, dim, n=None, seed=3):
    """A surrogate with fixed hyperparameters over a smooth target; no fit."""
    rng = np.random.default_rng(seed)
    n = n or dim + 8
    z = rng.uniform(0, 1, (n, dim))
    y = np.sin(3 * z[:, 0]) + z[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    ls = np.linspace(0.3, 1.2, dim) if family == "ard_rbf" else 0.4
    model = GpModel(KernelSpec(family, 1.3, ls), 1e-4, z, y)
    return EiState.from_model(model)


def converging_state():
    """One-dimensional EI with two smooth peaks: starts settle at different rounds."""
    model = GpModel(KernelSpec("rbf", 1.0, 0.2), 0.0, [[0.5]], [1.0], standardize=False)
    return EiState(incumbent=1.0, model=model)


def floor_state():
    """Noise-free surrogate whose deviation is exactly 0 at its best input."""
    model = GpModel(KernelSpec("rbf", 1.0, 0.3), 0.0, [[0.2, 0.7, 0.4]], [0.6],
                    standardize=False)
    return EiState(incumbent=0.5, model=model)


class TestEiValue:
    def test_zero_gap_unit_sigma(self):
        state = far_field_state(sigma=1.0, incumbent=0.0)
        assert ei_value(state, FAR) == pytest.approx(0.398942, abs=1e-6)

    def test_unit_gap_unit_sigma(self):
        state = far_field_state(sigma=1.0, incumbent=-1.0)
        assert ei_value(state, FAR) == pytest.approx(1.083316, abs=1e-6)

    def test_degenerate_sigma_negative_gap(self):
        model = GpModel(KernelSpec("rbf"), 0.0, [[0.0]], [0.2], standardize=False)
        state = EiState(incumbent=0.5, model=model)
        assert ei_value(state, [0.0]) == 0.0

    def test_degenerate_sigma_positive_gap(self):
        model = GpModel(KernelSpec("rbf"), 0.0, [[0.0]], [0.2], standardize=False)
        state = EiState(incumbent=-0.3, model=model)
        assert ei_value(state, [0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 1, (15, 3))
        y = rng.normal(size=15)
        model = GpModel.fit(z, y, family="matern25", seed=0)
        state = EiState.from_model(model)
        vals = ei_values(state, rng.uniform(0, 1, (500, 3)))
        assert np.all(vals >= 0.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(8)
        for k in range(10):
            sigma = float(rng.uniform(0.2, 2.0))
            delta = float(rng.uniform(-2.0, 2.0) * sigma)
            state = far_field_state(sigma=sigma, incumbent=-delta)
            got = ei_value(state, FAR)
            estimate, se = ei_monte_carlo(0.0, sigma, -delta, 200_000, seed=100 + k)
            assert abs(got - estimate) <= 3.0 * se
            assert got == pytest.approx(ei_closed_form(0.0, sigma, -delta), abs=1e-9)

    def test_monotone_in_mean(self):
        state_lo = far_field_state(sigma=1.0, incumbent=0.5)
        state_hi = far_field_state(sigma=1.0, incumbent=0.1)
        # larger gap to the incumbent (higher mean) gives larger EI
        assert ei_value(state_hi, FAR) > ei_value(state_lo, FAR)

    def test_monotone_in_sigma_when_mean_below_incumbent(self):
        small = far_field_state(sigma=0.5, incumbent=0.4)
        large = far_field_state(sigma=1.0, incumbent=0.4)
        assert ei_value(large, FAR) >= ei_value(small, FAR)

    def test_large_sigma_limit(self):
        state = far_field_state(sigma=1e6, incumbent=1.5)
        ratio = ei_value(state, FAR) / 1e6
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-6)

    def test_zero_at_noise_free_training_points(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0, 1, (6, 2))
        y = rng.normal(size=6)
        model = GpModel(KernelSpec("matern25", 1.0, 0.7), 0.0, z, y, standardize=False)
        state = EiState.from_model(model)
        best = int(np.argmax(y))
        for k in range(6):
            if k == best:
                continue
            assert ei_value(state, z[k]) == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_single_points_bit_for_bit(self):
        state = floor_state()
        rng = np.random.default_rng(2)
        batch = np.vstack([state.model.inputs, rng.uniform(0, 1, (6, 3)), [[0.25, 0.7, 0.4]]])
        _, var = state.model.posterior_batch(batch)
        live = np.sqrt(var) > SIGMA_FLOOR
        assert live.any() and not live.all()
        values = ei_values(state, batch)
        for row, value in zip(batch, values):
            assert value == ei_value(state, row)


class TestMaximizeEi:
    @staticmethod
    def make_state(dim=4, n=20, seed=7):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, 1, (n, dim))
        y = np.sin(3 * z[:, 0]) + z[:, 1] ** 2 + 0.05 * rng.normal(size=n)
        model = GpModel.fit(z, y, family="matern25", seed=seed)
        return EiState.from_model(model)

    def test_stays_in_unit_cube(self):
        state = self.make_state()
        for seed in range(5):
            z = maximize_ei(state, budget=128, rng_seed=seed)
            assert z.shape == (4,)
            assert np.all(z >= 0.0) and np.all(z <= 1.0)

    def test_deterministic(self):
        state = self.make_state()
        a = maximize_ei(state, budget=256, rng_seed=11)
        b = maximize_ei(state, budget=256, rng_seed=11)
        assert np.array_equal(a, b)

    def test_beats_every_raw_candidate(self):
        state = self.make_state()
        budget, seed = 128, 9
        z = maximize_ei(state, budget=budget, rng_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            raw = qmc.Sobol(state.model.dim, scramble=True, seed=seed).random(budget)
        raw = np.vstack([raw, state.model.inputs[int(np.argmax(state.model.targets))]])
        assert ei_value(state, z) >= ei_values(state, raw).max() - 1e-15

    def test_matches_dense_grid_in_one_dimension(self):
        model = GpModel(
            KernelSpec("rbf", output_variance=1.0, lengthscales=0.2),
            0.0,
            [[0.5]],
            [1.0],
            standardize=False,
        )
        state = EiState(incumbent=1.0, model=model)
        z = maximize_ei(state, budget=512, rng_seed=4)
        grid = np.linspace(0.0, 1.0, 100_001)[:, None]
        grid_max = ei_values(state, grid).max()
        assert abs(ei_value(state, z) - grid_max) <= 1e-4

    def test_budget_validated(self):
        state = self.make_state()
        with pytest.raises(ValueError):
            maximize_ei(state, budget=0)

    def test_from_model_uses_best_target(self):
        state = self.make_state()
        assert state.incumbent == state.model.targets.max()


class TestMaximizeEiBits:
    """Exact ``float.hex()`` of every coordinate ``maximize_ei`` returns.

    ``TestMaximizeEi`` checks properties of the search; these catch a change
    in the last bit of its arithmetic. A key is (kernel family, dimension)
    for :func:`pinned_state`, or the name of a state that runs a particular
    branch of the search. Every value was captured with the 60-round pattern
    search, its null-move rule and the L-BFGS-B polish, on numpy 2.4.6 and
    scipy 1.17.1 with the OpenBLAS their wheels bundle, on an x86-64 CPU
    with AVX-512.
    """

    PINNED = {
        ("rbf", 4): [
            "0x1.f02b38ff20884p-2", "0x1.0000000000000p+0", "0x1.7db21ac8a2108p-2",
            "0x1.4208482ebb6bcp-1",
        ],
        ("ard_rbf", 4): [
            "0x1.de0b4b9ee0509p-2", "0x1.0000000000000p+0", "0x1.b75ffd1c53552p-2",
            "0x1.dfd8f89d805dap-2",
        ],
        ("matern15", 4): [
            "0x1.27490b34a53d8p-1", "0x1.0000000000000p+0", "0x1.3773fdc2d36aap-2",
            "0x1.1b2ea6f3c0d8dp-1",
        ],
        ("matern25", 4): [
            "0x1.1fff653be1cd9p-1", "0x1.0000000000000p+0", "0x1.59c9c0c0ea452p-2",
            "0x1.1434ac01383ebp-1",
        ],
        ("rbf", 20): [
            "0x1.8edf0df7dede1p-2", "0x1.1f37745a59c33p-1", "0x1.62114567f5de0p-2",
            "0x1.9e83bb0a11871p-3", "0x1.d318ea9a4c026p-1", "0x1.81e07f8e03ae4p-3",
            "0x1.4c12fd9c2f4c5p-3", "0x1.9e84735f40ba3p-2", "0x1.7311a34b07a78p-2",
            "0x1.01a3587277595p-2", "0x1.51a47c41a3ec8p-1", "0x1.de9242d99e441p-1",
            "0x1.f2f3719b9338ep-4", "0x1.621540a9a0696p-2", "0x1.3d5d0aeb9dd9dp-1",
            "0x1.976225faaaabbp-1", "0x1.af69420f87235p-1", "0x1.1392add181d37p-2",
            "0x1.23bebd65f61d2p-1", "0x1.bbd6a1cc88a65p-1",
        ],
        ("ard_rbf", 20): [
            "0x1.ed7f2e6441835p-2", "0x1.659b6b334120fp-1", "0x1.b3176bd86ec1fp-2",
            "0x1.21eebfcf4f3f5p-2", "0x1.52b252ab8c283p-1", "0x1.a2d6848aa2f4ap-2",
            "0x1.9b08031078476p-2", "0x1.12d62896d992cp-2", "0x1.e46ae9a546282p-2",
            "0x1.43f9f2676a6f4p-2", "0x1.f98ae3caa36e6p-2", "0x1.73b7a014c430cp-1",
            "0x1.f9850a56481b5p-3", "0x1.fb984696ecc1cp-2", "0x1.da48dcf042d02p-2",
            "0x1.13d2dd455be03p-1", "0x1.c482f9290fbd0p-1", "0x1.9bec3cbe12490p-2",
            "0x1.ebfe109df53c5p-2", "0x1.544cae70940d1p-1",
        ],
        ("matern15", 20): [
            "0x1.c49698a967bfcp-2", "0x1.5638fbde7cd3cp-1", "0x1.53691e77dafc9p-2",
            "0x1.22dadd24e851fp-3", "0x1.ded49978054d8p-1", "0x1.36a015ae09a82p-3",
            "0x1.21e84d111d151p-3", "0x1.6368e6215c885p-2", "0x1.8188b30ab4f73p-2",
            "0x1.c21ff0ad4f1f6p-3", "0x1.334ac4e663b02p-1", "0x1.ebea130623c23p-1",
            "0x1.7914f975abee4p-5", "0x1.7e2609e853a03p-2", "0x1.3bf9c6741da8bp-1",
            "0x1.9314f49771640p-1", "0x1.0000000000000p+0", "0x1.ca95480bfd158p-3",
            "0x1.f5bfa20bc34c1p-2", "0x1.c72c3d6a0bd36p-1",
        ],
        ("matern25", 20): [
            "0x1.ae41c0b37ec19p-2", "0x1.3cf467b21c68bp-1", "0x1.5a26da045efdfp-2",
            "0x1.43ba1c6c22364p-3", "0x1.dc610309619abp-1", "0x1.314f8fadef085p-3",
            "0x1.255bd22ebe4c4p-3", "0x1.869462d0a7c2ap-2", "0x1.7d115dcc21ef2p-2",
            "0x1.d53aac4ec6e54p-3", "0x1.4591f698adcc0p-1", "0x1.eb119c1f29003p-1",
            "0x1.ff6729b2e1fc2p-5", "0x1.6c7ced18f1ba9p-2", "0x1.3bda4f80a501cp-1",
            "0x1.92ceeda0d149cp-1", "0x1.e8a704782e1aep-1", "0x1.0272251fb79d9p-2",
            "0x1.0b39d1d214f5ep-1", "0x1.c5d59b6e8f88ep-1",
        ],
        "converging": ["0x1.5b2143f825ad5p-1"],
        "floor": ["0x1.3a9e8e845e2e0p-2", "0x1.8eb417e7fd1f7p-2", "0x1.61b0d13a06a7ep-2"],
    }

    NAMED = {"converging": converging_state, "floor": floor_state}

    @pytest.mark.parametrize(
        "key", list(PINNED), ids=lambda key: key if isinstance(key, str) else f"{key[0]}-{key[1]}"
    )
    def test_bits(self, key):
        state = self.NAMED[key]() if key in self.NAMED else pinned_state(*key)
        z = maximize_ei(state, budget=64, rng_seed=5)
        assert [v.hex() for v in z.tolist()] == self.PINNED[key], PIN_PLATFORM

    def test_converging_state_runs_rounds_with_some_starts_settled(self, monkeypatch):
        state = converging_state()
        sizes = []
        original = state.model.coordinate_probes

        def record(centers, steps):
            sizes.append(len(centers))
            return original(centers, steps)

        monkeypatch.setattr(state.model, "coordinate_probes", record)
        maximize_ei(state, budget=64, rng_seed=5)
        assert len(sizes) < _MAX_ROUNDS
        assert any(0 < size < sizes[0] for size in sizes)

    def test_polish_never_lowers_the_searched_ei(self):
        gains = []
        for key in self.PINNED:
            state = self.NAMED[key]() if key in self.NAMED else pinned_state(*key)
            xs, fs = _pattern_search(state, 64, 5)
            searched = ei_value(state, xs[np.argmax(fs)])
            polished = ei_value(state, maximize_ei(state, budget=64, rng_seed=5))
            assert polished >= searched, key
            gains.append(polished > searched)
        assert any(gains)

    def test_floor_state_has_a_deviation_at_the_floor(self):
        model = floor_state().model
        _, var = model.posterior_batch(model.inputs)
        assert np.sqrt(var[0]) <= SIGMA_FLOOR



@pytest.mark.parametrize(
    "key", [("matern25", 20), ("ard_rbf", 4), "converging"],
    ids=lambda key: key if isinstance(key, str) else f"{key[0]}-{key[1]}",
)
def test_polish_runs_lbfgsb_as_scipy_does(key):
    """The polish's L-BFGS-B run, side by side with scipy's, from the searched starts."""
    state = TestMaximizeEiBits.NAMED[key]() if isinstance(key, str) else pinned_state(*key)
    xs, _ = _pattern_search(state, 64, 5)

    def objective(flat):
        ei, grad = _ei_and_grad(state, flat.reshape(xs.shape))
        return -ei.sum(), -grad.reshape(-1)

    assert_lbfgsb_matches_scipy(_lbfgsb, objective, xs.reshape(-1), np.zeros(xs.size),
                                np.ones(xs.size), maxiter=_POLISH_ITERS, gtol=0.0)


class TestEiGradient:
    """The posterior and EI gradients that the polish in ``maximize_ei`` follows."""

    @pytest.mark.parametrize("family", ["rbf", "ard_rbf", "matern15", "matern25"])
    def test_matches_central_differences(self, family):
        state = pinned_state(family, 4)
        model = state.model
        rng = np.random.default_rng(11)
        # Three random points and a training input, where r = 0.
        points = np.vstack([rng.uniform(0.0, 1.0, (3, 4)), model.inputs[:1]])
        _, _, mean_grad, var_grad = model._posterior_grad(points)
        _, ei_grad = _ei_and_grad(state, points)
        for k, z in enumerate(points):
            for got, f in [
                (mean_grad[k], lambda q: model.posterior_batch(q[None])[0][0]),
                (var_grad[k], lambda q: model.posterior_batch(q[None])[1][0]),
                (ei_grad[k], lambda q: ei_values(state, q[None])[0]),
            ]:
                np.testing.assert_allclose(got, central_difference(f, z, step=1e-6),
                                           rtol=1e-5, atol=1e-8)

    def test_posterior_values_match_posterior_batch(self):
        state = pinned_state("matern25", 4)
        points = np.random.default_rng(12).uniform(0.0, 1.0, (5, 4))
        mean, var, _, _ = state.model._posterior_grad(points)
        expected_mean, expected_var = state.model.posterior_batch(points)
        assert mean.tobytes() == expected_mean.tobytes()
        assert var.tobytes() == expected_var.tobytes()

    def test_floor_state_takes_the_plain_improvement_branch(self):
        state = floor_state()
        z = state.model.inputs[0]
        ei, grad = _ei_and_grad(state, z[None])
        assert ei[0] == ei_value(state, z) > 0.0
        fd = central_difference(lambda q: ei_values(state, q[None])[0], z, step=1e-6)
        np.testing.assert_allclose(grad[0], fd, atol=1e-8)


class TestEiBits:
    """Exact ``float.hex()`` of EI values and coordinate-probe posteriors.

    ``TestMaximizeEiBits`` pins returned points, which are sums of pattern
    search steps and round off most changes in the last bit of EI; these pin
    the values the search compares. Each state scores six query rows (for
    ``"floor"`` the first is its training input, where the deviation is at
    the floor, so the batch mixes both branches of the improvement) and the
    probes around two centers. Every value was captured at commit b2d987f.
    """

    PINNED = {
        ("rbf", 4): {
            "ei": [
                "0x1.63be176be13c0p-35", "0x1.29b4ee4bd6e30p-12", "0x1.5f8be43aeddc8p-13",
                "0x1.a2bf00750b7b8p-10", "0x1.850cb83bd52b0p-13", "0x1.0b9de6599e110p-14",
            ],
            "mean": [
                "0x1.4fa28e43e1eb6p+0", "0x1.430c8056798dep+0", "0x1.5b5c6e64507f2p+0",
                "0x1.39df69f83096fp+0", "0x1.48c0d602bacfap+0", "0x1.4b9e5b3d7889cp+0",
                "0x1.4c8eab9024807p+0", "0x1.47274d3e5860dp+0", "0x1.e3ca040d2eabap-1",
                "0x1.e2f1e382fd944p-1", "0x1.e2a5c87e9b6b2p-1", "0x1.e444c5fcf6c3fp-1",
                "0x1.e298c3e444e2cp-1", "0x1.e44756639cb97p-1", "0x1.e10689d27a2fap-1",
                "0x1.e5bfee3e8caaep-1",
            ],
            "var": [
                "0x1.ea1fb936d6f2dp-4", "0x1.1a8dfdd16ee2bp-3", "0x1.f6305e5357490p-4",
                "0x1.1548ce2de312bp-3", "0x1.e454a34e9f52bp-4", "0x1.1d2c9354bb1a8p-3",
                "0x1.13796445c0fa2p-3", "0x1.fbbd3ce9fca12p-4", "0x1.6919fc6a352d9p-4",
                "0x1.512bb124d0255p-4", "0x1.5eda3dde9ca89p-4", "0x1.5b881c9651a6cp-4",
                "0x1.63634d223fceep-4", "0x1.571630f84405cp-4", "0x1.49553964543efp-4",
                "0x1.7085e67706015p-4",
            ],
        },
        ("ard_rbf", 4): {
            "ei": [
                "0x1.27ed059128f00p-247", "0x1.7aec489cee988p-13", "0x1.569d9a83b58c0p-64",
                "0x1.e254227e71500p-19", "0x1.67bba62535780p-37", "0x1.5a612bccc4e10p-23",
            ],
            "mean": [
                "0x1.62929ff2d02c6p+0", "0x1.2e9411a8f3bbcp+0", "0x1.5f52dc804a8c2p+0",
                "0x1.37979411afc7dp+0", "0x1.48f6b1993ea1ep+0", "0x1.4caa5ceb14a42p+0",
                "0x1.4b1e6e42092d8p+0", "0x1.4abc7f0a639acp+0", "0x1.8d0922088e597p-1",
                "0x1.93bb412298d8bp-1", "0x1.8fd84e6d5de86p-1", "0x1.90c9df350174ep-1",
                "0x1.8ede762aee516p-1", "0x1.91afaabebb4c7p-1", "0x1.8fbb32e9d8f19p-1",
                "0x1.90d065924a1abp-1",
            ],
            "var": [
                "0x1.04a8da7c375c2p-5", "0x1.2fab17335b95ap-5", "0x1.15e8e369d01acp-5",
                "0x1.216ac435b0fcep-5", "0x1.d2dce362a793bp-6", "0x1.4c02dfd4f7ffdp-5",
                "0x1.21421dba002f4p-5", "0x1.1210222386494p-5", "0x1.263f24ff45105p-5",
                "0x1.d295428f0d011p-6", "0x1.01a8bed65da0fp-5", "0x1.0cad802f68d2ep-5",
                "0x1.0ba0f099d4bc8p-5", "0x1.02a427ee816c6p-5", "0x1.ff8cd33b9c552p-6",
                "0x1.0e575ee6d08b1p-5",
            ],
        },
        ("matern15", 4): {
            "ei": [
                "0x1.fd446e6737080p-20", "0x1.120f0276c7d64p-9", "0x1.419fb781fe6a8p-9",
                "0x1.04a11ab10086cp-8", "0x1.bb797014d48f8p-9", "0x1.0eda936acb7e0p-10",
            ],
            "mean": [
                "0x1.3293888c91798p+0", "0x1.2639fd722ed81p+0", "0x1.3933180ca166fp+0",
                "0x1.21076f0376dfbp+0", "0x1.2c280693401fep+0", "0x1.2d88ca181b0f5p+0",
                "0x1.2da4ab1ee4b5cp+0", "0x1.2b6f9c0da1c3fp+0", "0x1.dd8f4daf684c6p-1",
                "0x1.dba16a510f251p-1", "0x1.dd336e7799c5ap-1", "0x1.dc1fbcc06222dp-1",
                "0x1.dc811550333fep-1", "0x1.dcc9f8e3c4f4ep-1", "0x1.db4820a45db90p-1",
                "0x1.ddf229d3d3334p-1",
            ],
            "var": [
                "0x1.4257a354ad26dp-3", "0x1.5a3eacd73e5a5p-3", "0x1.46c65383be8d2p-3",
                "0x1.5645baf18f8ccp-3", "0x1.41b2a660cf5f3p-3", "0x1.5aca468d0be69p-3",
                "0x1.560e5e1a2eb58p-3", "0x1.4857569e3a916p-3", "0x1.0757d8361a35cp-3",
                "0x1.f9107aa963a60p-4", "0x1.0259232ef25c7p-3", "0x1.01b462ba26a28p-3",
                "0x1.04ea2964db420p-3", "0x1.fe39a15390c0bp-4", "0x1.f0805c56af1cep-4",
                "0x1.0b2cefd7a0f22p-3",
            ],
        },
        ("matern25", 4): {
            "ei": [
                "0x1.f53fb139756a0p-24", "0x1.66c247fd5afc0p-10", "0x1.4f3707b98d260p-10",
                "0x1.9f0b2cf349ca0p-9", "0x1.19d1c7841ebd0p-9", "0x1.17433d90c3f10p-11",
            ],
            "mean": [
                "0x1.3b01becfcfdc2p+0", "0x1.2e013dbc46552p+0", "0x1.42f9aa556297dp+0",
                "0x1.27c8078649d4ep+0", "0x1.34513f067c876p+0", "0x1.35d3be9f9d38fp+0",
                "0x1.360d6fef5a85fp+0", "0x1.336912de81a33p+0", "0x1.de34a7d2bc9acp-1",
                "0x1.dc81e36fd7602p-1", "0x1.ddb9c732e1715p-1", "0x1.dd21b640c40acp-1",
                "0x1.dd253f9b10833p-1", "0x1.ddae6e1a7058bp-1", "0x1.dbdfe0a9ec520p-1",
                "0x1.dee117f184571p-1",
            ],
            "var": [
                "0x1.2f27960fe3996p-3", "0x1.4bc8b87675243p-3", "0x1.34352142e3949p-3",
                "0x1.4741b32904bbdp-3", "0x1.2e4e04d3b9375p-3", "0x1.4c6a008f747d3p-3",
                "0x1.466b09c632145p-3", "0x1.368ed963ee9a8p-3", "0x1.d444a7a32c5d0p-4",
                "0x1.bcb69e6453e4ep-4", "0x1.c99fc69660527p-4", "0x1.c7ab6a10cb693p-4",
                "0x1.cefbf2d7cde0bp-4", "0x1.c2485b3d7d4d9p-4", "0x1.b3a3c6ed05d95p-4",
                "0x1.dc899f0152dedp-4",
            ],
        },
        "floor": {
            "ei": [
                "0x1.9999999999998p-4", "0x1.033bcb5f30c83p-2", "0x1.a1672f380cb7ep-3",
                "0x1.9f938a4b6b8dbp-3", "0x1.d3cb32d94adddp-3", "0x1.b09d82f3aa7a0p-3",
            ],
            "mean": [
                "0x1.db0b06e3c262ap-5", "0x1.c8857bffa6c4cp-4", "0x1.4ec2834a328bep-4",
                "0x1.43ea328c9c6d9p-4", "0x1.355cb0c6a20b6p-4", "0x1.5e81df8e6932ep-4",
                "0x1.2688d9f1d99ecp-7", "0x1.5d92a882b6ef5p-7", "0x1.47ac467246c41p-7",
                "0x1.3a383f3eaece1p-7", "0x1.2800ef46cfc57p-7", "0x1.5bd68365d066dp-7",
            ],
            "var": [
                "0x1.fb37af1bb81edp-1", "0x1.ee552c9c843fbp-1", "0x1.f6800d79e5e63p-1",
                "0x1.f71b128ed5d1bp-1", "0x1.f7e312280ff62p-1", "0x1.f595de1d08f15p-1",
                "0x1.ffe29590875a0p-1", "0x1.ffd69041c10c6p-1", "0x1.ffdb97b9bb164p-1",
                "0x1.ffde855675a5dp-1", "0x1.ffe24a41bee05p-1", "0x1.ffd6f949e7fbap-1",
            ],
        },
    }

    @pytest.mark.parametrize(
        "key", list(PINNED), ids=lambda key: key if isinstance(key, str) else f"{key[0]}-{key[1]}"
    )
    def test_bits(self, key):
        state = floor_state() if key == "floor" else pinned_state(*key)
        model = state.model
        rng = np.random.default_rng(11)
        if key == "floor":
            batch = np.vstack([model.inputs[:1], rng.uniform(0, 1, (5, model.dim))])
        else:
            batch = rng.uniform(0, 1, (6, model.dim))
        _, mean, var = model.coordinate_probes(rng.uniform(0, 1, (2, model.dim)), [0.05, 0.0125])
        got = {
            "ei": ei_values(state, batch),
            "mean": mean,
            "var": var,
        }
        for name, values in got.items():
            assert [v.hex() for v in values.tolist()] == self.PINNED[key][name], (
                f"{name}: {PIN_PLATFORM}")


class TestSobolCandidates:
    """The candidate set equals scipy's scrambled Sobol' sequence byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2, 10, 15, 20, 25, 30, 60])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_scipy(self, dim, seed):
        for budget in (1, 2, 3, 100, 2048, 2049):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                expected = qmc.Sobol(dim, scramble=True, seed=seed).random(budget)
            got = _sobol_candidates(dim, budget, seed)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), budget

    def test_dimension_limit(self):
        _sobol_candidates(21201, 1, 0)
        with pytest.raises(ValueError, match="21201"):
            _sobol_candidates(21202, 1, 0)


@pytest.mark.parametrize("module", ["viewplan", "viewplan.cli"])
def test_import_leaves_out_scipy_stats(module):
    env = {**os.environ, "PYTHONPATH": str(Path(viewplan.__file__).parents[1])}
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
