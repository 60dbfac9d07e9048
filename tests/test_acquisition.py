import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from oracles import ei_closed_form, ei_monte_carlo

from viewplan import EiState, GpModel, KernelSpec, ei_value, ei_values, maximize_ei
from viewplan.acquisition import SIGMA_FLOOR


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
    branch of the search. Every value was captured at commit b3c5480, before
    the pattern-search rounds used cached training-side arrays, cached probe
    positions and an unmasked improvement path.
    """

    PINNED = {
        ("rbf", 4): [
            "0x1.f083958ccccc5p-2", "0x1.0000000000000p+0", "0x1.7e1d171ccccc7p-2",
            "0x1.419fb714cccdbp-1",
        ],
        ("ard_rbf", 4): [
            "0x1.de0a72d333333p-2", "0x1.0000000000000p+0", "0x1.b7626da000000p-2",
            "0x1.dfd0f41cccccbp-2",
        ],
        ("matern15", 4): [
            "0x1.275b646000000p-1", "0x1.0000000000000p+0", "0x1.37837d8333332p-2",
            "0x1.1b1fb714ccccdp-1",
        ],
        ("matern25", 4): [
            "0x1.1ff7402cccccep-1", "0x1.0000000000000p+0", "0x1.59d49a7000000p-2",
            "0x1.14381b1666663p-1",
        ],
        ("rbf", 20): [
            "0x1.8ee4ad499999ap-2", "0x1.1f23340b3332fp-1", "0x1.6206b45000000p-2",
            "0x1.9e7c24c000001p-3", "0x1.d317bcd4ccccep-1", "0x1.81fd68f99999bp-3",
            "0x1.4c082e4cccccdp-3", "0x1.9e5f500000001p-2", "0x1.73121dacccccdp-2",
            "0x1.01a0c5b000000p-2", "0x1.51b85eecccccdp-1", "0x1.de9726b666665p-1",
            "0x1.f2fc40b333334p-4", "0x1.6204110cccccep-2", "0x1.3d5dd6299999bp-1",
            "0x1.975311c333336p-1", "0x1.af732d1b33334p-1", "0x1.1374dd6666667p-2",
            "0x1.23b70f8000000p-1", "0x1.bbc5c01e66668p-1",
        ],
        ("ard_rbf", 20): [
            "0x1.ed7e46e333334p-2", "0x1.65a3340b33331p-1", "0x1.b306b45000000p-2",
            "0x1.21d7abf99999ap-2", "0x1.52b1566e66667p-1", "0x1.a2cb814999999p-2",
            "0x1.9b04172666665p-2", "0x1.12c5b66666668p-2", "0x1.e478841333333p-2",
            "0x1.44072c1666666p-2", "0x1.f9a3f10ccccccp-2", "0x1.73b0c04ffffffp-1",
            "0x1.f97e20599999ap-3", "0x1.fb9daaa666665p-2", "0x1.da5545ecccccdp-2",
            "0x1.13d311c333333p-1", "0x1.c4732d1b33334p-1", "0x1.9bdb43ccccccdp-2",
            "0x1.ec07b89999998p-2", "0x1.545f59b800001p-1",
        ],
        ("matern15", 20): [
            "0x1.c49836b999996p-2", "0x1.563b5624ccccep-1", "0x1.5373132ccccccp-2",
            "0x1.22a0730000001p-3", "0x1.decaf65e66669p-1", "0x1.36be9d7999995p-3",
            "0x1.21b1b56000001p-3", "0x1.6371f71999999p-2", "0x1.8181f59ccccccp-2",
            "0x1.c24088d99999bp-3", "0x1.334a832b33332p-1", "0x1.ebefb0799999ep-1",
            "0x1.793080e666667p-5", "0x1.7e29762000000p-2", "0x1.3beb706199999p-1",
            "0x1.933ff8d333335p-1", "0x1.0000000000000p+0", "0x1.cb210ec666667p-3",
            "0x1.f5c3ed4ffffffp-2", "0x1.c7388e4b33336p-1",
        ],
        ("matern25", 20): [
            "0x1.ae17e07cccccbp-2", "0x1.3cf000d7ffffep-1", "0x1.5a39e78333332p-2",
            "0x1.43af57f333333p-3", "0x1.dc6489a19999dp-1", "0x1.3197029333334p-3",
            "0x1.253b618000000p-3", "0x1.8692833333334p-2", "0x1.7d121dacccccdp-2",
            "0x1.d5418b6000001p-3", "0x1.45b85eecccccdp-1", "0x1.eb1726b666666p-1",
            "0x1.ff921b0000000p-5", "0x1.6c6a777333333p-2", "0x1.3bddd62999999p-1",
            "0x1.92b978299999dp-1", "0x1.e899999999999p-1", "0x1.020e76fffffffp-2",
            "0x1.0b370f8000000p-1", "0x1.c5df59b800003p-1",
        ],
        "converging": ["0x1.49babd2ccccccp-2"],
        "floor": ["0x1.0b95011800000p-1", "0x1.61e4ff07ffffdp-1", "0x1.450be7299999ap-2"],
    }

    NAMED = {"converging": converging_state, "floor": floor_state}

    @pytest.mark.parametrize(
        "key", list(PINNED), ids=lambda key: key if isinstance(key, str) else f"{key[0]}-{key[1]}"
    )
    def test_bits(self, key):
        state = self.NAMED[key]() if key in self.NAMED else pinned_state(*key)
        z = maximize_ei(state, budget=64, rng_seed=5)
        assert [v.hex() for v in z.tolist()] == self.PINNED[key]

    def test_converging_state_runs_rounds_with_some_starts_settled(self, monkeypatch):
        state = converging_state()
        sizes = []
        original = state.model.coordinate_probes

        def record(centers, steps):
            sizes.append(len(centers))
            return original(centers, steps)

        monkeypatch.setattr(state.model, "coordinate_probes", record)
        maximize_ei(state, budget=64, rng_seed=5)
        assert len(sizes) < 200
        assert any(0 < size < sizes[0] for size in sizes)

    def test_floor_state_has_a_deviation_at_the_floor(self):
        model = floor_state().model
        _, var = model.posterior_batch(model.inputs)
        assert np.sqrt(var[0]) <= SIGMA_FLOOR

