import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import noisy_scene
from oracles import PIN_PLATFORM

from viewplan import (
    BoConfig,
    FactorizationError,
    NoiseModel,
    PointCloud,
    RegretTrace,
    SceneSpec,
    SearchSpace,
    apply_noise,
    circular_baseline,
    decode,
    generate_scene,
    init_design,
    noisy_reward,
    run_bo,
    run_experiment,
    sample_realization,
    simple_regret,
)
from viewplan import planner as planner_mod
from viewplan.geometry import _aimed_encoding
from viewplan.planner import _cell_seed


SMALL_CLOUD = generate_scene(SceneSpec(layout="single", points_per_plant=12, rng_seed=3))
SMALL_CFG = BoConfig(n_cameras=2, n_init=4, n_iters=3, af_budget=32, rng_seed=5)


class TestBoConfig:
    def test_dim(self):
        assert BoConfig(n_cameras=4).dim() == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cameras": 1},
            {"n_cameras": 3, "n_init": 0},
            {"n_cameras": 3, "n_iters": -1},
            {"n_cameras": 3, "kernel": "cubic"},
            {"n_cameras": 3, "af_budget": 0},
            {"n_cameras": 3, "refit_every": -2},
            {"n_cameras": 3, "n_init": 1},
            {"n_cameras": 3, "af_budget": 2**30 + 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoConfig(**kwargs)

    def test_af_budget_up_to_the_sobol_limit(self):
        assert BoConfig(n_cameras=2, af_budget=2**30).af_budget == 2**30


class TestSimpleRegret:
    def test_default_optimum(self):
        assert simple_regret(0.3) == 0.7


class TestRegretTrace:
    @staticmethod
    def make(observed, n_init=2):
        return RegretTrace(
            inputs=[np.full(10, 0.1 * k) for k in range(len(observed))],
            observed=list(observed),
            n_init=n_init,
        )

    def test_running_best_is_cummax(self):
        trace = self.make([0.2, 0.1, 0.5, 0.4, 0.5])
        assert np.array_equal(trace.running_best(), [0.2, 0.2, 0.5, 0.5, 0.5])

    def test_regret_is_one_minus_running_best_exactly(self):
        rng = np.random.default_rng(0)
        observed = rng.uniform(0, 0.9, 30).tolist()
        trace = self.make(observed, n_init=10)
        best = np.maximum.accumulate(observed)
        assert np.array_equal(trace.regrets(), 1.0 - best)
        for (t, phase, obs, run_best, regret), expect_best in zip(trace.rows(), best):
            assert regret == 1.0 - expect_best
            assert run_best == expect_best

    def test_rows_phases_and_iterations(self):
        trace = self.make([0.1, 0.2, 0.3, 0.4], n_init=2)
        rows = list(trace.rows())
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        assert [r[1] for r in rows] == ["init", "init", "bo", "bo"]

    def test_bo_regrets_excludes_design(self):
        trace = self.make([0.1, 0.6, 0.2, 0.7], n_init=2)
        assert np.array_equal(trace.bo_regrets(), [1 - 0.6, 1 - 0.7])

    def test_best_value_and_input(self):
        trace = self.make([0.1, 0.6, 0.2], n_init=1)
        assert trace.best_value() == 0.6
        assert trace.final_regret() == 1 - 0.6
        assert np.array_equal(trace.best_input(), np.full(10, 0.1))

    def test_len(self):
        assert len(self.make([0.1, 0.2, 0.3])) == 3


def fail_first_query(monkeypatch, n_init):
    """Make the first query after an ``n_init``-point design in this process raise ValueError."""
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == n_init + 1:
            raise ValueError("camera on a scene point")
        return noisy_reward(*args)

    monkeypatch.setattr(planner_mod, "noisy_reward", flaky)


def record_scoring(monkeypatch):
    """The list of process ids of the ``noisy_reward`` calls made in this process."""
    scored_in = []

    def recording(*args):
        scored_in.append(os.getpid())
        return noisy_reward(*args)

    monkeypatch.setattr(planner_mod, "noisy_reward", recording)
    return scored_in


class TestInitDesign:
    def test_shape_and_range(self):
        _, zs, ys = init_design(SMALL_CFG, SMALL_CLOUD)
        assert zs.shape == (4, 10)
        assert ys.shape == (4,)
        assert np.all(zs >= 0.0) and np.all(zs <= 1.0)

    def test_deterministic(self):
        a = init_design(SMALL_CFG, SMALL_CLOUD)
        b = init_design(SMALL_CFG, SMALL_CLOUD)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_design(self):
        _, a, _ = init_design(SMALL_CFG, SMALL_CLOUD)
        _, b, _ = init_design(replace(SMALL_CFG, rng_seed=6), SMALL_CLOUD)
        assert not np.array_equal(a, b)

    def test_values_are_decoded_rewards(self):
        _, zs, ys = init_design(SMALL_CFG, SMALL_CLOUD)
        for z, y in zip(zs, ys):
            placement = decode(z, SMALL_CFG.space)
            assert y == noisy_reward(placement, SMALL_CLOUD, SMALL_CFG.reward_params)


class TestRunBo:
    def test_trace_length_and_prefix(self):
        trace = run_bo(SMALL_CFG, SMALL_CLOUD)
        assert len(trace) == SMALL_CFG.n_init + SMALL_CFG.n_iters
        assert not trace.incomplete
        _, zs, ys = init_design(SMALL_CFG, SMALL_CLOUD)
        assert np.array_equal(np.asarray(trace.inputs[:4]), zs)
        assert trace.observed[:4] == [float(v) for v in ys]

    def test_regrets_non_increasing(self):
        trace = run_bo(SMALL_CFG, SMALL_CLOUD)
        regrets = trace.regrets()
        assert np.all(np.diff(regrets) <= 0.0)
        assert trace.best_value() >= max(trace.observed[:4])

    def test_zero_iters_is_design_only(self):
        trace = run_bo(replace(SMALL_CFG, n_iters=0), SMALL_CLOUD)
        assert len(trace) == SMALL_CFG.n_init
        _, _, ys = init_design(SMALL_CFG, SMALL_CLOUD)
        assert trace.best_value() == max(float(v) for v in ys)

    def test_deterministic(self):
        a = run_bo(SMALL_CFG, SMALL_CLOUD)
        b = run_bo(SMALL_CFG, SMALL_CLOUD)
        assert a.observed == b.observed
        assert all(np.array_equal(x, y) for x, y in zip(a.inputs, b.inputs))

    def test_deterministic_past_130_points(self):
        # From about 130 training points the BLAS results depend on the thread
        # count, which importing the package pins (see test_cli.py); reruns
        # must match bit for bit.
        cfg = replace(SMALL_CFG, n_init=10, n_iters=130, refit_every=50)
        a = run_bo(cfg, SMALL_CLOUD)
        b = run_bo(cfg, SMALL_CLOUD)
        assert len(list(a.rows())) == 140
        assert a.observed == b.observed

    def test_trace_rows_rescore_exactly_and_face_the_centroid(self):
        trace = run_bo(SMALL_CFG, SMALL_CLOUD)
        assert len(trace) > trace.n_init
        centroid = SMALL_CLOUD.centroid()
        for z, y in zip(trace.inputs, trace.observed):
            placement = decode(z, SMALL_CFG.space)
            assert noisy_reward(placement, SMALL_CLOUD, SMALL_CFG.reward_params) == y
            for cam in placement.cameras:
                to_cam = cam.position.as_array() - centroid
                cos_tilt = cam.orientation.as_array() @ to_cam / np.linalg.norm(to_cam)
                assert math.acos(min(1.0, cos_tilt)) <= math.pi / 4 + 1e-9

    def test_evaluation_error_fails_the_run(self, monkeypatch):
        fail_first_query(monkeypatch, SMALL_CFG.n_init)
        with pytest.raises(ValueError, match="camera on a scene point"):
            run_bo(SMALL_CFG, SMALL_CLOUD)

    def test_factorization_failure_flags_trace(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FactorizationError(1e-4)

        monkeypatch.setattr(planner_mod.GpModel, "fit", boom)
        trace = run_bo(SMALL_CFG, SMALL_CLOUD)
        assert trace.incomplete
        assert len(trace) == SMALL_CFG.n_init

    def test_failure_to_add_an_observation_keeps_its_placement(self, monkeypatch):
        # The 3rd query is scored, then extending the factor with it fails.
        scored = []

        def recording(*args):
            scored.append(noisy_reward(*args))
            return scored[-1]

        added = []
        add = planner_mod.GpModel.add_observation

        def flaky(self, z, y):
            added.append(y)
            if len(added) == 3:
                raise FactorizationError(1e-4)
            add(self, z, y)

        monkeypatch.setattr(planner_mod, "noisy_reward", recording)
        monkeypatch.setattr(planner_mod.GpModel, "add_observation", flaky)
        cfg = replace(SMALL_CFG, n_iters=5)
        trace = run_bo(cfg, SMALL_CLOUD)
        assert trace.incomplete
        assert len(trace) == cfg.n_init + 3 == len(scored)
        assert trace.observed[-1] == scored[-1]

    def test_failed_refit_ends_the_run(self, monkeypatch):
        fits = []
        fit = planner_mod.GpModel.fit

        def flaky(*args, **kwargs):
            fits.append(args)
            if len(fits) == 2:
                raise FactorizationError(1e-4)
            return fit(*args, **kwargs)

        monkeypatch.setattr(planner_mod.GpModel, "fit", flaky)
        cfg = replace(SMALL_CFG, n_iters=5, refit_every=2)
        trace = run_bo(cfg, SMALL_CLOUD)
        assert trace.incomplete
        assert len(trace) == cfg.n_init + 2


class TestEvaluationBits:
    """Exact ``float.hex()`` of the design and of aimed encodings.

    The values are the vectors in :func:`decode`'s format of the same
    placements built as ``CameraPose`` objects (position, then the view axis
    aimed at the centroid and tilted), with the reward of each design row on
    top. A change in the last bit of a position, an angle or a reward fails
    here.
    """

    # (layout, scene seed) -> (zs, ys) of a 2-point design with 3 cameras,
    # seeded with the scene seed.
    DESIGN = {
        ("row3", 11): (
            [
                "0x1.c7eb1175711bdp-1", "0x1.ae029e75712cap-1", "0x1.5567cbf921f1ep-1",
                "0x1.06ee5ae9732ffp-3", "0x1.6c55ce29dd532p-1", "0x1.359ea57d849f6p-2",
                "0x1.a4e7713ab4166p-5", "0x1.e3c35ed3f5ee7p-1", "0x1.39944f7b4b4a5p-1",
                "0x1.766e6295bae7bp-1", "0x1.7840f51bf24eap-1", "0x1.d2addc1d93dc3p-1",
                "0x1.ca1f9d3b38ec9p-1", "0x1.d64e4846ce63ap-4", "0x1.6b4d81425e5f1p-1",
                "0x1.fd1497e13bf30p-4", "0x1.587001d95b881p-1", "0x1.ba0abe0ed2a1cp-3",
                "0x1.c2a2acff4a78ap-2", "0x1.0e487226f1405p-1", "0x1.1473b534f2c03p-3",
                "0x1.9601ac1ad923dp-1", "0x1.e4a067c827c51p-4", "0x1.9292e63c6da2fp-2",
                "0x1.d489e759fef50p-2", "0x1.f6d4ceb562eb8p-1", "0x1.df61769519a76p-1",
                "0x1.2532e705620fap-2", "0x1.dcfced2523960p-4", "0x1.d9607973f886bp-2",
            ],
            ["0x1.609d140cd31a7p-4", "0x1.4011b58d924f1p-4"],
        ),
        ("grid9", 12): (
            [
                "0x1.707edad2d324ap-1", "0x1.01260be767dffp-1", "0x1.8ab553a8ccbd8p-2",
                "0x1.eb2ac80e3b08fp-1", "0x1.9b9ff23cda68ap-2", "0x1.da0db1a4a291ap-1",
                "0x1.4d799afe21fbap-1", "0x1.c431280e69be1p-3", "0x1.f87a412d831f1p-1",
                "0x1.874710e53b9f3p-2", "0x1.b638186dee1a0p-4", "0x1.2b130b75d7a1dp-3",
                "0x1.0eed2f6a15399p-1", "0x1.2ca14a20b991ap-1", "0x1.1ed37b28f9ee6p-2",
                "0x1.71ce6cd53e83dp-1", "0x1.0a1e4807a7f49p-1", "0x1.67b637d0cf7a7p-4",
                "0x1.e5249200de90bp-1", "0x1.b5142ba5f1870p-2", "0x1.5baac7d2ef468p-3",
                "0x1.45752f2a86220p-2", "0x1.36a893be06c3dp-1", "0x1.376b2847c7694p-1",
                "0x1.f2f553b2c6165p-2", "0x1.e6adf499d31d0p-1", "0x1.4480a6ef550d4p-2",
                "0x1.b943725d53d40p-2", "0x1.c060fe86a730ap-1", "0x1.fa914c0b0bf3ap-2",
            ],
            ["0x1.eadc50bcfacb6p-5", "0x1.d65d2fab52002p-5"],
        ),
    }

    @pytest.mark.parametrize("layout, seed", list(DESIGN), ids=[k[0] for k in DESIGN])
    def test_design(self, layout, seed):
        cfg = BoConfig(n_cameras=3, n_init=2, rng_seed=seed)
        xs, zs, ys = init_design(cfg, noisy_scene(layout, seed, points_per_plant=100))
        assert xs.shape == zs.shape == (2, 15)
        assert [v.hex() for v in zs.ravel()] == self.DESIGN[layout, seed][0], PIN_PLATFORM
        assert [v.hex() for v in ys] == self.DESIGN[layout, seed][1], PIN_PLATFORM

    # Its centroid is (0, 0, 0.4): a camera at x = y = 0.5 in the default box
    # sits straight above or below it, where the tilt falls back to the x axis.
    EDGE_CLOUD = PointCloud([(-1.0, 0.0, 0.3), (1.0, 0.0, 0.3), (0.0, -1.0, 0.5), (0.0, 1.0, 0.5)])

    # name -> (search vector, decode-format vector)
    AIMED = {
        "corners": (
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [
                "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                "0x1.4000000000000p-1", "0x1.dfd66368f9919p-2", "0x1.0000000000000p+0",
                "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0208c26825cb9p-2",
                "0x1.198990c452c25p-1",
            ],
        ),
        "above_below": (
            [0.5, 0.5, 1.0, 0.25, 1.0, 0.5, 0.5, 0.0, 0.75, 1.0],
            [
                "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
                "0x1.0000000000000p+0", "0x1.8000000000000p-1", "0x1.0000000000000p-1",
                "0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1",
                "0x1.fffffffffffffp-3",
            ],
        ),
    }

    @pytest.mark.parametrize("name", list(AIMED))
    def test_aimed_encoding(self, name):
        vec, expect = self.AIMED[name]
        z = _aimed_encoding(np.array(vec), SearchSpace.default(), self.EDGE_CLOUD.centroid())
        assert [v.hex() for v in z] == expect, PIN_PLATFORM

    def test_camera_on_the_centroid_raises(self):
        vec = np.tile([0.5, 0.5, 0.0, 0.5, 0.5], 2)
        with pytest.raises(ValueError, match="coincides"):
            _aimed_encoding(vec, SearchSpace.default(), np.array([0.0, 0.0, 0.05]))


class TestCircularBaseline:
    def test_geometry_of_best_placement(self):
        result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=8)
        centroid = SMALL_CLOUD.centroid()
        positions = result.placement.positions()
        n = len(positions)
        rel = positions - centroid
        rads = np.hypot(rel[:, 0], rel[:, 1])
        assert np.ptp(rads) <= 1e-9
        assert np.ptp(positions[:, 2]) <= 1e-9
        angles = np.arctan2(rel[:, 1], rel[:, 0])
        gaps = np.diff(np.unwrap(angles))
        assert np.allclose(gaps, 2 * math.pi / n, atol=1e-9)

    def test_cameras_face_the_centroid(self):
        result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=5)
        centroid = SMALL_CLOUD.centroid()
        for cam in result.placement.cameras:
            away = cam.position.as_array() - centroid
            axis = cam.orientation.as_array()
            assert np.linalg.norm(np.cross(away, axis)) <= 1e-9
            assert away @ axis > 0.0

    def test_best_value_and_lengths(self):
        result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=7)
        assert len(result.values) == 7
        assert len(result.radii) == 7
        assert len(result.heights) == 7
        assert result.best_value == max(result.values)
        assert result.final_regret() == 1.0 - result.best_value

    def test_samples_stay_in_box(self):
        space = SMALL_CFG.space
        result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=20)
        r_cap = 0.5 * min(
            space.upper[0] - space.lower[0], space.upper[1] - space.lower[1]
        )
        for radius, height in zip(result.radii, result.heights):
            assert 0.0 < radius <= r_cap
            assert space.lower[2] <= height <= space.upper[2]

    def test_deterministic(self):
        a = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6)
        b = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6)
        assert a.values == b.values
        assert a.radii == b.radii

    def test_candidate_count_validated(self):
        with pytest.raises(ValueError):
            circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=0)

    @pytest.mark.parametrize(
        "xs, message",
        [
            # The cloud spans the default box, so no circle fits around it.
            ((-2.5, 2.5), "cannot hold"),
            # Every surrounding circle crosses the wall at x = 2.5.
            ((2.39, 2.51), "in-box"),
        ],
        ids=["fills_the_box", "against_the_wall"],
    )
    def test_cloud_the_box_cannot_surround(self, xs, message):
        cloud = PointCloud([[x, 0.0, 0.5] for x in xs])
        with pytest.raises(ValueError, match=message):
            circular_baseline(SMALL_CFG, cloud, n_candidates=3)

    def test_rows_track_running_best(self):
        result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6)
        rows = list(result.rows())
        best = np.maximum.accumulate(result.values)
        for (t, phase, obs, run_best, regret), expect in zip(rows, best):
            assert phase == "baseline"
            assert run_best == expect
            assert regret == 1.0 - expect
        assert [r[0] for r in rows] == list(range(1, 7))


NOISE = NoiseModel(sigma=0.05, rng_seed=11)


def tiny_experiment(**overrides):
    kwargs = dict(
        kernels=("rbf", "matern15"),
        n_realizations=2,
        n_baseline=3,
        scene_label="tiny",
    )
    kwargs.update(overrides)
    return run_experiment(SMALL_CLOUD, NOISE, SMALL_CFG, **kwargs)


def assert_same_trace(a, b):
    assert a.observed == b.observed
    assert a.incomplete == b.incomplete and a.n_init == b.n_init
    assert [np.asarray(x).tobytes() for x in a.inputs] == [np.asarray(y).tobytes() for y in b.inputs]


def assert_same_report(a, b):
    assert a.traces.keys() == b.traces.keys()
    for key in a.traces:
        assert_same_trace(a.traces[key], b.traces[key])
    assert a.baselines == b.baselines
    assert a.errors == b.errors
    assert a.tracebacks.keys() == b.tracebacks.keys()


# Worker counts that exercise both dispatch paths of the experiment's cells
# and the baseline's candidates: in-process, then (where fork exists) two
# worker processes.
DISPATCHES = [1, 2] if "fork" in multiprocessing.get_all_start_methods() else [1]


def run_on(monkeypatch, workers):
    monkeypatch.setattr(planner_mod, "_workers", lambda n_tasks: min(n_tasks, workers))


@pytest.fixture
def pooled(monkeypatch):
    """Run the cells on two worker processes, whatever the CPU count."""
    if 2 not in DISPATCHES:
        pytest.skip("the worker pool needs the fork start method")
    run_on(monkeypatch, 2)


@pytest.mark.skipif(2 not in DISPATCHES, reason="the worker pool needs fork")
def test_fork_map_hands_tasks_over_by_fork():
    # Neither the lambda nor the tasks' locks can be pickled.
    tasks = [(k, threading.Lock()) for k in range(5)]
    out = planner_mod._fork_map(lambda k, lock: (k * k, os.getpid()), tasks, 2)
    assert [square for square, _ in out] == [0, 1, 4, 9, 16]
    assert os.getpid() not in {pid for _, pid in out}
    assert multiprocessing.active_children() == []


# Maps two sleeping tasks over two forked workers; each task writes its
# worker's pid before it sleeps, in one write so the two lines cannot mix.
SLEEPING_PARENT = """
import os, time
from viewplan import planner

def nap(seconds):
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(seconds)

planner._fork_map(nap, [(60,), (60,)], 2)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` names a process that has not exited (zombies have)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(2 not in DISPATCHES or not Path("/proc/self/stat").exists(),
                    reason="needs fork and Linux's PR_SET_PDEATHSIG")
def test_fork_map_workers_die_with_their_parent():
    env = dict(os.environ, PYTHONPATH=str(Path(planner_mod.__file__).parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", SLEEPING_PARENT], env=env,
                              stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(parent.stdout.readline()) for _ in range(2)]
        parent.send_signal(signal.SIGTERM)
        parent.wait(timeout=5)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        parent.kill()
        parent.wait()
        parent.stdout.close()


class TestBaselineDispatch:
    """The baseline scores its candidates alike in-process and on two forked workers."""

    pytestmark = pytest.mark.skipif(2 not in DISPATCHES, reason="the worker pool needs fork")

    @pytest.fixture(scope="class")
    def dense_cloud(self):
        # The 45,000-point cloud of TestRewardBits.dense_cloud in test_reward.py.
        return noisy_scene("grid9", 12, points_per_plant=5000)

    @staticmethod
    def assert_same_on_both_paths(monkeypatch, config, cloud, n_candidates):
        results = []
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            results.append(circular_baseline(config, cloud, n_candidates=n_candidates))
            assert multiprocessing.active_children() == []
        in_process, forked = results
        assert forked.values == in_process.values
        assert forked.radii == in_process.radii
        assert forked.heights == in_process.heights
        assert forked.placement == in_process.placement
        assert forked.best_value == in_process.best_value

    def test_small_cloud(self, monkeypatch):
        # 7 candidates: chunks of 3 and 4
        self.assert_same_on_both_paths(monkeypatch, SMALL_CFG, SMALL_CLOUD, 7)

    def test_dense_cloud(self, monkeypatch, dense_cloud):
        self.assert_same_on_both_paths(monkeypatch, BoConfig(n_cameras=6, rng_seed=12),
                                       dense_cloud, 10)

    def test_candidates_score_in_forked_workers(self, monkeypatch):
        scored_in = record_scoring(monkeypatch)
        run_on(monkeypatch, 2)
        assert len(circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6).values) == 6
        assert scored_in == []
        run_on(monkeypatch, 1)
        circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6)
        assert scored_in == [os.getpid()] * 6

    def test_first_best_candidate_wins_a_tie(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "noisy_reward", lambda *args: 0.25)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            result = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=6)
            assert result.values == (0.25,) * 6
            assert result.placement.cameras[0].position.z == result.heights[0]

    # Candidates whose scoring raises: in both chunks of 8, in the second only, in all.
    @pytest.mark.parametrize("failing", [(2, 5), (5,), tuple(range(8))])
    def test_scoring_error_is_the_same_on_both_paths(self, monkeypatch, failing):
        heights = circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=8).heights
        bad = {heights[k] for k in failing}

        def picky(placement, cloud, params):
            z = placement.cameras[0].position.z
            if z in bad:
                raise ValueError(f"no score at height {z.hex()}")
            return noisy_reward(placement, cloud, params)

        monkeypatch.setattr(planner_mod, "noisy_reward", picky)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            with pytest.raises(ValueError) as info:
                circular_baseline(SMALL_CFG, SMALL_CLOUD, n_candidates=8)
            assert type(info.value) is ValueError
            assert str(info.value) == f"no score at height {heights[failing[0]].hex()}"
            assert multiprocessing.active_children() == []


class TestRunExperiment:
    def test_grid_is_complete(self):
        report = tiny_experiment()
        assert set(report.traces) == {
            ("rbf", 0), ("rbf", 1), ("matern15", 0), ("matern15", 1),
        }
        assert set(report.baselines) == {0, 1}
        assert report.errors == {}
        assert report.n_cells() == 2 * 2 + 2
        for trace in report.traces.values():
            assert len(trace) == SMALL_CFG.n_init + SMALL_CFG.n_iters

    def test_deterministic(self):
        a = tiny_experiment()
        b = tiny_experiment()
        for key in a.traces:
            assert a.traces[key].observed == b.traces[key].observed
        for rid in a.baselines:
            assert a.baselines[rid].values == b.baselines[rid].values

    def test_cells_see_paired_noisy_clouds(self):
        report = tiny_experiment()
        rid = 1
        noisy = apply_noise(SMALL_CLOUD, sample_realization(NOISE, SMALL_CLOUD, rid))

        base_cfg = replace(SMALL_CFG, rng_seed=_cell_seed(SMALL_CFG.rng_seed, (2, rid)))
        baseline = circular_baseline(base_cfg, noisy, n_candidates=3)
        assert baseline.values == report.baselines[rid].values

        bo_cfg = replace(
            SMALL_CFG, kernel="rbf", rng_seed=_cell_seed(SMALL_CFG.rng_seed, (1, 0, rid))
        )
        trace = run_bo(bo_cfg, noisy)
        assert trace.observed == report.traces[("rbf", rid)].observed

    def test_mean_curves(self):
        report = tiny_experiment()
        curve = report.mean_bo_regrets("rbf")
        assert curve.shape == (SMALL_CFG.n_iters,)
        assert np.all(np.isfinite(curve))
        assert np.all(np.diff(curve) <= 1e-15)
        stacked = np.stack(
            [report.traces[("rbf", r)].bo_regrets() for r in range(2)]
        )
        assert np.allclose(curve, stacked.mean(axis=0), atol=0)
        assert np.isnan(report.mean_bo_regrets("ard_rbf")).all()

    def test_baseline_mean_regret(self):
        report = tiny_experiment()
        expect = np.mean([report.baselines[r].final_regret() for r in range(2)])
        assert report.baseline_mean_regret() == pytest.approx(expect, abs=0)

    def test_one_worker_per_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert planner_mod._workers(9) == 4
        assert planner_mod._workers(2) == 2

    def test_pooled_cells_match_direct_calls(self, pooled):
        report = tiny_experiment()
        for rid in range(2):
            noisy = apply_noise(SMALL_CLOUD, sample_realization(NOISE, SMALL_CLOUD, rid))
            for kernel_idx, kernel in enumerate(("rbf", "matern15")):
                seed = _cell_seed(SMALL_CFG.rng_seed, (1, kernel_idx, rid))
                trace = run_bo(replace(SMALL_CFG, kernel=kernel, rng_seed=seed), noisy)
                assert_same_trace(report.traces[(kernel, rid)], trace)
            seed = _cell_seed(SMALL_CFG.rng_seed, (2, rid))
            baseline = circular_baseline(replace(SMALL_CFG, rng_seed=seed), noisy, n_candidates=3)
            assert report.baselines[rid] == baseline

    def test_in_process_report_is_the_same(self, pooled, monkeypatch):
        pooled = tiny_experiment()
        run_on(monkeypatch, 1)
        assert_same_report(tiny_experiment(), pooled)

    def test_no_worker_outlives_the_run(self, pooled):
        tiny_experiment()
        assert multiprocessing.active_children() == []

    def test_failed_cell_is_isolated(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("no circle today")

        monkeypatch.setattr(planner_mod, "circular_baseline", boom)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            report = tiny_experiment()
            assert set(report.errors) == {"baseline/r0", "baseline/r1"}
            assert report.errors["baseline/r0"] == "ValueError: no circle today"
            assert set(report.traces) == {
                ("rbf", 0), ("rbf", 1), ("matern15", 0), ("matern15", 1),
            }
            assert report.baselines == {}

    def test_failed_cell_keeps_its_traceback(self, monkeypatch):
        def no_circle(*args, **kwargs):
            raise ValueError("no circle today")

        monkeypatch.setattr(planner_mod, "circular_baseline", no_circle)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            report = tiny_experiment()
            assert set(report.tracebacks) == set(report.errors) == {"baseline/r0", "baseline/r1"}
            for tb in report.tracebacks.values():
                assert "in no_circle" in tb
                assert tb.rstrip().endswith("ValueError: no circle today")

    def test_evaluation_error_fails_its_cell(self, monkeypatch):
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            fail_first_query(monkeypatch, SMALL_CFG.n_init)
            report = tiny_experiment(kernels=("rbf",), n_realizations=1)
            assert report.errors == {"rbf/r0": "ValueError: camera on a scene point"}
            assert report.traces == {} and set(report.baselines) == {0}
            tb = report.tracebacks["rbf/r0"]
            assert "in run_bo" in tb and "in flaky" in tb
            assert tb.rstrip().endswith("ValueError: camera on a scene point")

    def test_factorization_failure_flags_its_cell(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FactorizationError(1e-4)

        monkeypatch.setattr(planner_mod.GpModel, "fit", boom)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            report = tiny_experiment(kernels=("rbf",), n_realizations=1)
            assert report.errors == {"rbf/r0": "incomplete: surrogate factorization failed"}
            assert report.tracebacks == {}
            assert report.traces[("rbf", 0)].incomplete
            assert set(report.baselines) == {0}

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failed cell")

        monkeypatch.setattr(planner_mod, "run_bo", broken)
        for workers in DISPATCHES:
            run_on(monkeypatch, workers)
            with pytest.raises(TypeError, match="a bug"):
                tiny_experiment()
            assert multiprocessing.active_children() == []

    def test_baseline_cell_scores_in_its_own_worker(self, pooled, monkeypatch):
        scored_in = record_scoring(monkeypatch)

        def counting(*args):
            before = len(scored_in)
            circular_baseline(*args)
            return os.getpid(), scored_in[before:]

        monkeypatch.setattr(planner_mod, "circular_baseline", counting)
        report = tiny_experiment(kernels=("rbf",), n_realizations=2)
        assert scored_in == []
        for rid in range(2):
            worker, pids = report.baselines[rid]
            assert worker != os.getpid()
            assert pids == [worker] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_experiment(n_realizations=0)
        with pytest.raises(ValueError):
            tiny_experiment(kernels=("rbf", "spline"))

    def test_repeated_kernel_is_rejected_before_any_cell_runs(self, monkeypatch):
        # Each cell is keyed by its kernel, so a repeat would run twice and keep one.
        def broken(*args, **kwargs):
            raise TypeError("a cell ran")

        monkeypatch.setattr(planner_mod, "run_bo", broken)
        monkeypatch.setattr(planner_mod, "circular_baseline", broken)
        with pytest.raises(ValueError, match="kernels must not repeat"):
            tiny_experiment(kernels=("rbf", "matern15", "rbf"))


class TestWorkerBlasThreads:
    # Imports numpy and scipy before the package, with no thread count in the
    # environment, so each OpenBLAS starts with one thread per CPU; then
    # imports the package and forks, as the experiment's pool does. The
    # forked child prints what each library reports.
    CHILD = """
import ctypes, os, sys
import numpy, scipy.linalg
import viewplan
pid = os.fork()
if pid == 0:
    for path, name in zip(sys.argv[1::2], sys.argv[2::2]):
        getter = getattr(ctypes.CDLL(path), name)
        getter.argtypes, getter.restype = [], ctypes.c_int
        print(getter(), flush=True)
    os._exit(0)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

    def test_forked_child_runs_one_thread_when_numpy_came_first(self):
        bundled = [
            (Path(np.__file__).parents[1] / "numpy.libs", "libscipy_openblas64_*.so",
             "scipy_openblas_get_num_threads64_"),
            (Path(scipy.__file__).parents[1] / "scipy.libs", "libscipy_openblas-*.so",
             "scipy_openblas_get_num_threads"),
        ]
        argv = []
        for libs, pattern, getter in bundled:
            for path in sorted(libs.glob(pattern)):
                argv += [str(path), getter]
        if not argv:
            pytest.skip("neither numpy nor scipy bundles OpenBLAS here")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(planner_mod.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", self.CHILD, *argv], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["1"] * (len(argv) // 2)
