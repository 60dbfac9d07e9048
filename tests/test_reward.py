import importlib
import math

import numpy as np
import pytest

from conftest import as_cloud, as_placement, noisy_scene, random_instance
from oracles import PIN_PLATFORM, reward_bruteforce

from viewplan import (
    BoConfig,
    CameraPose,
    Placement,
    Point3,
    PointCloud,
    RewardParams,
    SearchSpace,
    apply_noise,
    circular_baseline,
    decode,
    generate_scene,
    noisy_reward,
    reward,
    sample_realization,
    NoiseModel,
    SceneSpec,
)

# The module, which the package's ``reward`` function shadows.
reward_module = importlib.import_module("viewplan.reward")

ORIGIN = (0.0, 0.0, 0.0)


def pose(position, axis):
    return CameraPose(Point3(*position), Point3(*axis))


def one_point(cam_i, cam_j, p=ORIGIN):
    """Two-camera placement and one-point cloud: the reward is p's pair term."""
    return Placement((cam_i, cam_j)), PointCloud(np.array([p], dtype=float))


def pair_reward(cam_i, cam_j, p=ORIGIN, params=RewardParams()):
    """Reward of one camera pair on the cloud {p}, checked against the oracle."""
    value = reward(*one_point(cam_i, cam_j, p), params)
    cams = (cam_i, cam_j)
    want = reward_bruteforce(
        [c.position.as_array() for c in cams],
        [c.orientation.as_array() for c in cams],
        [p],
        params.fov,
        params.theta_match,
    )
    assert value == pytest.approx(want, abs=1e-12)
    return value


def partner(cam, p, angle=0.3):
    """Camera looking at p whose ray from p is ``angle`` away from cam's.

    It always sees p and its ray stays matchable with cam's, so a pair with
    it scores above zero exactly when cam's view cone holds p.
    """
    ray = cam.position.as_array() - np.asarray(p)
    c, s = math.cos(angle), math.sin(angle)
    turned = np.array([c * ray[0] - s * ray[1], s * ray[0] + c * ray[1], ray[2]])
    return CameraPose.looking_at(np.asarray(p) + turned, p)


class TestRewardParams:
    def test_defaults(self):
        params = RewardParams()
        assert params.fov == pytest.approx(math.pi / 2)
        assert params.theta_match == pytest.approx(math.pi / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardParams(fov=0.0)
        with pytest.raises(ValueError):
            RewardParams(fov=2.0 * math.pi)
        with pytest.raises(ValueError):
            RewardParams(theta_match=math.pi / 2)


class TestPairQuality:
    """A matchable pair in view scores the sine of its ray separation."""

    def test_orthogonal_rays(self):
        # 90 degrees itself is never matchable (theta_match < pi/2), so come
        # within 1e-6 rad of it under the widest threshold
        t = 0.5 * math.pi - 1e-6
        ci = CameraPose.looking_at((1.0, 0.0, 0.0), ORIGIN)
        cj = CameraPose.looking_at((math.cos(t), math.sin(t), 0.0), ORIGIN)
        params = RewardParams(theta_match=0.5 * math.pi - 1e-7)
        assert pair_reward(ci, cj, params=params) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_rays(self):
        ci = pose((1.0, 0.0, 0.0), (1, 0, 0))
        cj = pose((2.0, 0.0, 0.0), (1, 0, 0))
        assert pair_reward(ci, cj) == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degrees(self):
        t = math.pi / 6.0
        ci = pose((1.0, 0.0, 0.0), (1, 0, 0))
        cj = pose((math.cos(t), math.sin(t), 0.0), (1, 0, 0))
        assert pair_reward(ci, cj) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_in_cameras(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            positions, axes, points = random_instance(rng, 2, 1)
            ci, cj = (pose(p, a) for p, a in zip(positions, axes))
            value = pair_reward(ci, cj, points[0])
            assert pair_reward(cj, ci, points[0]) == value
            assert 0.0 <= value <= 1.0

    def test_coincident_camera_raises(self):
        # the second camera of the pair sits on the point
        ci = pose((1.0, 0.0, 0.0), (1, 0, 0))
        cj = pose((0.0, 0.0, 0.0), (1, 0, 0))
        with pytest.raises(ValueError):
            reward(*one_point(ci, cj), RewardParams())


class TestFovCondition:
    """A pair scores only when both view cones hold the point."""

    def test_point_in_front_of_view_axis(self):
        # axis points from the scene back toward the camera
        cam = pose((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        p = (1.0, 0.0, 0.0)
        assert pair_reward(cam, partner(cam, p), p) > 0.0

    def test_point_just_outside_cone(self):
        cam = pose((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        p = (1.0, 1.01 * math.tan(math.pi / 4.0), 0.0)
        assert pair_reward(cam, partner(cam, p), p) == 0.0

    def test_boundary_is_inclusive(self):
        # constants chosen so the cosine computed as reward() does bit-equals
        # cos(fov/2)
        t = 1.0
        u = np.array([math.cos(t), math.sin(t), 0.0])
        diff = u[None, None, :]
        axis = np.array([[1.0, 0.0, 0.0]])
        q = float((np.einsum("npk,nk->np", diff, axis) / np.linalg.norm(diff, axis=2))[0, 0])
        fov = 2.0 * math.acos(q)
        assert math.cos(0.5 * fov) == q  # precondition for the boundary check
        cam = pose((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        p = tuple(-u)
        placement, cloud = one_point(cam, partner(cam, p), p)
        on_boundary = reward(placement, cloud, RewardParams(fov=fov))
        assert on_boundary > 0.0
        assert on_boundary == reward(placement, cloud, RewardParams(fov=fov + 0.1))

    def test_behind_camera_axis(self):
        cam = pose((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        p = (1.0, 0.0, 0.0)
        assert pair_reward(cam, partner(cam, p), p) == 0.0


class TestMatchCondition:
    """A pair scores only when its rays separate by at most theta_match."""

    def test_small_separation_matches(self):
        t = math.pi / 6.0
        ci = CameraPose.looking_at((1.0, 0.0, 0.0), ORIGIN)
        cj = CameraPose.looking_at((math.cos(t), math.sin(t), 0.0), ORIGIN)
        assert pair_reward(ci, cj) > 0.0

    def test_wide_separation_fails(self):
        t = math.radians(46.0)
        ci = CameraPose.looking_at((1.0, 0.0, 0.0), ORIGIN)
        cj = CameraPose.looking_at((math.cos(t), math.sin(t), 0.0), ORIGIN)
        assert pair_reward(ci, cj) == 0.0

    def test_boundary_is_inclusive(self):
        # constants chosen so the ray cosine computed as reward() does
        # bit-equals cos(theta_match)
        t = 0.7
        d2 = np.array([math.cos(t), math.sin(t), 0.0])
        diff = np.array([[[1.0, 0.0, 0.0]], [d2]])
        dist = np.linalg.norm(diff, axis=2)
        q = float((np.einsum("pk,pk->p", diff[0], diff[1]) / (dist[0] * dist[1]))[0])
        theta = math.acos(q)
        assert math.cos(theta) == q  # precondition for the boundary check
        ci = pose((1.0, 0.0, 0.0), (1, 0, 0))
        cj = pose(tuple(d2), (1, 0, 0))
        placement, cloud = one_point(ci, cj)
        on_boundary = reward(placement, cloud, RewardParams(theta_match=theta))
        assert on_boundary > 0.0
        assert on_boundary == reward(placement, cloud, RewardParams(theta_match=theta + 0.05))


class TestPairVisibility:
    def test_visible_matching_pair(self):
        ci = CameraPose.looking_at((2.0, 0.0, 0.0), ORIGIN)
        cj = CameraPose.looking_at((2.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0), ORIGIN)
        assert pair_reward(ci, cj) == pytest.approx(math.sin(0.3), abs=1e-12)

    def test_one_camera_looking_away(self):
        ci = CameraPose.looking_at((2.0, 0.0, 0.0), ORIGIN)
        cj = pose((2.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0), (-1.0, 0.0, 0.0))
        assert pair_reward(ci, cj) == 0.0

    def test_rays_too_far_apart(self):
        # exactly 90 degrees apart: the sine would be 1, but no pair this wide matches
        ci = CameraPose.looking_at((2.0, 0.0, 0.0), ORIGIN)
        cj = CameraPose.looking_at((0.0, 2.0, 0.0), ORIGIN)
        assert pair_reward(ci, cj) == 0.0


class TestReward:
    def test_zero_when_nothing_visible(self):
        cams = (
            pose((2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),  # view cone away from origin
            pose((0.0, 2.0, 0.0), (0.0, -1.0, 0.0)),
        )
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        assert reward(Placement(cams), cloud, RewardParams()) == 0.0

    def test_single_pair_single_point_equals_pair_quality(self):
        # the pair quality is the sine of the angle between the two rays
        di = np.array([2.0, 0.0, 0.5])
        dj = np.array([2.0 * math.cos(0.35), 2.0 * math.sin(0.35), 0.5])
        ci = CameraPose.looking_at(di, ORIGIN)
        cj = CameraPose.looking_at(dj, ORIGIN)
        sine = np.linalg.norm(np.cross(di, dj)) / (np.linalg.norm(di) * np.linalg.norm(dj))
        assert reward(*one_point(ci, cj), RewardParams()) == pytest.approx(sine, abs=1e-15)

    def test_three_cameras_two_points_vs_bruteforce(self):
        positions = [(2.0, 0.0, 0.4), (0.0, 2.0, 0.4), (1.5, 1.5, 0.6)]
        axes = []
        for p in positions:
            v = np.asarray(p) - np.array([0.0, 0.0, 0.1])
            axes.append(tuple(v / np.linalg.norm(v)))
        points = [(0.0, 0.0, 0.0), (0.1, -0.05, 0.2)]
        params = RewardParams()
        got = reward(as_placement(positions, axes), as_cloud(points), params)
        want = reward_bruteforce(positions, axes, points, params.fov, params.theta_match)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(2024)
        params = RewardParams()
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 21))
            positions, axes, points = random_instance(rng, n, m)
            got = reward(as_placement(positions, axes), as_cloud(points), params)
            want = reward_bruteforce(positions, axes, points, params.fov, params.theta_match)
            assert abs(got - want) < 1e-12

    def test_coincident_camera_raises(self):
        positions = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
        axes = [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            reward(as_placement(positions, axes), cloud, RewardParams())

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        positions, axes, points = random_instance(rng, 4, 50)
        placement = as_placement(positions, axes)
        cloud = as_cloud(points)
        a = reward(placement, cloud, RewardParams())
        b = reward(placement, cloud, RewardParams())
        assert a == b


class TestRewardInvariants:
    def test_batch_invariants(self):
        rng = np.random.default_rng(77)
        params = RewardParams()
        wider = RewardParams(fov=params.fov * 1.5, theta_match=params.theta_match * 1.4)
        for _ in range(120):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 13))
            positions, axes, points = random_instance(rng, n, m)
            placement = as_placement(positions, axes)
            cloud = as_cloud(points)
            value = reward(placement, cloud, params)

            assert 0.0 <= value <= 1.0

            perm = rng.permutation(n)
            shuffled = as_placement(
                [positions[k] for k in perm], [axes[k] for k in perm]
            )
            assert reward(shuffled, cloud, params) == pytest.approx(value, abs=1e-12)

            pperm = rng.permutation(m)
            assert reward(
                placement, as_cloud([points[k] for k in pperm]), params
            ) == pytest.approx(value, abs=1e-12)

            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            shift = rng.uniform(-5, 5, 3)
            moved = as_placement(
                [tuple(q @ np.asarray(p) + shift) for p in positions],
                [tuple(q @ np.asarray(a)) for a in axes],
            )
            moved_cloud = as_cloud([tuple(q @ np.asarray(p) + shift) for p in points])
            assert reward(moved, moved_cloud, params) == pytest.approx(value, abs=1e-12)

            assert reward(placement, cloud, wider) >= value - 1e-15


class TestNoisyReward:
    def test_zero_sigma_identity(self):
        spec = SceneSpec("single", points_per_plant=60, rng_seed=9)
        cloud = generate_scene(spec)
        model = NoiseModel(sigma=0.0, rng_seed=4)
        noisy = apply_noise(cloud, sample_realization(model, cloud, 0))
        centroid = cloud.centroid()
        cams = tuple(
            CameraPose.looking_at(
                (1.2 * math.cos(a), 1.2 * math.sin(a), 2.0), centroid
            )
            for a in (0.0, 1.5, 3.1, 4.6)
        )
        placement = Placement(cams)
        assert noisy_reward(placement, noisy, RewardParams()) == reward(
            placement, cloud, RewardParams()
        )

    def test_displacement_pushes_points_out_of_view(self):
        # a tight cone aimed at the original point misses the displaced one
        p0 = np.array([0.0, 0.0, 1.0])
        cams = (
            CameraPose.looking_at((3.0, 0.0, 1.0), p0),
            CameraPose.looking_at((3.0 * math.cos(0.25), 3.0 * math.sin(0.25), 1.0), p0),
        )
        placement = Placement(cams)
        params = RewardParams(fov=math.radians(8.0))
        tight = PointCloud(p0[None, :])
        assert reward(placement, tight, params) > 0.0
        shifted = PointCloud((p0 + np.array([0.0, 0.8, 0.0]))[None, :])
        assert noisy_reward(placement, shifted, params) == 0.0

    def test_distinct_realizations_change_the_value(self):
        spec = SceneSpec("single", points_per_plant=80, rng_seed=5)
        cloud = generate_scene(spec)
        model = NoiseModel(rng_seed=21)
        centroid = cloud.centroid()
        cams = tuple(
            CameraPose.looking_at((1.0 * math.cos(a), 1.0 * math.sin(a), 2.4), centroid)
            for a in (0.2, 1.8, 3.4, 5.0)
        )
        placement = Placement(cams)
        values = []
        for rid in (0, 1):
            noisy = apply_noise(cloud, sample_realization(model, cloud, rid))
            values.append(noisy_reward(placement, noisy, RewardParams()))
        assert values[0] != values[1]
        for v in values:
            assert 0.0 <= v <= 1.0


def pinned_placement(cloud, seed, which):
    """The circular baseline's winner, or an integer-seeded uniform decode."""
    if which == "baseline":
        return circular_baseline(BoConfig(n_cameras=6, rng_seed=seed), cloud,
                                 n_candidates=8).placement
    draw = np.random.default_rng(which).uniform(0.0, 1.0, 30)
    return decode(draw, SearchSpace.default())


class TestRewardBits:
    """Exact ``float.hex()`` of the reward on fixed placements.

    The oracle comparisons above allow 1e-12; these catch a change in the
    last bit. A key is (layout, scene seed, placement): ``"baseline"`` is the
    circular baseline's winner, an integer seeds a uniform draw that is
    decoded to a placement. Every pinned value has matched pair terms.

    ``DENSE`` pins a 45,000-point cloud that spans several blocks of the
    block-wise reward. Its values were captured at commit 41114db, whose
    reward scored the whole cloud at once, before blocks were introduced.
    """

    PINNED = {
        ("row3", 11, "baseline"): "0x1.55534f02d3980p-4",
        ("row3", 11, 21): "0x1.28c786a285e28p-5",
        ("row3", 11, 55): "0x1.06ff067b993c8p-4",
        ("grid9", 12, "baseline"): "0x1.86ecea8a2f239p-4",
        ("grid9", 12, 21): "0x1.a6171590578c9p-6",
        ("grid9", 12, 55): "0x1.62d79ae6a231fp-5",
    }

    @pytest.mark.parametrize("layout, seed, which", list(PINNED),
                             ids=[f"{layout}-{which}" for layout, _, which in PINNED])
    def test_bits(self, layout, seed, which):
        cloud = noisy_scene(layout, seed, points_per_plant=200)
        value = reward(pinned_placement(cloud, seed, which), cloud, RewardParams())
        assert value.hex() == self.PINNED[layout, seed, which], PIN_PLATFORM

    # grid9 at 5,000 points per plant, scene seed 12.
    DENSE = {
        "baseline": "0x1.84698c8d1d518p-4",
        21: "0x1.c1883b1e71401p-6",
        55: "0x1.5ce057f4c42dcp-5",
    }

    @pytest.fixture(scope="class")
    def dense_cloud(self):
        return noisy_scene("grid9", 12, points_per_plant=5000)

    @pytest.mark.parametrize("which", list(DENSE))
    def test_bits_across_blocks(self, dense_cloud, which):
        assert len(dense_cloud) > 2 * reward_module._BLOCK
        value = reward(pinned_placement(dense_cloud, 12, which), dense_cloud, RewardParams())
        assert value.hex() == self.DENSE[which], PIN_PLATFORM

    # Every candidate of the circular baseline on the dense cloud, captured
    # at commit 691deee, before the reward built its arrays in place.
    DENSE_BASELINE = (
        "0x1.84698c8d1d518p-4", "0x1.7045ceb22f408p-4", "0x1.66f6d3b5ca53ep-4",
        "0x1.5c9a280a45dbep-4", "0x1.69c97b2582e53p-4", "0x1.7d8659c651b50p-4",
        "0x1.6807bd72a51f3p-4", "0x1.7000710febee3p-4", "0x1.696aa2c67f658p-4",
        "0x1.5286659ccdac2p-4",
    )

    def test_baseline_candidates_across_blocks(self, dense_cloud):
        result = circular_baseline(BoConfig(n_cameras=6, rng_seed=12), dense_cloud,
                                   n_candidates=10)
        assert tuple(value.hex() for value in result.values) == self.DENSE_BASELINE, PIN_PLATFORM


def block_scene(seed):
    """A seeded 150-point cloud and placements with matched pair terms.

    The first placement's pair (0, 1) is aimed at the cloud's last point, so
    it matches the last point of the last block whatever the block size.
    """
    rng = np.random.default_rng(seed)
    positions, axes, points = random_instance(rng, 4, 150, aimed_fraction=1.0)
    cam = CameraPose.looking_at(positions[0], points[-1])
    placements = [Placement((cam, partner(cam, points[-1])) + as_placement(positions, axes).cameras)]
    for n, position in zip((2, 3, 5), positions[1:]):
        # partners of one camera, each aimed at a random point
        base = CameraPose.looking_at(position, points[int(rng.integers(150))])
        placements.append(Placement((base,) + tuple(
            partner(base, points[int(rng.integers(150))], float(rng.uniform(0.1, 0.6)))
            for _ in range(n - 1)
        )))
    return as_cloud(points), placements


def matched_points(ci, cj, cloud):
    """Indices of the points that pair (ci, cj) scores, one point at a time."""
    pair = Placement((ci, cj))
    return [k for k, p in enumerate(cloud.points)
            if reward(pair, PointCloud(p[None, :]), RewardParams()) > 0.0]


class TestBlockInvariance:
    """The block size never changes a bit of the reward."""

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("block", [1, 7, 64, "size-1", "size"])
    def test_block_size_does_not_change_the_value(self, monkeypatch, seed, block):
        cloud, placements = block_scene(seed)
        size = len(cloud)
        block = {"size-1": size - 1, "size": size}.get(block, block)
        params = RewardParams()
        want = [reward(placement, cloud, params) for placement in placements]
        assert all(value > 0.0 for value in want)
        # pair (0, 1) of the first placement matches points of several blocks
        matched = matched_points(*placements[0].cameras[:2], cloud)
        assert matched[-1] == size - 1
        if block < size:
            assert len({k // block for k in matched}) > 1
        monkeypatch.setattr(reward_module, "_BLOCK", block)
        assert [reward(placement, cloud, params) for placement in placements] == want

    @pytest.mark.parametrize("block", [7, 64])
    def test_camera_on_the_last_point_raises(self, monkeypatch, block):
        cloud, placements = block_scene(3)
        monkeypatch.setattr(reward_module, "_BLOCK", block)
        assert len(cloud) > block
        on_last = CameraPose(Point3(*cloud.points[-1]), Point3(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            reward(Placement((on_last,) + placements[0].cameras[1:]), cloud, RewardParams())
