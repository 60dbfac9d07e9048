import math

import numpy as np
import pytest

from viewplan import (
    NoiseModel,
    NoiseRealization,
    PointCloud,
    SceneSpec,
    apply_noise,
    generate_scene,
    sample_realization,
)
from viewplan.scene import DEFAULT_SIGMA


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(layout="forest")
        with pytest.raises(ValueError):
            SceneSpec(points_per_plant=5)
        with pytest.raises(ValueError):
            SceneSpec(plant_spacing=0.0)
        with pytest.raises(ValueError):
            SceneSpec(base_height=-1.0)

    def test_plant_centers(self):
        assert SceneSpec("single").plant_centers() == ((0.0, 0.0),)
        assert len(SceneSpec("row3").plant_centers()) == 3
        assert len(SceneSpec("grid9").plant_centers()) == 9


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec("row3", points_per_plant=120, rng_seed=17)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert np.array_equal(a.points, b.points)
        assert a.plant_ranges == b.plant_ranges

    def test_seed_changes_cloud(self):
        a = generate_scene(SceneSpec("single", points_per_plant=50, rng_seed=1))
        b = generate_scene(SceneSpec("single", points_per_plant=50, rng_seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_counts_and_ranges(self):
        spec = SceneSpec("grid9", points_per_plant=40, rng_seed=3)
        cloud = generate_scene(spec)
        assert len(cloud) == 9 * 40
        assert cloud.plant_ranges == tuple((40 * k, 40 * (k + 1)) for k in range(9))
        # Seed 4 draws 8 leaves for 6 non-stem points, so two leaves get none.
        assert len(generate_scene(SceneSpec("single", points_per_plant=10, rng_seed=4))) == 10

    def test_grid9_centroids_on_lattice(self):
        spacing = 0.8
        spec = SceneSpec("grid9", plant_spacing=spacing, points_per_plant=60, rng_seed=5)
        cloud = generate_scene(spec)
        expected = [
            (dx, dy) for dy in (-spacing, 0.0, spacing) for dx in (-spacing, 0.0, spacing)
        ]
        for (a, b), (cx, cy) in zip(cloud.plant_ranges, expected):
            centroid = cloud.points[a:b, :2].mean(axis=0)
            assert centroid == pytest.approx([cx, cy], abs=1e-9)

    def test_row3_centroids_collinear(self):
        spec = SceneSpec("row3", plant_spacing=1.3, points_per_plant=60, rng_seed=8)
        cloud = generate_scene(spec)
        centroids = np.array(
            [cloud.points[a:b, :2].mean(axis=0) for a, b in cloud.plant_ranges]
        )
        d1 = centroids[1] - centroids[0]
        d2 = centroids[2] - centroids[0]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        assert abs(cross) < 1e-9

    def test_points_plausible(self):
        spec = SceneSpec("single", points_per_plant=400, base_height=1.0, rng_seed=2)
        cloud = generate_scene(spec)
        z = cloud.points[:, 2]
        assert z.min() >= 0.0
        assert z.max() <= 1.1
        # the canopy spreads beyond the stem but stays near the plant
        r = np.linalg.norm(cloud.points[:, :2], axis=1)
        assert r.max() < 1.0


class TestNoiseModel:
    def test_defaults(self):
        model = NoiseModel()
        assert model.sigma == pytest.approx(math.sqrt(0.005))
        assert model.direction == (1.0, 0.0, 0.0)

    def test_direction_normalized(self):
        model = NoiseModel(direction=(0.0, 3.0, 4.0))
        assert model.direction == pytest.approx((0.0, 0.6, 0.8), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(direction=(0.0, 0.0, 0.0))


class TestSampleRealization:
    def test_deterministic_per_id(self):
        cloud = generate_scene(SceneSpec("row3", points_per_plant=50, rng_seed=1))
        model = NoiseModel(rng_seed=9)
        a = sample_realization(model, cloud, 2)
        b = sample_realization(model, cloud, 2)
        c = sample_realization(model, cloud, 3)
        assert np.array_equal(a.offsets, b.offsets)
        assert not np.array_equal(a.offsets, c.offsets)

    def test_seed_is_xor_of_seed_and_id(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=40, rng_seed=1))
        a = sample_realization(NoiseModel(rng_seed=4), cloud, 1)  # 4 ^ 1 == 5
        b = sample_realization(NoiseModel(rng_seed=5), cloud, 0)  # 5 ^ 0 == 5
        assert np.array_equal(a.offsets, b.offsets)

    def test_zero_sigma_means_zero_offsets(self):
        cloud = generate_scene(SceneSpec("grid9", points_per_plant=30, rng_seed=6))
        real = sample_realization(NoiseModel(sigma=0.0, rng_seed=3), cloud, 5)
        assert np.all(real.offsets == 0.0)

    def test_offsets_scale_linearly_with_height(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=200, rng_seed=4))
        model = NoiseModel(rng_seed=12)
        real = sample_realization(model, cloud, 0)
        z = cloud.points[:, 2]
        lowest = int(np.argmin(z))
        top = int(np.argmax(z))
        assert np.all(real.offsets[lowest] == 0.0)
        # every offset is parallel to the direction and proportional to height
        frac = (z - z.min()) / (z.max() - z.min())
        scalar = real.offsets[top, 0]  # direction is +x, top has frac 1
        assert real.offsets[:, 0] == pytest.approx(scalar * frac, abs=1e-12)
        assert np.all(real.offsets[:, 1:] == 0.0)

    def test_flat_plant_gets_no_offsets(self):
        cloud = PointCloud(np.column_stack([np.arange(5.0), np.zeros(5), np.full(5, 0.7)]))
        real = sample_realization(NoiseModel(rng_seed=2), cloud, 0)
        assert np.all(real.offsets == 0.0)

    def test_plants_draw_independent_scalars(self):
        cloud = generate_scene(SceneSpec("row3", points_per_plant=80, rng_seed=3))
        real = sample_realization(NoiseModel(rng_seed=8), cloud, 0)
        tops = []
        for a, b in cloud.plant_ranges:
            z = cloud.points[a:b, 2]
            tops.append(real.offsets[a:b][int(np.argmax(z)), 0])
        assert len(set(np.round(tops, 12))) == 3

    def test_negative_realization_id_rejected(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=30, rng_seed=0))
        with pytest.raises(ValueError):
            sample_realization(NoiseModel(), cloud, -1)

    def test_top_point_variance_close_to_sigma_squared(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=60, rng_seed=10))
        model = NoiseModel(rng_seed=123)
        top = int(np.argmax(cloud.points[:, 2]))
        draws = np.array(
            [sample_realization(model, cloud, rid).offsets[top, 0] for rid in range(2000)]
        )
        assert draws.var(ddof=1) == pytest.approx(DEFAULT_SIGMA**2, rel=0.15)


class TestApplyNoise:
    def test_addition_and_ranges(self):
        cloud = generate_scene(SceneSpec("row3", points_per_plant=40, rng_seed=2))
        real = sample_realization(NoiseModel(rng_seed=5), cloud, 1)
        noisy = apply_noise(cloud, real)
        assert np.array_equal(noisy.points, cloud.points + real.offsets)
        assert noisy.plant_ranges == cloud.plant_ranges

    def test_zero_offsets_identity(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=40, rng_seed=2))
        real = NoiseRealization(np.zeros((len(cloud), 3)), 0)
        assert np.array_equal(apply_noise(cloud, real).points, cloud.points)

    def test_size_mismatch_raises(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=40, rng_seed=2))
        with pytest.raises(ValueError):
            apply_noise(cloud, NoiseRealization(np.zeros((7, 3)), 0))
        with pytest.raises(ValueError, match="shape"):
            NoiseRealization(np.zeros((3, 2)), 0)

    def test_opposite_offsets_cancel(self):
        cloud = generate_scene(SceneSpec("single", points_per_plant=40, rng_seed=2))
        real = sample_realization(NoiseModel(rng_seed=5), cloud, 1)
        back = NoiseRealization(-real.offsets, 1)
        restored = apply_noise(apply_noise(cloud, real), back)
        assert np.allclose(restored.points, cloud.points, atol=1e-15)
