"""Shared helpers for building random test instances."""

import numpy as np

from viewplan import (
    CameraPose,
    NoiseModel,
    Placement,
    Point3,
    PointCloud,
    SceneSpec,
    apply_noise,
    generate_scene,
    sample_realization,
)


def random_instance(rng, n_cams, n_points, aimed_fraction=0.5):
    """Cameras on a shell around a small point cluster.

    Roughly ``aimed_fraction`` of the cameras point at the cluster (with a
    wobble) so rewards are not almost always zero; the rest point anywhere.
    Returns (positions, axes, points) as plain float tuples.
    """
    points = [tuple(rng.uniform(-0.4, 0.4, 3)) for _ in range(n_points)]
    positions = []
    axes = []
    for _ in range(n_cams):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(1.2, 3.0)
        pos = radius * direction
        if rng.uniform() < aimed_fraction:
            axis = pos - np.asarray(points[int(rng.integers(n_points))])
            axis = axis + 0.3 * rng.normal(size=3)
        else:
            axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        positions.append(tuple(float(v) for v in pos))
        axes.append(tuple(float(v) for v in axis))
    return positions, axes, points


def as_placement(positions, axes):
    return Placement(
        tuple(CameraPose(Point3(*p), Point3(*a)) for p, a in zip(positions, axes))
    )


def as_cloud(points):
    return PointCloud(np.asarray(points, dtype=float))


def noisy_scene(layout, seed, points_per_plant):
    """Realization 0 of a seeded scene, noise seeded with ``seed + 1``."""
    clean = generate_scene(SceneSpec(layout=layout, points_per_plant=points_per_plant, rng_seed=seed))
    return apply_noise(clean, sample_realization(NoiseModel(rng_seed=seed + 1), clean, 0))
