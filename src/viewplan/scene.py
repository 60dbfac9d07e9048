"""Procedural plant scenes and the height-scaled motion noise model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import PointCloud

__all__ = [
    "LAYOUTS",
    "DEFAULT_SIGMA",
    "SceneSpec",
    "NoiseModel",
    "NoiseRealization",
    "generate_scene",
    "sample_realization",
    "apply_noise",
]

LAYOUTS = ("single", "row3", "grid9")

# Default per-plant displacement scale (standard deviation, meters).
DEFAULT_SIGMA = math.sqrt(0.005)


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a procedural scene of one or more plants."""

    layout: str = "single"
    plant_spacing: float = 1.0
    points_per_plant: int = 500
    base_height: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; choose from {LAYOUTS}")
        if self.plant_spacing <= 0.0:
            raise ValueError("plant_spacing must be positive")
        if self.points_per_plant < 10:
            raise ValueError("points_per_plant must be at least 10")
        if self.base_height <= 0.0:
            raise ValueError("base_height must be positive")

    def plant_centers(self) -> Tuple[Tuple[float, float], ...]:
        s = self.plant_spacing
        if self.layout == "single":
            return ((0.0, 0.0),)
        if self.layout == "row3":
            return ((-s, 0.0), (0.0, 0.0), (s, 0.0))
        return tuple((dx, dy) for dy in (-s, 0.0, s) for dx in (-s, 0.0, s))


def _plant_points(rng: np.random.Generator, n: int, base_height: float) -> np.ndarray:
    """One plant at the origin: a jittered stem plus 4-8 drooping leaf arcs."""
    height = base_height * rng.uniform(0.9, 1.1)
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    n_leaves = int(rng.integers(4, 9))

    n_stem = max(1, round(0.35 * n))
    counts = [n_stem]
    remaining = n - n_stem
    for k in range(n_leaves):
        share = remaining // (n_leaves - k)
        counts.append(share)
        remaining -= share

    parts = []
    z = rng.uniform(0.0, height, counts[0])
    xy = rng.normal(0.0, 0.008, (counts[0], 2))
    parts.append(np.column_stack([xy, z]))

    for k in range(n_leaves):
        m = counts[k + 1]
        if m == 0:
            continue
        attach = rng.uniform(0.3, 0.85) * height
        phi = yaw + 2.0 * math.pi * k / n_leaves + rng.normal(0.0, 0.15)
        length = rng.uniform(0.5, 0.85) * height
        rise = rng.uniform(0.1, 0.25) * height
        droop = rng.uniform(0.15, 0.4) * height
        s = rng.uniform(0.0, 1.0, m)
        radial = s * length
        zz = attach + rise * s - droop * s * s
        xx = radial * math.cos(phi) + rng.normal(0.0, 0.006, m)
        yy = radial * math.sin(phi) + rng.normal(0.0, 0.006, m)
        parts.append(np.column_stack([xx, yy, zz]))

    pts = np.concatenate(parts, axis=0)
    # Pin the horizontal centroid to the plant center so layout geometry
    # (lattice positions, collinearity) holds exactly for cluster centroids.
    pts[:, :2] -= pts[:, :2].mean(axis=0)
    return pts


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic point cloud for a scene description, segmented per plant."""
    rng = np.random.default_rng(spec.rng_seed)
    centers = spec.plant_centers()
    blocks = []
    ranges = []
    start = 0
    for cx, cy in centers:
        pts = _plant_points(rng, spec.points_per_plant, spec.base_height)
        pts[:, 0] += cx
        pts[:, 1] += cy
        blocks.append(pts)
        ranges.append((start, start + pts.shape[0]))
        start += pts.shape[0]
    return PointCloud(np.concatenate(blocks, axis=0), tuple(ranges))


@dataclass(frozen=True)
class NoiseModel:
    """Rigid-ish plant motion: one scalar draw per plant scales a fixed
    direction by each point's relative height, so plant tops move the most
    and bases stay put.
    """

    sigma: float = DEFAULT_SIGMA
    direction: Tuple[float, float, float] = (1.0, 0.0, 0.0)
    rng_seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = float(np.linalg.norm(d))
        if n < 1e-12:
            raise ValueError("direction must be a nonzero vector")
        object.__setattr__(self, "direction", tuple(float(v) for v in d / n))


@dataclass(frozen=True)
class NoiseRealization:
    """Per-point displacement offsets for one draw of the noise model."""

    offsets: np.ndarray
    realization_id: int

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=float)
        if off.ndim != 2 or off.shape[1] != 3:
            raise ValueError("offsets must have shape (n, 3)")
        object.__setattr__(self, "offsets", off)


def sample_realization(model: NoiseModel, cloud: PointCloud, realization_id: int) -> NoiseRealization:
    """Draw one noise realization, seeded by rng_seed XOR realization_id."""
    if realization_id < 0:
        raise ValueError("realization_id must be nonnegative")
    rng = np.random.default_rng(model.rng_seed ^ realization_id)
    direction = np.asarray(model.direction)
    offsets = np.zeros((len(cloud), 3))
    for a, b in cloud.plant_ranges:
        scalar = rng.normal(0.0, model.sigma)
        z = cloud.points[a:b, 2]
        z_min = float(z.min())
        z_max = float(z.max())
        if z_max - z_min < 1e-12:
            continue
        frac = (z - z_min) / (z_max - z_min)
        offsets[a:b] = scalar * frac[:, None] * direction[None, :]
    return NoiseRealization(offsets, realization_id)


def apply_noise(cloud: PointCloud, realization: NoiseRealization) -> PointCloud:
    """Displaced copy of the cloud; plant segmentation is preserved."""
    if realization.offsets.shape[0] != len(cloud):
        raise ValueError("realization size does not match the cloud")
    return PointCloud(cloud.points + realization.offsets, cloud.plant_ranges)
