"""Geometric reconstruction-quality reward for a camera placement.

A point contributes through a camera pair when both cameras keep it inside
their view cone and the two viewing rays stay close enough in angle for
feature matching. The contribution is the sine of the ray separation, which
favours wide (but still matchable) triangulation baselines. The reward is
the average contribution over all points and unordered camera pairs, so it
always lands in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Placement, PointCloud

__all__ = ["RewardParams", "reward", "noisy_reward"]

# Cameras this close to a point make the ray direction meaningless.
COINCIDENT_EPS = 1e-12


@dataclass(frozen=True)
class RewardParams:
    """Angular thresholds: full field-of-view cone and max ray separation."""

    fov: float = 0.5 * math.pi
    theta_match: float = 0.25 * math.pi

    def __post_init__(self):
        if not (0.0 < self.fov < 2.0 * math.pi):
            raise ValueError("fov must lie in (0, 2*pi)")
        if not (0.0 < self.theta_match < 0.5 * math.pi):
            raise ValueError("theta_match must lie in (0, pi/2)")


def reward(placement: Placement, cloud: PointCloud, params: RewardParams) -> float:
    """Mean pair quality over all points and unordered camera pairs.

    Vectorized over the cloud; raises ValueError if any camera (numerically)
    coincides with a point.
    """
    pts = cloud.points
    cams = placement.positions()
    axes = placement.orientations()
    n = cams.shape[0]

    diff = cams[:, None, :] - pts[None, :, :]  # (N, P, 3), rays p -> camera
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist < COINCIDENT_EPS):
        raise ValueError("camera coincides with a scene point")

    cos_half_fov = math.cos(0.5 * params.fov)
    cos_match = math.cos(params.theta_match)
    in_view = np.einsum("npk,nk->np", diff, axes) / dist >= cos_half_fov

    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            denom = dist[i] * dist[j]
            cos_sep = np.einsum("pk,pk->p", diff[i], diff[j]) / denom
            mask = in_view[i] & in_view[j] & (np.clip(cos_sep, -1.0, 1.0) >= cos_match)
            if not np.any(mask):
                continue
            cross = np.cross(diff[i][mask], diff[j][mask])
            quality = np.linalg.norm(cross, axis=1) / denom[mask]
            total += float(np.sum(np.clip(quality, 0.0, 1.0)))

    pairs = n * (n - 1) // 2
    return total / (pts.shape[0] * pairs)


def noisy_reward(placement: Placement, noisy_cloud: PointCloud, params: RewardParams) -> float:
    """Reward evaluated on a perturbed cloud; the optimization objective.

    A name of its own so that the optimizer's evaluations can be patched or
    traced apart from every other reward call.
    """
    return reward(placement, noisy_cloud, params)
