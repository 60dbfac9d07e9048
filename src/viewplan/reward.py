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

# Points scored at a time: a block's (N, B) component arrays fit in a core's
# L2 cache. Any size gives the same bits.
_BLOCK = 8192


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

    Vectorized over the cloud in contiguous blocks of ``_BLOCK`` points, on
    per-axis component arrays of shape (N, B) for N cameras and B points of
    a block, so the arrays of one block stay in cache. The work grows with
    camera pairs x points: every pair tests every point for view and match,
    and only the matched points reach the cross product. Each pair's
    clipped qualities are joined across blocks in point order before one
    sum, so the result does not depend on the block size to the last bit.
    Raises ValueError if any camera (numerically) coincides with a point.
    """
    px, py, pz = np.ascontiguousarray(cloud.points.T)
    cams = placement.positions()
    axes = placement.orientations()
    n = cams.shape[0]

    cos_half_fov = math.cos(0.5 * params.fov)
    cos_match = math.cos(params.theta_match)
    ax, ay, az = axes[:, 0:1], axes[:, 1:2], axes[:, 2:3]
    # (i, j) -> the pair's clipped qualities, one array per block with a match.
    matched = {}
    for start in range(0, px.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        # Rays p -> camera, one (N, B) array per axis.
        dx = cams[:, 0:1] - px[block]
        dy = cams[:, 1:2] - py[block]
        dz = cams[:, 2:3] - pz[block]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        if np.any(dist < COINCIDENT_EPS):
            raise ValueError("camera coincides with a scene point")
        # Dot products sum x, then z, then y, the order numpy's contraction
        # routine used when these results were first pinned: summed in another
        # order, a cosine on a view or match threshold can round to its other side.
        in_view = (dx * ax + dz * az + dy * ay) / dist >= cos_half_fov

        for i in range(n - 1):
            # Camera i against every partner j > i at once, one row per j.
            denom = dist[i] * dist[i + 1 :]
            cos_sep = (dx[i] * dx[i + 1 :] + dz[i] * dz[i + 1 :] + dy[i] * dy[i + 1 :]) / denom
            # cos_match lies in (0, 1), so a cosine rounded past +-1 needs no clip.
            mask = in_view[i] & in_view[i + 1 :] & (cos_sep >= cos_match)
            for k in np.flatnonzero(mask.any(axis=1)):
                j = i + 1 + k
                m = mask[k]
                xi, yi, zi = dx[i][m], dy[i][m], dz[i][m]
                xj, yj, zj = dx[j][m], dy[j][m], dz[j][m]
                cx = yi * zj - zi * yj
                cy = zi * xj - xi * zj
                cz = xi * yj - yi * xj
                quality = np.sqrt(cx * cx + cy * cy + cz * cz) / denom[k][m]
                # A quality is never negative; rounding can lift it just past 1.
                matched.setdefault((i, j), []).append(np.minimum(quality, 1.0))

    # Pairs in (i, j) order, each summed over its whole matched array: the
    # same array, in the same order, whatever the block size.
    total = 0.0
    for pair in sorted(matched):
        parts = matched[pair]
        total += float(np.sum(parts[0] if len(parts) == 1 else np.concatenate(parts)))

    pairs = n * (n - 1) // 2
    return total / (px.shape[0] * pairs)


def noisy_reward(placement: Placement, noisy_cloud: PointCloud, params: RewardParams) -> float:
    """Reward evaluated on a perturbed cloud; the optimization objective.

    A name of its own so that the optimizer's evaluations can be patched or
    traced apart from every other reward call.
    """
    return reward(placement, noisy_cloud, params)
