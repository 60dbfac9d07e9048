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
    and only the matched points, gathered once per pair and block, reach the
    cross product. Each pair's clipped qualities are joined across blocks in
    point order before one sum, so the result does not depend on the block
    size to the last bit.
    Raises ValueError if any camera (numerically) coincides with a point.
    """
    px, py, pz = np.ascontiguousarray(cloud.points.T)
    cams = placement.positions()
    axes = placement.orientations()
    n = cams.shape[0]

    cos_half_fov = math.cos(0.5 * params.fov)
    cos_match = math.cos(params.theta_match)
    ax, ay, az = axes[:, 0:1], axes[:, 1:2], axes[:, 2:3]
    # (N, B) buffers that every block reuses; a short last block takes their
    # leading columns. Each value below is built in place, one operation at a
    # time in the order of the expression in its comment, so it rounds the
    # same as that expression.
    width = min(_BLOCK, px.shape[0])
    buffers = np.empty((7, n, width))
    view_buffer = np.empty((n, width), dtype=bool)
    mask_buffer = np.empty((n - 1, width), dtype=bool)
    # (i, j) -> the pair's clipped qualities, one array per block with a match.
    matched = {}
    for start in range(0, px.shape[0], _BLOCK):
        stop = min(start + _BLOCK, px.shape[0])
        dx, dy, dz, dist, cos, tmp, prod = buffers[:, :, : stop - start]
        in_view, pair_mask = view_buffer[:, : stop - start], mask_buffer[:, : stop - start]
        # Rays p -> camera, one (N, B) array per axis.
        np.subtract(cams[:, 0:1], px[start:stop], out=dx)
        np.subtract(cams[:, 1:2], py[start:stop], out=dy)
        np.subtract(cams[:, 2:3], pz[start:stop], out=dz)
        # dist = sqrt(dx * dx + dy * dy + dz * dz)
        np.multiply(dx, dx, out=dist)
        dist += np.multiply(dy, dy, out=tmp)
        dist += np.multiply(dz, dz, out=tmp)
        np.sqrt(dist, out=dist)
        if dist.min() < COINCIDENT_EPS:
            raise ValueError("camera coincides with a scene point")
        # Dot products sum x, then z, then y, the order numpy's contraction
        # routine used when these results were first pinned: summed in another
        # order, a cosine on a view or match threshold can round to its other side.
        # in_view = (dx * ax + dz * az + dy * ay) / dist >= cos_half_fov
        np.multiply(dx, ax, out=cos)
        cos += np.multiply(dz, az, out=tmp)
        cos += np.multiply(dy, ay, out=tmp)
        cos /= dist
        np.greater_equal(cos, cos_half_fov, out=in_view)

        for i in range(n - 1):
            # Camera i against every partner j > i at once, one row per j:
            # denom = dist[i] * dist[j],
            # cos_sep = (dx[i] * dx[j] + dz[i] * dz[j] + dy[i] * dy[j]) / denom.
            later, rows = slice(i + 1, n), n - 1 - i
            denom, cos_sep, part, mask = cos[:rows], tmp[:rows], prod[:rows], pair_mask[:rows]
            np.multiply(dist[i], dist[later], out=denom)
            np.multiply(dx[i], dx[later], out=cos_sep)
            cos_sep += np.multiply(dz[i], dz[later], out=part)
            cos_sep += np.multiply(dy[i], dy[later], out=part)
            cos_sep /= denom
            # cos_match lies in (0, 1), so a cosine rounded past +-1 needs no clip.
            np.greater_equal(cos_sep, cos_match, out=mask)
            mask &= in_view[later]
            mask &= in_view[i]
            for k in np.flatnonzero(mask.any(axis=1)):
                j = i + 1 + k
                m = np.flatnonzero(mask[k])
                xi, yi, zi = dx[i].take(m), dy[i].take(m), dz[i].take(m)
                xj, yj, zj = dx[j].take(m), dy[j].take(m), dz[j].take(m)
                # Cross product (yi*zj - zi*yj, zi*xj - xi*zj, xi*yj - yi*xj):
                # each product overwrites an operand that it is the last use of.
                cx = yi * zj
                yi *= xj
                zj *= xi
                xj *= zi
                xi *= yj
                zi *= yj
                cx -= zi
                cy = np.subtract(xj, zj, out=xj)
                cz = np.subtract(xi, yi, out=xi)
                # quality = sqrt(cx * cx + cy * cy + cz * cz) / denom
                cx *= cx
                cx += np.multiply(cy, cy, out=cy)
                cx += np.multiply(cz, cz, out=cz)
                np.sqrt(cx, out=cx)
                cx /= denom[k].take(m)
                # A quality is never negative; rounding can lift it just past 1.
                matched.setdefault((i, j), []).append(np.minimum(cx, 1.0, out=cx))

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
