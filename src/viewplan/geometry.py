"""Core geometric types and the placement <-> search-vector encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Point3",
    "CameraPose",
    "Placement",
    "PointCloud",
    "SearchSpace",
    "decode",
]

_TWO_PI = 2.0 * math.pi

# Largest angle the optimizer searches between a view axis and the direction
# from the cloud centroid to its camera.
_MAX_TILT = 0.25 * math.pi


def _as_vec3(value) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    return v


def _unit(v: np.ndarray, message: str = "orientation must be a nonzero vector") -> np.ndarray:
    """``v`` scaled to unit length, or ``v`` itself when its length is within 1e-12 of 1.

    Raises ValueError with ``message`` for a vector shorter than 1e-12.
    """
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError(message)
    return v / n if abs(n - 1.0) > 1e-12 else v


def _angles(axis) -> Tuple[float, float]:
    """Encoded angles of a unit view axis: azimuth / 2pi, (elevation + pi/2) / pi."""
    az = math.atan2(axis[1], axis[0])
    if az < 0.0:
        az += _TWO_PI
    el = math.asin(min(1.0, max(-1.0, float(axis[2]))))
    return az / _TWO_PI, (el + 0.5 * math.pi) / math.pi


@dataclass(frozen=True)
class Point3:
    """A point in 3D space, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Point3":
        v = _as_vec3(arr)
        return cls(float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class CameraPose:
    """Camera position plus its unit view axis.

    Sign convention: ``orientation`` is the axis for which in-view points p
    make an angle of at most fov/2 between ``position - p`` and it, i.e. it
    points from the viewed scene back toward the camera. Use
    :meth:`looking_at` to build a pose from the everyday "camera looks at
    target" description; it stores the negated viewing direction so the
    target ends up in view.
    """

    position: Point3
    orientation: Point3

    def __post_init__(self):
        o = self.orientation.as_array()
        unit = _unit(o)
        if unit is not o:
            object.__setattr__(self, "orientation", Point3.from_array(unit))

    @classmethod
    def looking_at(cls, position, target) -> "CameraPose":
        """Pose at ``position`` whose view cone is centered on ``target``."""
        p = _as_vec3(position if not isinstance(position, Point3) else position.as_array())
        t = _as_vec3(target if not isinstance(target, Point3) else target.as_array())
        axis = _unit(p - t, "camera position coincides with look-at target")
        return cls(Point3.from_array(p), Point3.from_array(axis))

    def viewing_direction(self) -> np.ndarray:
        """Unit vector from the camera into the scene (negated view axis)."""
        return -self.orientation.as_array()


@dataclass(frozen=True)
class Placement:
    """An ordered tuple of N >= 2 camera poses."""

    cameras: Tuple[CameraPose, ...]

    def __post_init__(self):
        cams = tuple(self.cameras)
        if len(cams) < 2:
            raise ValueError("a placement needs at least two cameras")
        object.__setattr__(self, "cameras", cams)

    def __len__(self) -> int:
        return len(self.cameras)

    def positions(self) -> np.ndarray:
        """(N, 3) array of camera positions."""
        return np.array([c.position.as_array() for c in self.cameras])

    def orientations(self) -> np.ndarray:
        """(N, 3) array of unit view axes."""
        return np.array([c.orientation.as_array() for c in self.cameras])


class PointCloud:
    """Ordered set of 3D points, optionally segmented into plants.

    ``plant_ranges`` is a tuple of (start, stop) index pairs covering the
    points in order; it survives noise application so per-plant operations
    stay well defined on perturbed clouds.
    """

    __slots__ = ("points", "plant_ranges")

    def __init__(self, points, plant_ranges: Optional[Sequence[Tuple[int, int]]] = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        self.points = pts
        if plant_ranges is not None:
            ranges = tuple((int(a), int(b)) for a, b in plant_ranges)
            stop = 0
            for a, b in ranges:
                if a != stop or b <= a:
                    raise ValueError("plant ranges must be contiguous and nonempty")
                stop = b
            if stop != pts.shape[0]:
                raise ValueError("plant ranges must cover all points")
            self.plant_ranges = ranges
        else:
            self.plant_ranges = ((0, pts.shape[0]),)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of allowed camera positions.

    Angles are not part of the box: azimuth always spans [0, 2*pi) and
    elevation [-pi/2, pi/2].
    """

    lower: Tuple[float, float, float]
    upper: Tuple[float, float, float]

    def __post_init__(self):
        lo = _as_vec3(self.lower)
        hi = _as_vec3(self.upper)
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))

    @classmethod
    def default(cls) -> "SearchSpace":
        return cls((-2.5, -2.5, 0.05), (2.5, 2.5, 1.2))

    def extent(self) -> np.ndarray:
        return np.array(self.upper) - np.array(self.lower)


def decode(vector, space: SearchSpace) -> Placement:
    """Placement of a vector in [0, 1]^(5N), N >= 2; raises ValueError on a bad dimension.

    Per camera: x, y, z scaled to the search box, then azimuth / 2pi and
    (elevation + pi/2) / pi of the view axis (the inverse of ``_angles``).
    """
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size % 5 != 0 or v.size < 10:
        raise ValueError("encoded placement length must be 5N with N >= 2")
    lo = np.array(space.lower)
    ext = space.extent()
    cams = []
    for k in range(v.size // 5):
        chunk = v[5 * k : 5 * (k + 1)]
        pos = lo + chunk[:3] * ext
        az = chunk[3] * _TWO_PI
        el = chunk[4] * math.pi - 0.5 * math.pi
        ce = math.cos(el)
        axis = (ce * math.cos(az), ce * math.sin(az), math.sin(el))
        cams.append(CameraPose(Point3.from_array(pos), Point3(*axis)))
    return Placement(tuple(cams))


def _cross(a, b) -> Tuple[float, float, float]:
    """``np.cross(a, b)`` of two 3-vectors in scalar arithmetic: the same
    products and differences, so the same bits, without numpy's per-call cost."""
    a0, a1, a2 = (float(c) for c in a)
    b0, b1, b2 = (float(c) for c in b)
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _aimed_encoding(vec: np.ndarray, space: SearchSpace, centroid: np.ndarray) -> np.ndarray:
    """The :func:`decode` vector of a placement given in centroid-relative search coordinates.

    Per camera: scaled x, y, z as in :func:`decode`, then an azimuth (times
    2pi) and a tilt (times pi/4) of the view axis around the direction from
    ``centroid`` to the camera, so every view axis lies within pi/4 of
    looking straight at the centroid. Raises ValueError for a camera at the
    centroid.
    """
    lo = np.array(space.lower)
    ext = space.extent()
    chunks = np.asarray(vec, dtype=float).reshape(-1, 5)
    out = np.empty(chunks.shape)
    for chunk, row in zip(chunks, out):
        pos = lo + chunk[:3] * ext
        aim = _unit(pos - centroid, "camera position coincides with look-at target")
        # (u, v) spans the plane normal to aim; x stands in for the vertical
        # when the camera sits straight above or below the centroid
        u = np.array(_cross((0.0, 0.0, 1.0), aim))
        norm = np.linalg.norm(u)
        if norm < 1e-9:
            u = np.array(_cross((1.0, 0.0, 0.0), aim))
            norm = np.linalg.norm(u)
        u /= norm
        v = np.array(_cross(aim, u))
        az = chunk[3] * math.tau
        tilt = chunk[4] * _MAX_TILT
        axis = math.cos(tilt) * aim + math.sin(tilt) * (math.cos(az) * u + math.sin(az) * v)
        row[:3] = (pos - lo) / ext
        row[3:] = _angles(_unit(axis))
    return out.reshape(-1)
