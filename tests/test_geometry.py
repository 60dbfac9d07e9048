import math

import numpy as np
import pytest

from viewplan import (
    CameraPose,
    Placement,
    Point3,
    PointCloud,
    SearchSpace,
    decode,
)
from viewplan.geometry import _angles


def unit_space():
    return SearchSpace((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestPoint3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point3(0.0, math.nan, 0.0)
        with pytest.raises(ValueError):
            Point3(math.inf, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Point3.from_array([math.inf, 0.0, 0.0])

    def test_array_roundtrip(self):
        p = Point3(1.0, -2.0, 3.5)
        assert Point3.from_array(p.as_array()) == p


class TestCameraPose:
    def test_orientation_normalized(self):
        pose = CameraPose(Point3(0, 0, 0), Point3(0.0, 3.0, 4.0))
        o = pose.orientation.as_array()
        assert np.linalg.norm(o) == pytest.approx(1.0, abs=1e-12)
        assert o == pytest.approx([0.0, 0.6, 0.8], abs=1e-12)

    def test_zero_orientation_raises(self):
        with pytest.raises(ValueError):
            CameraPose(Point3(0, 0, 0), Point3(0.0, 0.0, 0.0))

    def test_looking_at_points_view_cone_at_target(self):
        pose = CameraPose.looking_at((2.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        # stored axis runs from the target back toward the camera
        axis = pose.orientation.as_array()
        expected = np.array([2.0, 0.0, 1.0]) / math.sqrt(5.0)
        assert axis == pytest.approx(expected, abs=1e-12)
        assert pose.viewing_direction() == pytest.approx(-expected, abs=1e-12)

    def test_looking_at_self_raises(self):
        with pytest.raises(ValueError):
            CameraPose.looking_at((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


class TestPlacement:
    def test_needs_two_cameras(self):
        cam = CameraPose(Point3(0, 0, 0), Point3(1, 0, 0))
        with pytest.raises(ValueError):
            Placement((cam,))

    def test_arrays(self):
        cams = tuple(
            CameraPose(Point3(float(k), 0.0, 0.0), Point3(0.0, 0.0, 1.0)) for k in range(3)
        )
        placement = Placement(cams)
        assert placement.positions().shape == (3, 3)
        assert placement.orientations().shape == (3, 3)
        assert len(placement) == 3


class TestPointCloud:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            PointCloud([[math.nan, 0.0, 0.0]])

    def test_default_single_plant_range(self):
        cloud = PointCloud(np.zeros((5, 3)))
        assert cloud.plant_ranges == ((0, 5),)

    def test_ranges_must_cover(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)), ((0, 2), (3, 5)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)), ((0, 2), (2, 4)))

    def test_points_read_only(self):
        cloud = PointCloud(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


class TestSearchSpace:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            SearchSpace((0.0, 0.0, 0.0), (1.0, -1.0, 1.0))


class TestEncodeDecode:
    def test_decode_midpoint_vector(self):
        space = unit_space()
        placement = decode(np.array([0.5] * 10), space)
        cam = placement.cameras[0]
        assert cam.position.as_array() == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)
        # azimuth 0.5 -> pi, elevation 0.5 -> 0: axis (-1, 0, 0)
        assert cam.orientation.as_array() == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_angles_give_unit_x_axis(self):
        space = unit_space()
        placement = decode(np.array([0.5, 0.5, 0.5, 0.0, 0.5] * 2), space)
        assert placement.cameras[0].orientation.as_array() == pytest.approx(
            [1.0, 0.0, 0.0], abs=1e-12
        )

    def test_roundtrip_random_placements(self):
        # each decoded camera's scaled position and the _angles of its view
        # axis give its five entries back
        space = SearchSpace((-4.0, -2.0, 0.1), (4.0, 2.0, 3.0))
        lo, ext = np.array(space.lower), space.extent()
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            vec = rng.uniform(0.0, 1.0, 5 * n)
            back = np.concatenate([
                [*(cam.position.as_array() - lo) / ext, *_angles(cam.orientation.as_array())]
                for cam in decode(vec, space).cameras
            ])
            assert np.max(np.abs(back - vec)) < 1e-9

    def test_decode_rejects_bad_length(self):
        space = unit_space()
        with pytest.raises(ValueError):
            decode(np.zeros(12), space)
        with pytest.raises(ValueError):
            decode(np.zeros(5), space)

    def test_unit_axis_after_decode(self):
        space = unit_space()
        rng = np.random.default_rng(3)
        vec = rng.uniform(0, 1, 15)
        for cam in decode(vec, space).cameras:
            assert np.linalg.norm(cam.orientation.as_array()) == pytest.approx(1.0, abs=1e-12)
