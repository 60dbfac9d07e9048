import numpy as np
import pytest

from viewplan import (
    BaselineResult,
    CameraPose,
    ExperimentReport,
    Placement,
    Point3,
    PointCloud,
    RegretTrace,
)
from viewplan.io import (
    placement_to_dict,
    read_json,
    read_ply,
    write_json,
    write_mean_regret_csv,
    write_ply,
    write_report_csv,
    write_trace_csv,
)


def small_cloud(n=12, seed=0):
    rng = np.random.default_rng(seed)
    ranges = ((0, 5), (5, n)) if n > 5 else None
    return PointCloud(rng.normal(size=(n, 3)), ranges)


class TestPly:
    def test_roundtrip_is_exact(self, tmp_path):
        cloud = small_cloud()
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path, cloud.plant_ranges)
        assert np.array_equal(back.points, cloud.points)
        assert back.plant_ranges == cloud.plant_ranges

    def test_header_layout(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, small_cloud(3))
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert lines[2] == "element vertex 3"
        assert lines[3:6] == ["property double x", "property double y", "property double z"]
        assert lines[6] == "end_header"
        assert len(lines) == 7 + 3

    def test_default_ranges_when_missing(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, small_cloud(4))
        assert read_ply(path).plant_ranges == ((0, 4),)

    @pytest.mark.parametrize(
        "text",
        [
            "hello\nworld\n",
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n",
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n",
            "ply\nformat ascii 1.0\nelement face 1\nend_header\n",
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty int x\n"
            "property double y\nproperty double z\nend_header\n1 2 3\n4 5 6\n",
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n1 2 3\n",
            "ply\nformat ascii 1.0\nelement\nend_header\n",
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double\n"
            "property double y\nproperty double z\nend_header\n1 2 3\n",
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.ply"):
            read_ply(path)


class TestJson:
    def test_roundtrip(self, tmp_path):
        payload = {"b": [1.5, 2.25], "a": {"x": None, "y": "s"}}
        path = tmp_path / "p.json"
        write_json(path, payload)
        assert read_json(path) == payload

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "p.json"
        write_json(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")

    def test_byte_identical_rewrite(self, tmp_path):
        payload = {"v": [0.1, 1 / 3, 2.0**-40]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, payload)
        write_json(b, payload)
        assert a.read_bytes() == b.read_bytes()


class TestPlacementDict:
    def test_roundtrip(self):
        cams = (
            CameraPose.looking_at((1.0, 2.0, 3.0), (0.0, 0.0, 0.5)),
            CameraPose.looking_at((-2.0, 0.5, 1.0), (0.0, 0.0, 0.5)),
        )
        placement = Placement(cams)
        entries = placement_to_dict(placement)["cameras"]
        assert len(entries) == len(placement)
        for cam, entry in zip(placement.cameras, entries):
            assert Point3(*entry["position"]) == cam.position
            assert np.allclose(entry["orientation"], cam.orientation.as_array(), atol=1e-12)

    def test_both_axis_conventions_present(self):
        placement = Placement(
            (
                CameraPose.looking_at((2.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
                CameraPose.looking_at((0.0, 2.0, 1.0), (0.0, 0.0, 1.0)),
            )
        )
        entry = placement_to_dict(placement)["cameras"][0]
        assert np.allclose(entry["orientation"], [1.0, 0.0, 0.0])
        assert np.allclose(entry["viewing_direction"], [-1.0, 0.0, 0.0])


def make_trace():
    rng = np.random.default_rng(2)
    observed = rng.uniform(0, 0.8, 6).tolist()
    return RegretTrace(
        inputs=[rng.uniform(0, 1, 10) for _ in observed],
        observed=observed,
        n_init=3,
    )


def make_report():
    cams = (
        CameraPose.looking_at((1.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
        CameraPose.looking_at((0.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    )
    baseline = BaselineResult(
        placement=Placement(cams),
        best_value=0.4,
        values=(0.2, 0.4, 0.1),
        radii=(1.0, 1.5, 2.0),
        heights=(0.5, 0.6, 0.7),
    )
    return ExperimentReport(
        scene_label="s",
        kernels=("rbf",),
        n_realizations=1,
        n_iters=3,
        traces={("rbf", 0): make_trace()},
        baselines={0: baseline},
    )


class TestCsv:
    def test_trace_csv(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,phase,observed,running_best,simple_regret"
        assert len(lines) == 1 + len(trace)
        cells = [ln.split(",") for ln in lines[1:]]
        assert [c[1] for c in cells] == ["init"] * 3 + ["bo"] * 3
        for c, value in zip(cells, trace.observed):
            assert float(c[2]) == value
            assert float(c[4]) == 1.0 - float(c[3])

    def test_report_csv(self, tmp_path):
        report = make_report()
        path = tmp_path / "r.csv"
        write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "scene,kernel,realization,iteration,observed,running_best,simple_regret"
        )
        assert len(lines) == 1 + 6 + 3
        kernels = {ln.split(",")[1] for ln in lines[1:]}
        assert kernels == {"rbf", "baseline"}

    def test_mean_regret_csv(self, tmp_path):
        report = make_report()
        path = tmp_path / "m.csv"
        write_mean_regret_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "scene,method,iteration,mean_simple_regret"
        assert len(lines) == 1 + 2 * report.n_iters
        baseline_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "baseline"]
        level = report.baseline_mean_regret()
        assert all(float(ln.split(",")[3]) == level for ln in baseline_rows)

    def test_byte_identical_rewrite(self, tmp_path):
        report = make_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, report)
        write_report_csv(b, report)
        assert a.read_bytes() == b.read_bytes()

    def test_floats_use_repr(self, tmp_path):
        trace = RegretTrace(inputs=[np.zeros(10)], observed=[0.1], n_init=1)
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        row = path.read_text().splitlines()[1]
        assert row == "1,init,0.1,0.1,0.9"
