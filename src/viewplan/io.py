"""File formats: ASCII PLY clouds, JSON sidecars, CSV traces and reports.

All float formatting goes through repr() so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .geometry import Placement, PointCloud
from .planner import ExperimentReport, RegretTrace

__all__ = [
    "write_ply",
    "read_ply",
    "write_json",
    "read_json",
    "placement_to_dict",
    "write_trace_csv",
    "write_report_csv",
    "write_mean_regret_csv",
]

PathLike = Union[str, Path]


def _fmt(x) -> str:
    return repr(float(x))


def write_ply(path: PathLike, cloud: PointCloud) -> None:
    """ASCII PLY with double-precision x, y, z vertex properties."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    lines.extend(" ".join(_fmt(c) for c in row) for row in cloud.points)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ply(path: PathLike, plant_ranges=None) -> PointCloud:
    """Parse the ASCII PLY layout produced by :func:`write_ply`."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "ply":
        raise ValueError(f"{path}: not a PLY file")
    try:
        end = lines.index("end_header")
    except ValueError:
        raise ValueError(f"{path}: missing end_header") from None
    header = lines[1:end]
    if "format ascii 1.0" not in header:
        raise ValueError(f"{path}: only 'format ascii 1.0' is supported")
    n = None
    props = []
    for ln in header:
        parts = ln.split()
        if parts[0] in ("element", "property") and len(parts) < 3:
            raise ValueError(f"{path}: malformed header line {ln!r}")
        if parts[0] == "element":
            if parts[1] != "vertex":
                raise ValueError(f"{path}: unsupported element {parts[1]!r}")
            n = int(parts[2])
        elif parts[0] == "property":
            if parts[1] not in ("double", "float"):
                raise ValueError(f"{path}: unsupported property type {parts[1]!r}")
            props.append(parts[2])
    if n is None or props[:3] != ["x", "y", "z"]:
        raise ValueError(f"{path}: expected vertex element with x y z properties")
    body = lines[end + 1 : end + 1 + n]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} vertex rows, found {len(body)}")
    pts = np.array([[float(v) for v in ln.split()[:3]] for ln in body])
    return PointCloud(pts, plant_ranges)


def write_json(path: PathLike, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_json(path: PathLike):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def placement_to_dict(placement: Placement) -> dict:
    """JSON-ready placement; view axis and its negation are both spelled out."""
    return {
        "cameras": [
            {
                "position": [c.position.x, c.position.y, c.position.z],
                "orientation": [c.orientation.x, c.orientation.y, c.orientation.z],
                "viewing_direction": list(map(float, c.viewing_direction())),
            }
            for c in placement.cameras
        ]
    }


def _write_csv(path: PathLike, header: list, rows) -> None:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def write_trace_csv(path: PathLike, trace: RegretTrace) -> None:
    _write_csv(
        path,
        ["iteration", "phase", "observed", "running_best", "simple_regret"],
        trace.rows(),
    )


def write_report_csv(path: PathLike, report: ExperimentReport) -> None:
    """Long-format rows for every BO cell and every baseline candidate."""

    def rows():
        for (kernel, rid), trace in sorted(report.traces.items()):
            for it, _phase, obs, best, regret in trace.rows():
                yield (report.scene_label, kernel, rid, it, obs, best, regret)
        for rid, baseline in sorted(report.baselines.items()):
            for it, _phase, obs, best, regret in baseline.rows():
                yield (report.scene_label, "baseline", rid, it, obs, best, regret)

    _write_csv(
        path,
        ["scene", "kernel", "realization", "iteration", "observed", "running_best", "simple_regret"],
        rows(),
    )


def write_mean_regret_csv(path: PathLike, report: ExperimentReport) -> None:
    """Plot-ready mean regret per iteration, baseline as a constant line."""

    def rows():
        for kernel in report.kernels:
            curve = report.mean_bo_regrets(kernel)
            for t, value in enumerate(curve):
                yield (report.scene_label, kernel, t + 1, value)
        level = report.baseline_mean_regret()
        for t in range(report.n_iters):
            yield (report.scene_label, "baseline", t + 1, level)

    _write_csv(path, ["scene", "method", "iteration", "mean_simple_regret"], rows())
