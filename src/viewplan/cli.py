"""Command line front end.

Commands: generate-scene, plan, baseline, experiment. Exit codes: 0 success,
1 usage or configuration problem, 2 file I/O problem, 3 numerical failure.
Outputs always embed the fully resolved configuration, defaults included,
except that an experiment's echo leaves the per-layout camera and point
counts as configured: fed back with the same --scenes, it repeats the whole
run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from . import io as vio
from .geometry import PointCloud, SearchSpace, decode
from .gp import KERNEL_FAMILIES
from .planner import BoConfig, circular_baseline, run_bo, run_experiment, simple_regret
from .reward import RewardParams
from .scene import (
    LAYOUTS,
    NoiseModel,
    SceneSpec,
    apply_noise,
    generate_scene,
    sample_realization,
)

__all__ = ["main", "build_parser"]

# Command-line shorthands for kernel families.
_KERNEL_ALIASES = {"ard": "ard_rbf"}
_KERNEL_CHOICES = KERNEL_FAMILIES + tuple(_KERNEL_ALIASES)
_DEFAULT_CAMERAS = {"single": 4, "row3": 6, "grid9": 6}
# Keeps every default scene under 2000 points so a full experiment stays fast.
_DEFAULT_POINTS = {"single": 600, "row3": 500, "grid9": 220}


def _section(defaults, *unset) -> dict:
    """Config section of a dataclass: its fields and their default values.

    Nested dataclasses are left out (they have sections of their own), and
    the ``unset`` fields default to None, to be resolved at run time.
    """
    out = {k: v for k, v in dataclasses.asdict(defaults).items() if not isinstance(v, dict)}
    out.update(dict.fromkeys(unset))
    return out


# The config schema. Sections mirror the dataclasses; scene, camera count and
# seeds left None are resolved from the layout and the optimizer seed.
_DEFAULTS = {
    "scene": _section(SceneSpec(), "points_per_plant", "rng_seed"),
    "scene_path": None,
    "noise": _section(NoiseModel(), "rng_seed"),
    "reward": _section(RewardParams()),
    "space": _section(SearchSpace.default()),
    "bo": _section(BoConfig(n_cameras=2), "n_cameras"),
    "kernels": list(KERNEL_FAMILIES),
    "realizations": 5,
    "baseline_candidates": 50,
    "realization_id": 0,
    "out_dir": "out",
}


class _FileFormatError(Exception):
    """A file exists but cannot be used (bad PLY/JSON payload)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolved(names, known, aliases) -> list:
    """``names``, a nonempty list of names from ``known``, with ``aliases`` resolved.

    Raises ValueError for anything else, a name given twice included.
    """
    if isinstance(names, list) and all(isinstance(n, str) for n in names):
        out = [aliases.get(n, n) for n in names]
        if out and all(n in known for n in out):
            if len(set(out)) < len(out):
                raise ValueError(f"each name may be given once; got {names!r}")
            return out
    raise ValueError(f"expected {', '.join([*known, *aliases])}; got {names!r}")


def _names(known, aliases):
    """argparse type: a comma-separated list of names from ``known``, aliases resolved."""

    def parse(text: str) -> list:
        try:
            return _resolved([s for s in (s.strip() for s in text.split(",")) if s], known, aliases)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


# Flags that set a config key name it once, as their dest: "section.key" or a
# top-level key. `_flag_config` turns the given ones into a config override.
_FLAGS = {
    "--scene": dict(dest="layout_or_ply", help=f"layout name ({'|'.join(LAYOUTS)}) or a .ply path"),
    "--cameras": dict(dest="bo.n_cameras", type=int, help="number of cameras"),
    "--init": dict(dest="bo.n_init", type=int, help="initial design size"),
    "--iters": dict(dest="bo.n_iters", type=int, help="sequential iterations"),
    "--noise-sigma": dict(dest="noise.sigma", type=float, help="motion noise scale, meters"),
    "--candidates": dict(dest="bo.af_budget", type=int, help="acquisition candidate budget"),
    "--smoke": dict(action="store_true", help="reduced budgets for a quick check"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="viewplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", dest="bo.rng_seed", type=int, help="master seed for the optimizer")
        p.add_argument("--out", dest="out_dir", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("generate-scene", cmd_generate_scene, "write a procedural scene to PLY + JSON",
            "--scene")
    p_plan = command(
        "plan", cmd_plan, "optimize a camera placement on one noisy cloud",
        "--scene", "--cameras", "--init", "--iters", "--noise-sigma", "--candidates", "--smoke",
    )
    p_plan.add_argument("--kernel", dest="bo.kernel", choices=_KERNEL_CHOICES,
                        help="surrogate kernel")
    p_base = command(
        "baseline", cmd_baseline, "best-of-n circular formation on one noisy cloud",
        "--scene", "--cameras", "--noise-sigma",
    )
    p_base.add_argument("--candidates", dest="baseline_candidates", type=int,
                        help="number of circular candidates")
    p_exp = command(
        "experiment", cmd_experiment, "kernel-menu regret comparison over realizations",
        "--cameras", "--init", "--iters", "--noise-sigma", "--candidates", "--smoke",
    )
    p_exp.add_argument("--scenes", type=_names(LAYOUTS, {}), default=LAYOUTS,
                       help="comma-separated layout names")
    p_exp.add_argument("--kernels", type=_names(KERNEL_FAMILIES, _KERNEL_ALIASES),
                       help="comma-separated kernel subset")
    p_exp.add_argument("--realizations", type=int, help="noise realizations per scene")
    return parser


# -- configuration ---------------------------------------------------------


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in out:
            raise ValueError(f"unknown config key {key!r}; known keys: {', '.join(out)}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must hold an object")
            value = _merge(out[key], value)
        out[key] = value
    return out


# Applied after the flags, so --smoke wins over --init and --iters.
_SMOKE = {"bo": {"n_init": 10, "n_iters": 30}, "realizations": 1}


def _flag_config(args) -> dict:
    """The config keys set by the given flags, as a config file would hold them."""
    out = {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is not None and (section or key) in _DEFAULTS:
            (out.setdefault(section, {}) if section else out)[key] = value
    scene = getattr(args, "layout_or_ply", None)
    if scene in LAYOUTS:
        out.update(scene={"layout": scene}, scene_path=None)
    elif scene is not None:
        out["scene_path"] = scene
    return out


def _load_config(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {args.config} is not valid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"config file {args.config} must contain a JSON object")
        cfg = _merge(cfg, payload)
    cfg = _merge(cfg, _flag_config(args))
    if getattr(args, "smoke", False):
        cfg = _merge(cfg, _SMOKE)
    try:
        cfg["kernels"] = _resolved(cfg["kernels"], KERNEL_FAMILIES, _KERNEL_ALIASES)
    except ValueError as err:
        raise ValueError(f"config key 'kernels': {err}") from None
    kernel = cfg["bo"]["kernel"]
    try:
        cfg["bo"]["kernel"] = _resolved([kernel], KERNEL_FAMILIES, _KERNEL_ALIASES)[0]
    except ValueError:
        raise ValueError(
            f"config key 'kernel': expected {', '.join(_KERNEL_CHOICES)}; got {kernel!r}"
        ) from None
    if not isinstance(cfg["scene_path"], (str, type(None))):
        raise ValueError(f"config key 'scene_path' must be a string or null, "
                         f"got {cfg['scene_path']!r}")
    if not isinstance(cfg["out_dir"], str):
        raise ValueError(f"config key 'out_dir' must be a string, got {cfg['out_dir']!r}")
    for key, least in (("realizations", 1), ("baseline_candidates", 1), ("realization_id", 0)):
        if _check_integer(key, cfg[key]) < least:
            raise ValueError(f"config key {key!r} must be at least {least}, got {cfg[key]!r}")
    seed = _check_integer("rng_seed", cfg["bo"]["rng_seed"])
    if cfg["scene"]["rng_seed"] is None:
        cfg["scene"]["rng_seed"] = seed + 1000
    if cfg["noise"]["rng_seed"] is None:
        cfg["noise"]["rng_seed"] = seed + 2000
    return cfg


def _check_integer(key: str, value):
    """``value`` if it is a JSON integer; raises ValueError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    """True for a JSON number: an int or a float, never a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _build(cls, section: dict, **resolved):
    """``cls`` from its config section, scalar and vector fields checked.

    A string field takes only a JSON string and an int field only a JSON
    integer. A float field takes any JSON number that is a finite float
    and holds it as a float, so ``1`` echoes as ``1.0``. A 3-vector field takes
    only a list of exactly three such numbers.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {**section, **resolved}
    for key, value in kwargs.items():
        if hints[key] is str and not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        elif hints[key] is int:
            _check_integer(key, value)
        elif hints[key] is float:
            if not _is_number(value):
                raise ValueError(f"config key {key!r} must be a number, got {value!r}")
            kwargs[key] = _to_float(key, value)
        elif hints[key] == typing.Tuple[float, float, float]:
            if not (isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))):
                raise ValueError(f"config key {key!r} must be a list of 3 numbers, got {value!r}")
            kwargs[key] = [_to_float(key, v) for v in value]
    return cls(**kwargs)


def _to_float(key: str, value) -> float:
    """A JSON number as a finite float; raises ValueError naming ``key`` otherwise.

    Python's json reads ``NaN``, ``Infinity`` and ``1e999`` as non-finite floats.
    """
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} holds an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    return number


def _typed(cfg: dict, layout: str | None = None):
    if layout is None:
        layout = cfg["scene"]["layout"]
    points = cfg["scene"]["points_per_plant"]
    if points is None:
        # Any other layout, of whatever JSON type, fails in _build.
        points = _DEFAULT_POINTS[layout] if layout in LAYOUTS else 500
    spec = _build(SceneSpec, cfg["scene"], layout=layout, points_per_plant=points)
    noise = _build(NoiseModel, cfg["noise"])
    reward_params = _build(RewardParams, cfg["reward"])
    space = _build(SearchSpace, cfg["space"])
    n_cameras = cfg["bo"]["n_cameras"]
    if n_cameras is None:
        n_cameras = _DEFAULT_CAMERAS[spec.layout]
    bo = _build(BoConfig, cfg["bo"], n_cameras=n_cameras, reward_params=reward_params, space=space)
    return spec, noise, bo


def _echo(cfg: dict, spec: SceneSpec, noise: NoiseModel, bo: BoConfig) -> dict:
    """The resolved configuration, in the schema of a config file."""
    bo_fields = dataclasses.asdict(bo)
    sections = {
        "scene": dataclasses.asdict(spec),
        "noise": dataclasses.asdict(noise),
        "reward": bo_fields.pop("reward_params"),
        "space": bo_fields.pop("space"),
        "bo": bo_fields,
    }
    return {**sections, **{key: cfg[key] for key in _DEFAULTS if key not in sections}}


def _scene_cloud(cfg: dict, spec: SceneSpec):
    """(cloud, label): procedural unless a .ply path was configured."""
    path = cfg.get("scene_path")
    if path:
        try:
            sidecar = Path(path).with_suffix(".json")
            ranges = None
            if sidecar.exists():
                try:
                    meta = vio.read_json(sidecar)
                except ValueError as err:
                    raise ValueError(f"{sidecar}: not valid JSON: {err}") from None
                try:
                    ranges = [(int(a), int(b)) for a, b in meta.get("plant_ranges", [])] or None
                except (AttributeError, TypeError, ValueError, OverflowError):
                    raise ValueError(
                        f"{sidecar}: plant_ranges must be a list of [start, stop] pairs"
                    ) from None
            cloud = vio.read_ply(path)
            if ranges:
                try:
                    cloud = PointCloud(cloud.points, ranges)
                except ValueError as err:
                    raise ValueError(f"{sidecar}: {err}") from None
            return cloud, Path(path).stem
        except ValueError as err:
            raise _FileFormatError(str(err)) from None
    return generate_scene(spec), spec.layout


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands ----------------------------------------------------------------


def cmd_generate_scene(args, cfg: dict) -> int:
    spec, noise, bo = _typed(cfg)
    cloud, label = _scene_cloud(cfg, spec)
    out = _out_dir(cfg)
    ply_path = out / f"scene_{label}.ply"
    vio.write_ply(ply_path, cloud)
    sidecar = {
        "layout": spec.layout,
        "n_points": len(cloud),
        "plant_ranges": [list(r) for r in cloud.plant_ranges],
        "config": _echo(cfg, spec, noise, bo),
    }
    vio.write_json(ply_path.with_suffix(".json"), sidecar)
    print(f"wrote {ply_path} ({len(cloud)} points) and {ply_path.with_suffix('.json')}")
    return 0


def _noisy_cloud(cfg, spec, noise):
    cloud, label = _scene_cloud(cfg, spec)
    realization = sample_realization(noise, cloud, cfg["realization_id"])
    return apply_noise(cloud, realization), label


def _write_result(cfg, spec, noise, bo, name: str, label: str, best_value: float,
                  placement, **extra) -> Path:
    """Write ``{name}_{label}.json``, with the command's own keys ``extra``, and print its line.

    Returns the output directory.
    """
    out = _out_dir(cfg)
    regret = simple_regret(best_value)
    vio.write_json(out / f"{name}_{label}.json", dict(
        extra, scene=label, best_value=best_value, final_simple_regret=regret,
        placement=vio.placement_to_dict(placement), config=_echo(cfg, spec, noise, bo),
    ))
    print(f"scene={label} best_value={best_value:.6f} final_simple_regret={regret:.6f}")
    return out


def cmd_plan(args, cfg: dict) -> int:
    spec, noise, bo = _typed(cfg)
    noisy, label = _noisy_cloud(cfg, spec, noise)
    trace = run_bo(bo, noisy)
    best_vec = trace.best_input()
    out = _write_result(cfg, spec, noise, bo, "placement", label, trace.best_value(),
                        decode(best_vec, bo.space), incomplete=trace.incomplete,
                        n_observations=len(trace), encoded_best=[float(v) for v in best_vec])
    vio.write_trace_csv(out / f"trace_{label}.csv", trace)
    if trace.incomplete:
        print("warning: run ended early on a numerical failure", file=sys.stderr)
        return 3
    return 0


def cmd_baseline(args, cfg: dict) -> int:
    spec, noise, bo = _typed(cfg)
    noisy, label = _noisy_cloud(cfg, spec, noise)
    result = circular_baseline(bo, noisy, n_candidates=cfg["baseline_candidates"])
    _write_result(cfg, spec, noise, bo, "baseline", label, result.best_value, result.placement,
                  values=list(result.values), radii=list(result.radii), heights=list(result.heights))
    return 0


def cmd_experiment(args, cfg: dict) -> int:
    if cfg["scene_path"]:
        raise ValueError("experiment runs the layouts named by --scenes; drop scene_path")
    typed = [_typed(cfg, layout=layout) for layout in args.scenes]
    out = _out_dir(cfg)

    finished = 0
    for spec, noise, bo in typed:
        cloud, label = _scene_cloud(cfg, spec)
        report = run_experiment(
            cloud,
            noise,
            bo,
            kernels=tuple(cfg["kernels"]),
            n_realizations=cfg["realizations"],
            n_baseline=cfg["baseline_candidates"],
            scene_label=label,
        )
        vio.write_report_csv(out / f"{label}_report.csv", report)
        vio.write_mean_regret_csv(out / f"{label}_mean_regret.csv", report)
        summary = {
            "scene": label,
            "kernels": list(report.kernels),
            "realizations": report.n_realizations,
            "baseline_mean_regret": report.baseline_mean_regret(),
            "cells": [
                {
                    "kernel": kernel,
                    "realization": rid,
                    "final_simple_regret": trace.final_regret(),
                    "best_value": trace.best_value(),
                    "incomplete": trace.incomplete,
                }
                for (kernel, rid), trace in sorted(report.traces.items())
            ],
            "baselines": [
                {
                    "realization": rid,
                    "best_value": b.best_value,
                    "final_simple_regret": b.final_regret(),
                }
                for rid, b in sorted(report.baselines.items())
            ],
            "errors": dict(sorted(report.errors.items())),
            "tracebacks": dict(sorted(report.tracebacks.items())),
            "config": _echo(cfg, spec, noise, bo),
        }
        # Each scene resolves these from its own layout; left as configured,
        # any scene's echo repeats every scene of the run.
        summary["config"]["scene"]["points_per_plant"] = cfg["scene"]["points_per_plant"]
        summary["config"]["bo"]["n_cameras"] = cfg["bo"]["n_cameras"]
        vio.write_json(out / f"{label}_summary.json", summary)
        done = len(report.traces) + len(report.baselines)
        finished += done
        print(
            f"scene={label} cells={done}/{report.n_cells()} "
            f"baseline_mean_regret={report.baseline_mean_regret():.6f}"
        )
        for kernel in report.kernels:
            curve = report.mean_bo_regrets(kernel)
            final = curve[-1] if curve.size else float("nan")
            print(f"  {kernel}: mean_final_regret={final:.6f}")
    if not finished:
        print("error: every experiment cell failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args, _load_config(args))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (_FileFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
