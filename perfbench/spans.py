"""Spans around viewplan's public functions, recorded from outside the package.

A :class:`Tracer` replaces each traced name in the namespace where its caller
looks it up (a module attribute, or a method on ``GpModel``) with a wrapper
that records a span: name, start, end, parent span, run id and thread. The
span stack is kept per thread because experiment cells run on a thread pool.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer numbers
once the run is over. Leaving the ``with`` block puts every original back.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    run: str
    thread: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# on_exit(span, args, result) fills span.attrs after a call that returned.
OnExit = Callable[[Span, tuple, object], None]


class Tracer:
    """Records spans for every patched callable until :meth:`restore`."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_exit: Optional[OnExit] = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                next(self._ids), name, self.run, threading.get_ident(),
                stack[-1].sid if stack else None, 0.0,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_exit: Optional[OnExit] = None) -> None:
        """Trace ``owner.attr`` (a module attribute, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, on_exit))
        else:
            replacement = self.wrap(name, original, on_exit)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- what gets traced --------------------------------------------------------


def _rows(span, args, result):
    span.attrs["rows"] = int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _reward(span, args, result):
    placement, cloud = args[0], args[1]
    n = len(placement)
    span.attrs["point_pairs"] = len(cloud) * (n * (n - 1) // 2)
    span.attrs["value"] = float(result)


def _jitter_of_result(span, args, result):
    span.attrs["jitter"] = float(result.jitter)


def _jitter_of_self(span, args, result):
    span.attrs["jitter"] = float(args[0].jitter)


def _bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def install(tracer: Tracer) -> Tracer:
    """Patch the traced viewplan names; returns the tracer for ``with``."""
    from viewplan import cli, io, planner, scene
    from viewplan.gp import GpModel

    for attr, name, on_exit in (
        ("noisy_reward", "reward", _reward),
        ("decode", "geometry.decode", None),
        ("maximize_ei", "acquisition.maximize_ei", None),
        ("init_design", "planner.init_design", None),
        ("run_bo", "planner.run_bo", None),
        ("circular_baseline", "planner.circular_baseline", None),
    ):
        tracer.patch(planner, attr, name, on_exit)
    tracer.patch(cli, "run_experiment", "planner.run_experiment")
    tracer.patch(GpModel, "fit", "gp.fit", _jitter_of_result)
    tracer.patch(GpModel, "add_observation", "gp.add_observation", _jitter_of_self)
    tracer.patch(GpModel, "posterior_batch", "gp.posterior_batch", _rows)
    for attr in io.__all__:
        if attr.startswith("write_"):
            tracer.patch(io, attr, f"io.{attr}", _bytes)
    for attr in scene.__all__:
        original = getattr(scene, attr)
        if not callable(original) or isinstance(original, type):
            continue
        # Patch every module that imported the name, where its callers find it.
        for module in (cli, planner, scene):
            if getattr(module, attr, None) is original:
                tracer.patch(module, attr, f"scene.{attr}")
    return tracer


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, better); the order is the order of the printed report.
LAYER_METRICS: Dict[str, tuple] = {
    "acquisition.maximize_ei.calls": ("count", "lower"),
    "acquisition.maximize_ei.self_s": ("s", "lower"),
    "acquisition.maximize_ei.call_ms.p50": ("ms", "lower"),
    "acquisition.maximize_ei.call_ms.p90": ("ms", "lower"),
    "acquisition.maximize_ei.posterior_calls_per_call": ("count", "lower"),
    "acquisition.maximize_ei.rows_per_call": ("count", "lower"),
    "gp.posterior_batch.calls": ("count", "lower"),
    "gp.posterior_batch.rows": ("count", "lower"),
    "gp.posterior_batch.self_s": ("s", "lower"),
    "gp.posterior_batch.rows_per_s": ("1/s", "higher"),
    "gp.fit.calls": ("count", "lower"),
    "gp.fit.self_s": ("s", "lower"),
    "gp.fit.call_ms.p50": ("ms", "lower"),
    "gp.add_observation.self_s": ("s", "lower"),
    "gp.jitter_retry_frac": ("ratio", "lower"),
    "reward.calls": ("count", "lower"),
    "reward.self_s": ("s", "lower"),
    "reward.call_ms.p50": ("ms", "lower"),
    "reward.call_ms.p90": ("ms", "lower"),
    "reward.point_pairs": ("count", "lower"),
    "reward.point_pairs_per_s": ("1/s", "higher"),
    "reward.errors": ("count", "lower"),
    "reward.nonzero_frac": ("ratio", "higher"),
    "geometry.decode.calls": ("count", "lower"),
    "geometry.decode.self_s": ("s", "lower"),
    "planner.init_design.s": ("s", "lower"),
    "planner.iter_ms.p50": ("ms", "lower"),
    "planner.iter_ms.p90": ("ms", "lower"),
    "planner.run_bo.self_s": ("s", "lower"),
    "planner.circular_baseline.self_s": ("s", "lower"),
    "planner.cell_s.p50": ("s", "lower"),
    "planner.cell_s.max": ("s", "lower"),
    "planner.pool_efficiency": ("ratio", "higher"),
    "scene.generate_scene.s": ("s", "lower"),
    "scene.apply_noise.s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part covered by its children.

    Children run on the parent's thread, one after another, so their
    durations add up to the covered part.
    """
    covered: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in spans}


def unit_metrics(spans: List[Span], wall_s: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of the spans of one timed unit."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[s.sid] for s in named(name))

    def total_s(name):
        return sum(s.duration for s in named(name))

    def call_ms(name):
        return [1e3 * s.duration for s in named(name)]

    m: Dict[str, float] = {}
    acq = named("acquisition.maximize_ei")
    acq_ids = {s.sid for s in acq}
    acq_posteriors = [s for s in named("gp.posterior_batch") if s.parent in acq_ids]
    m["acquisition.maximize_ei.calls"] = len(acq)
    m["acquisition.maximize_ei.self_s"] = self_s("acquisition.maximize_ei")
    m["acquisition.maximize_ei.call_ms.p50"] = _pct(call_ms("acquisition.maximize_ei"), 50)
    m["acquisition.maximize_ei.call_ms.p90"] = _pct(call_ms("acquisition.maximize_ei"), 90)
    m["acquisition.maximize_ei.posterior_calls_per_call"] = _ratio(len(acq_posteriors), len(acq))
    m["acquisition.maximize_ei.rows_per_call"] = _ratio(
        sum(s.attrs["rows"] for s in acq_posteriors), len(acq)
    )

    posteriors = named("gp.posterior_batch")
    rows = sum(s.attrs["rows"] for s in posteriors)
    m["gp.posterior_batch.calls"] = len(posteriors)
    m["gp.posterior_batch.rows"] = rows
    m["gp.posterior_batch.self_s"] = self_s("gp.posterior_batch")
    m["gp.posterior_batch.rows_per_s"] = _ratio(rows, total_s("gp.posterior_batch"))
    m["gp.fit.calls"] = len(named("gp.fit"))
    m["gp.fit.self_s"] = self_s("gp.fit")
    m["gp.fit.call_ms.p50"] = _pct(call_ms("gp.fit"), 50)
    m["gp.add_observation.self_s"] = self_s("gp.add_observation")
    factorized = [s for s in named("gp.fit") + named("gp.add_observation") if "jitter" in s.attrs]
    m["gp.jitter_retry_frac"] = _ratio(sum(s.attrs["jitter"] > 0.0 for s in factorized), len(factorized))

    rewards = named("reward")
    scored = [s for s in rewards if "value" in s.attrs]
    pairs = sum(s.attrs["point_pairs"] for s in scored)
    m["reward.calls"] = len(rewards)
    m["reward.self_s"] = self_s("reward")
    m["reward.call_ms.p50"] = _pct(call_ms("reward"), 50)
    m["reward.call_ms.p90"] = _pct(call_ms("reward"), 90)
    m["reward.point_pairs"] = pairs
    m["reward.point_pairs_per_s"] = _ratio(pairs, sum(s.duration for s in scored))
    m["reward.errors"] = sum("error" in s.attrs for s in rewards)
    m["reward.nonzero_frac"] = _ratio(sum(s.attrs["value"] > 0.0 for s in scored), len(scored))

    m["geometry.decode.calls"] = len(named("geometry.decode"))
    m["geometry.decode.self_s"] = self_s("geometry.decode")

    # Interval between successive acquisition starts within one optimizer run.
    starts: Dict[Optional[int], List[float]] = {}
    for s in acq:
        starts.setdefault(s.parent, []).append(s.start)
    iter_ms = [1e3 * d for ts in starts.values() for d in np.diff(sorted(ts))]
    cells = [s.duration for s in named("planner.run_bo") + named("planner.circular_baseline")]
    pool_wall = total_s("planner.run_experiment") or wall_s
    m["planner.init_design.s"] = total_s("planner.init_design")
    m["planner.iter_ms.p50"] = _pct(iter_ms, 50)
    m["planner.iter_ms.p90"] = _pct(iter_ms, 90)
    m["planner.run_bo.self_s"] = self_s("planner.run_bo")
    m["planner.circular_baseline.self_s"] = self_s("planner.circular_baseline")
    m["planner.cell_s.p50"] = _pct(cells, 50)
    m["planner.cell_s.max"] = max(cells, default=0.0)
    m["planner.pool_efficiency"] = _ratio(sum(cells), pool_wall * workers)

    m["scene.generate_scene.s"] = total_s("scene.generate_scene")
    m["scene.apply_noise.s"] = total_s("scene.apply_noise")
    writes = [s for s in spans if s.name.startswith("io.write_")]
    m["io.write_s"] = sum(s.duration for s in writes)
    m["io.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in writes)
    return m


def layer_metrics(spans: List[Span], unit_walls: Dict[str, float], workers: int) -> Dict[str, float]:
    """Median over timed units of each per-layer metric.

    Scene metrics come from the benchmark's own set-up (run id ``setup``),
    which is what ``setup_s`` times; everything else from the timed units.
    """
    per_unit = [
        unit_metrics([s for s in spans if s.run == run], wall, workers)
        for run, wall in unit_walls.items()
    ]
    out = {name: float(statistics.median(u[name] for u in per_unit)) for name in LAYER_METRICS}
    setup = unit_metrics([s for s in spans if s.run == "setup"], 0.0, workers)
    for name in ("scene.generate_scene.s", "scene.apply_noise.s"):
        out[name] = setup[name]
    return out
