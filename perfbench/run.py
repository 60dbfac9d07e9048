"""Run one viewplan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload baseline-dense --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The workload
inputs are made from ``--seed``. Timed units repeat on the same inputs for
about ``--seconds`` seconds (always at least one unit), and every unit's
outputs are checked. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced for half the time, then traced, and reports the
per-layer metrics. The last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and record the environment. The
exit code is 0 when every check passed, 1 when one failed and 2 when the
package or the workload cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# One BLAS thread: the experiment's own pool is the only parallelism, so no
# workload uses more threads than there are cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed per run for setup_s; imports are only cold once.
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed, not gated: the quality numbers vary from seed to seed far beyond
# any bound, and failed_frac is 0 on every correct run.
REPORTED = {"failed_frac": "ratio", "best_reward": "reward", "win_frac": "ratio"}
PROCESS_METRICS = {
    "quality.best_reward": ("reward", "higher"),
    "quality.win_frac": ("ratio", "higher"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def import_workloads():
    """Import the benchmark's workloads against the package in ``src/``."""
    if not (SRC / "viewplan" / "__init__.py").is_file():
        raise ImportError(f"no viewplan package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import viewplan
    import workloads

    if Path(viewplan.__file__).resolve().parent != SRC / "viewplan":
        raise ImportError(f"viewplan was imported from {viewplan.__file__}, not {SRC}")
    return workloads


def environment(workload, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "viewplan_threads": workload.workers,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def probe_setup(workload_name: str, seed: int) -> float:
    """setup_s of one fresh interpreter: import, scene generation, noise."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_units(workload, inputs, seconds: float, run_dir: Path, tracer=None, first: int = 0):
    """Timed units on the same inputs until the next would overrun ``seconds``."""
    units = []
    start = time.perf_counter()
    while True:
        run = f"unit{first + len(units)}"
        if tracer is not None:
            tracer.run = run
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outcome = workload.unit(inputs, run_dir / run)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.run = "check"
        units.append({
            "run": run,
            "wall": wall,
            "cpu": cpu,
            "problems": workload.check(inputs, outcome),
            "cells": workload.cells(outcome),
            "digest": workload.digest(outcome),
            "outcome": outcome,
        })
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(u["wall"] for u in units) > seconds:
            return units


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path,
            setup_probes: int = SETUP_PROBES) -> dict:
    """Set up, run and check one workload; returns the result object."""
    import spans

    tracer = spans.Tracer()
    if trace:
        with spans.install(tracer):
            inputs = workload.setup(seed, run_dir)
    else:
        inputs = workload.setup(seed, run_dir)
    reference = workload.reference(inputs)

    # A traced run spends half its time untraced, the base for trace.overhead_s.
    units = run_units(workload, inputs, seconds / 2 if trace else seconds, run_dir)
    metrics = {}
    if trace:
        untraced_wall = statistics.median(u["wall"] for u in units)
        with spans.install(tracer):
            traced = run_units(workload, inputs, seconds / 2, run_dir, tracer, first=len(units))
        walls = {u["run"]: u["wall"] for u in traced}
        layer = spans.layer_metrics(tracer.spans, walls, workload.workers)
        for name, (unit, _) in spans.LAYER_METRICS.items():
            metrics[name] = {"value": layer[name], "unit": unit}
        quality = workload.quality(inputs, traced[-1]["outcome"], reference)
        extra = {
            "quality.best_reward": quality["best_reward"],
            "quality.win_frac": quality["win_frac"],
            "process.cpu_s": statistics.median(u["cpu"] for u in traced),
            "trace.overhead_s": statistics.median(walls.values()) - untraced_wall,
        }
        for name, (unit, _) in PROCESS_METRICS.items():
            metrics[name] = {"value": extra[name], "unit": unit}
        units += traced
    else:
        setup_s = statistics.median(probe_setup(workload.name, seed) for _ in range(setup_probes))
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(u["wall"] for u in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        quality = workload.quality(inputs, units[-1]["outcome"], reference)

    problems = [f"{u['run']}: {p}" for u in units for p in u["problems"]]
    if len({u["digest"] for u in units}) > 1:
        problems.append("outputs differ between units run on the same inputs")
    attempted = sum(u["cells"] for u in units)
    failed = sum(min(len(u["problems"]), u["cells"]) for u in units)
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "reported": {
            "failed_frac": failed / attempted,
            "best_reward": quality["best_reward"],
            "win_frac": quality["win_frac"],
        },
        "problems": problems,
        "unit_walls": [u["wall"] for u in units],
        "unit_cpus": [u["cpu"] for u in units],
    }


def _setup_probe(workload_name: str, seed: int) -> int:
    start = time.perf_counter()
    workloads = import_workloads()
    probe_dir = RUNS_DIR / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload_name].setup(seed, probe_dir)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    try:
        workloads = import_workloads()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(workload, args), sort_keys=True))
    run_dir = RUNS_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = out["result"]
    print("units wall_s " + " ".join(f"{w:.4f}" for w in out["unit_walls"])
          + " cpu_s " + " ".join(f"{c:.4f}" for c in out["unit_cpus"]))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for name, unit in REPORTED.items():
        print(f"reported {name} = {out['reported'][name]!r} {unit}")
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
