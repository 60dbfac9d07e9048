"""The benchmark workloads: inputs made from a seed, one timed unit, checks.

Every workload drives viewplan through its public API. ``setup`` is what
``setup_s`` times (scene generation plus noise, after the import); ``unit``
is the timed call; ``check`` re-derives what it can from the outputs and
returns one message per failed check. For each scene seed ``s``, the scene
and noise seeds follow the command-line rule: ``s + 1000`` and ``s + 2000``,
realization 0 first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from viewplan import cli, planner, scene
from viewplan.geometry import decode
from viewplan.gp import KERNEL_FAMILIES
from viewplan.reward import reward


def noisy_clouds(layout: str, points_per_plant: int, seed: int, realizations: int = 1):
    """The clean scene and its first noisy realizations, as the CLI makes them."""
    clean = scene.generate_scene(
        scene.SceneSpec(layout, points_per_plant=points_per_plant, rng_seed=seed + 1000)
    )
    noise = scene.NoiseModel(rng_seed=seed + 2000)
    return clean, [
        scene.apply_noise(clean, scene.sample_realization(noise, clean, rid))
        for rid in range(realizations)
    ]


def _in_unit_interval(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all((v >= 0.0) & (v <= 1.0)))


@dataclass(frozen=True)
class BoRow3:
    """One sequential optimizer run at the hardest default dimension (30).

    Not gated: its run time varies too much from seed to seed (see
    README.md). Run it by name to see the acquisition-bound profile.
    """

    name: str = "bo-row3"
    points_per_plant: int = 500
    n_cameras: int = 6
    n_init: int = 50
    n_iters: int = 100
    # With a single fit the run time depends on whether that fit degenerates
    # (3 s or 30 s for the same budget); refits spread a run over several.
    refit_every: int = 10
    reference_candidates: int = 50
    workers: int = 1

    def setup(self, seed: int, out_dir: Path) -> dict:
        _, (noisy,) = noisy_clouds("row3", self.points_per_plant, seed)
        config = planner.BoConfig(
            n_cameras=self.n_cameras, n_init=self.n_init, n_iters=self.n_iters,
            kernel="matern25", rng_seed=seed, refit_every=self.refit_every,
        )
        return {"cloud": noisy, "config": config}

    def unit(self, inputs: dict, out_dir: Path):
        return planner.run_bo(inputs["config"], inputs["cloud"])

    def cells(self, trace) -> int:
        return 1

    def check(self, inputs: dict, trace) -> list:
        config, cloud = inputs["config"], inputs["cloud"]
        problems = []
        if trace.incomplete:
            problems.append("run ended early (incomplete)")
        if len(trace) != config.n_init + config.n_iters:
            problems.append(f"trace has {len(trace)} rows, expected {config.n_init + config.n_iters}")
        if not _in_unit_interval(trace.observed):
            problems.append("an observed reward lies outside [0, 1]")
        rescored = reward(decode(trace.best_input(), config.space), cloud, config.reward_params)
        if rescored != trace.best_value():
            problems.append(f"best input re-scores to {rescored!r}, trace says {trace.best_value()!r}")
        return problems

    def reference(self, inputs: dict):
        """Circular baseline on the same cloud, the bar for ``win_frac``."""
        return planner.circular_baseline(
            inputs["config"], inputs["cloud"], n_candidates=self.reference_candidates
        )

    def quality(self, inputs: dict, trace, reference) -> dict:
        best = trace.best_value()
        return {"best_reward": best, "win_frac": float(best >= reference.best_value)}

    def digest(self, trace) -> str:
        return hashlib.sha256(np.asarray(trace.observed).tobytes()).hexdigest()


@dataclass(frozen=True)
class BaselineDense:
    """The circular baseline on a dense scan: reward evaluation only."""

    name: str = "baseline-dense"
    points_per_plant: int = 5000
    n_cameras: int = 6
    # Short units: a run reports the median of many, which steadies it
    # against the machine's own speed swings.
    candidates: int = 50
    workers: int = 1

    def setup(self, seed: int, out_dir: Path) -> dict:
        _, (noisy,) = noisy_clouds("grid9", self.points_per_plant, seed)
        return {"cloud": noisy, "config": planner.BoConfig(n_cameras=self.n_cameras, rng_seed=seed)}

    def unit(self, inputs: dict, out_dir: Path):
        return planner.circular_baseline(inputs["config"], inputs["cloud"], n_candidates=self.candidates)

    def cells(self, outcome) -> int:
        return 1

    def check(self, inputs: dict, result) -> list:
        problems = []
        if len(result.values) != self.candidates:
            problems.append(f"{len(result.values)} candidates scored, expected {self.candidates}")
        if not _in_unit_interval(result.values):
            problems.append("a candidate reward lies outside [0, 1]")
        if result.best_value != max(result.values):
            problems.append("best_value is not the best candidate's value")
        rescored = reward(result.placement, inputs["cloud"], inputs["config"].reward_params)
        if rescored != result.best_value:
            problems.append(f"best placement re-scores to {rescored!r}, result says {result.best_value!r}")
        return problems

    def reference(self, inputs: dict):
        return None

    def quality(self, inputs: dict, result, reference) -> dict:
        # No optimizer cells run here, so none can win.
        return {"best_reward": result.best_value, "win_frac": 0.0}

    def digest(self, result) -> str:
        return hashlib.sha256(np.asarray(result.values).tobytes()).hexdigest()


@dataclass(frozen=True)
class ExperimentMenu:
    """``viewplan experiment`` in-process: every kernel, on the thread pool.

    One unit runs the command once per scene seed. The cost of a cell
    depends on the scene far more than on the noise realization (one scene
    can double every cell's time), so only several scenes per unit keep
    ``wall_s`` steady from seed to seed.
    """

    name: str = "experiment-menu"
    scenes: int = 4
    realizations: int = 1
    n_init: int = 20
    n_iters: int = 10
    refit_every: int = 2
    points_per_plant: int = 600
    baseline_candidates: int = 50
    # Threads for the experiment's cell pool, capped at the cores present.
    workers: int = max(1, min(2, len(os.sched_getaffinity(0))))

    def setup(self, seed: int, out_dir: Path) -> dict:
        seeds = [self.scenes * seed + k for k in range(self.scenes)]
        # The command makes its own clouds inside the timed call; making them
        # here too lets setup_s time the same work as on the other workloads.
        for s in seeds:
            noisy_clouds("single", self.points_per_plant, s, self.realizations)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = out_dir / "config.json"
        config.write_text(json.dumps({
            "scene": {"points_per_plant": self.points_per_plant},
            "bo": {"n_init": self.n_init, "n_iters": self.n_iters, "refit_every": self.refit_every},
            "realizations": self.realizations,
            "baseline_candidates": self.baseline_candidates,
        }))
        return {"seeds": seeds, "config": config}

    def unit(self, inputs: dict, out_dir: Path):
        previous = os.environ.get("VIEWPLAN_THREADS")
        os.environ["VIEWPLAN_THREADS"] = str(self.workers)
        runs = []
        try:
            for s in inputs["seeds"]:
                out = out_dir / f"seed{s}"
                argv = [
                    "experiment", "--scenes", "single", "--kernels", ",".join(KERNEL_FAMILIES),
                    "--config", str(inputs["config"]), "--seed", str(s), "--out", str(out),
                ]
                with contextlib.redirect_stdout(_io.StringIO()):
                    runs.append((cli.main(argv), out))
        finally:
            if previous is None:
                del os.environ["VIEWPLAN_THREADS"]
            else:
                os.environ["VIEWPLAN_THREADS"] = previous
        return runs

    def cells(self, runs) -> int:
        return (len(KERNEL_FAMILIES) + 1) * self.realizations * len(runs)

    @staticmethod
    def _summary(out: Path) -> dict:
        return json.loads((out / "single_summary.json").read_text())

    def check(self, inputs: dict, runs) -> list:
        problems = []
        bo_cells = len(KERNEL_FAMILIES) * self.realizations
        expected_rows = {
            "single_report.csv": 1 + bo_cells * (self.n_init + self.n_iters)
            + self.realizations * self.baseline_candidates,
            "single_mean_regret.csv": 1 + (len(KERNEL_FAMILIES) + 1) * self.n_iters,
        }
        for code, out in runs:
            if code != 0:
                problems.append(f"{out.name}: experiment exited with code {code}")
                continue
            summary = self._summary(out)
            for label, err in summary["errors"].items():
                problems.append(f"{out.name}: cell {label}: {err}")
            if len(summary["cells"]) != bo_cells or len(summary["baselines"]) != self.realizations:
                problems.append(f"{out.name}: summary does not list every cell")
            values = [c["best_value"] for c in summary["cells"]]
            values += [b["best_value"] for b in summary["baselines"]]
            if not _in_unit_interval(values):
                problems.append(f"{out.name}: a best value lies outside [0, 1]")
            for name, rows in expected_rows.items():
                got = len((out / name).read_text().splitlines())
                if got != rows:
                    problems.append(f"{out.name}: {name} has {got} lines, expected {rows}")
        return problems

    def reference(self, inputs: dict):
        return None

    def quality(self, inputs: dict, runs, reference) -> dict:
        bests, wins = [], []
        for _, out in runs:
            summary = self._summary(out)
            baseline = {b["realization"]: b["final_simple_regret"] for b in summary["baselines"]}
            for c in summary["cells"]:
                bests.append(c["best_value"])
                wins.append(c["final_simple_regret"] <= baseline[c["realization"]])
        return {"best_reward": float(np.mean(bests)), "win_frac": float(np.mean(wins))}

    def digest(self, runs) -> str:
        # summary.json embeds the output directory, so only the CSVs count.
        h = hashlib.sha256()
        for _, out in runs:
            for name in ("single_report.csv", "single_mean_regret.csv"):
                h.update((out / name).read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (BoRow3(), BaselineDense(), ExperimentMenu())}
