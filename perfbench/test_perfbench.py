"""The benchmark's own checks, at budgets small enough for every test run."""

import json

import pytest

import run

workloads = run.import_workloads()
import spans  # noqa: E402  (importable once run has put this directory on the path)
from viewplan import planner  # noqa: E402

TINY = {
    "bo-row3": workloads.BoRow3(points_per_plant=30, n_init=6, n_iters=3, refit_every=2,
                                reference_candidates=3),
    "baseline-dense": workloads.BaselineDense(points_per_plant=30, candidates=4),
    "experiment-menu": workloads.ExperimentMenu(scenes=2, n_init=4, n_iters=3, refit_every=2,
                                                points_per_plant=30, baseline_candidates=3),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_emitted_metrics_match_benchmark_json(name, trace, tmp_path):
    out = run.measure(TINY[name], 3, 0.0, trace, tmp_path, setup_probes=1)
    result = out["result"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"], out["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    workload = TINY[name]
    inputs = workload.setup(5, tmp_path)
    plain = workload.digest(workload.unit(inputs, tmp_path / "plain"))
    with spans.install(spans.Tracer()) as tracer:
        traced = workload.digest(workload.unit(inputs, tmp_path / "traced"))
    assert traced == plain
    assert tracer.spans
    assert not hasattr(planner.run_bo, "__wrapped__")


def test_thread_count_gives_byte_identical_csvs(tmp_path):
    digests = []
    for workers in (1, 2):
        workload = workloads.ExperimentMenu(scenes=1, realizations=2, n_init=4, n_iters=3,
                                            refit_every=2, points_per_plant=30,
                                            baseline_candidates=3, workers=workers)
        inputs = workload.setup(7, tmp_path / f"w{workers}")
        outcome = workload.unit(inputs, tmp_path / f"w{workers}" / "unit")
        assert workload.check(inputs, outcome) == []
        digests.append(workload.digest(outcome))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["bo-row3", "baseline-dense"])
def test_wrong_reward_trips_the_check(name, tmp_path, monkeypatch):
    true_reward = planner.noisy_reward
    monkeypatch.setattr(planner, "noisy_reward", lambda *args: 0.5 * true_reward(*args) + 0.25)
    out = run.measure(TINY[name], 11, 0.0, False, tmp_path, setup_probes=1)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] >= 1
    assert any("re-scores" in p for p in out["problems"])


def test_self_time_subtracts_children():
    parent = spans.Span(1, "outer", "unit0", 0, None, 0.0, 10.0)
    kids = [spans.Span(2, "inner", "unit0", 0, 1, 1.0, 3.0), spans.Span(3, "inner", "unit0", 0, 1, 4.0, 8.0)]
    own = spans.self_times([parent] + kids)
    assert own == {1: 4.0, 2: 2.0, 3: 4.0}
