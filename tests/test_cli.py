import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viewplan
from viewplan import SceneSpec, generate_scene, planner
from viewplan.cli import main
from viewplan.io import read_json, read_ply, write_ply


@pytest.fixture
def tiny_config(tmp_path):
    """Config that shrinks every budget so commands finish in seconds."""
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "scene": {"points_per_plant": 15},
                "bo": {"n_cameras": 2, "n_init": 4, "n_iters": 2, "af_budget": 32},
                "baseline_candidates": 4,
                "realizations": 2,
            }
        )
    )
    return str(path)


def run(*argv):
    return main(list(argv))


class TestGenerateScene:
    def test_writes_ply_and_sidecar(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        code = run(
            "generate-scene", "--scene", "single", "--seed", "3",
            "--config", tiny_config, "--out", str(out),
        )
        assert code == 0
        cloud = read_ply(out / "scene_single.ply")
        expect = generate_scene(SceneSpec(layout="single", points_per_plant=15, rng_seed=1003))
        assert np.array_equal(cloud.points, expect.points)
        sidecar = read_json(out / "scene_single.json")
        assert sidecar["layout"] == "single"
        assert sidecar["n_points"] == 15
        assert sidecar["plant_ranges"] == [[0, 15]]
        assert sidecar["config"]["scene"]["rng_seed"] == 1003
        assert sidecar["config"]["noise"]["rng_seed"] == 2003
        assert sidecar["config"]["bo"]["rng_seed"] == 3
        assert "scene_single.ply" in capsys.readouterr().out

    def test_grid_layout_camera_default(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        code = run(
            "generate-scene", "--scene", "grid9", "--config", tiny_config, "--out", str(out),
        )
        assert code == 0
        sidecar = read_json(out / "scene_grid9.json")
        assert sidecar["n_points"] == 9 * 15
        assert len(sidecar["plant_ranges"]) == 9


class TestPlan:
    def test_outputs_and_accounting(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        code = run(
            "plan", "--scene", "single", "--seed", "1",
            "--config", tiny_config, "--out", str(out),
        )
        assert code == 0
        payload = read_json(out / "placement_single.json")
        assert payload["scene"] == "single"
        assert payload["incomplete"] is False
        assert payload["n_observations"] == 6
        assert len(payload["encoded_best"]) == 10
        assert len(payload["placement"]["cameras"]) == 2
        assert payload["final_simple_regret"] == 1.0 - payload["best_value"]
        assert payload["config"]["bo"]["kernel"] == "matern25"

        lines = (out / "trace_single.csv").read_text().splitlines()
        assert lines[0] == "iteration,phase,observed,running_best,simple_regret"
        assert len(lines) == 1 + 6
        observed = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert payload["best_value"] == max(observed)

    def test_rerun_is_byte_identical(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        argv = ("plan", "--scene", "single", "--seed", "7",
                "--config", tiny_config, "--out", str(out))
        assert run(*argv) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("placement_single.json", "trace_single.csv")
        }
        assert run(*argv) == 0
        for name, body in first.items():
            assert (out / name).read_bytes() == body

    def test_flags_override_config(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        code = run(
            "plan", "--scene", "single", "--config", tiny_config, "--out", str(out),
            "--cameras", "3", "--init", "3", "--iters", "1", "--candidates", "16",
            "--kernel", "ard",
        )
        assert code == 0
        payload = read_json(out / "placement_single.json")
        assert payload["config"]["bo"]["kernel"] == "ard_rbf"
        assert payload["config"]["bo"]["n_cameras"] == 3
        assert payload["n_observations"] == 4
        assert len(payload["encoded_best"]) == 15

    def test_ply_scene_input(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run(
            "generate-scene", "--scene", "single", "--config", tiny_config, "--out", str(out),
        ) == 0
        code = run(
            "plan", "--scene", str(out / "scene_single.ply"),
            "--config", tiny_config, "--out", str(out),
        )
        assert code == 0
        payload = read_json(out / "placement_scene_single.json")
        assert payload["scene"] == "scene_single"

    def test_smoke_budgets(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        code = run(
            "plan", "--scene", "single", "--config", tiny_config, "--out", str(out),
            "--smoke", "--candidates", "64",
        )
        assert code == 0
        lines = (out / "trace_single.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 + 30


class TestBaseline:
    def test_outputs(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        code = run(
            "baseline", "--scene", "single", "--seed", "4",
            "--config", tiny_config, "--out", str(out), "--candidates", "5",
        )
        assert code == 0
        payload = read_json(out / "baseline_single.json")
        assert len(payload["values"]) == 5
        assert len(payload["radii"]) == 5
        assert len(payload["heights"]) == 5
        assert payload["best_value"] == max(payload["values"])
        assert payload["final_simple_regret"] == 1.0 - payload["best_value"]
        assert len(payload["placement"]["cameras"]) == 2
        # baseline's --candidates sets the candidate count; the EI budget keeps
        # the config file's value.
        assert payload["config"]["baseline_candidates"] == 5
        assert payload["config"]["bo"]["af_budget"] == 32


class TestExperiment:
    def run_small(self, out, tiny_config, *extra):
        return run(
            "experiment", "--scenes", "single", "--kernels", "rbf",
            "--seed", "2", "--config", tiny_config, "--out", str(out), *extra,
        )

    def test_outputs_and_accounting(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert self.run_small(out, tiny_config) == 0

        lines = (out / "single_report.csv").read_text().splitlines()
        assert lines[0] == (
            "scene,kernel,realization,iteration,observed,running_best,simple_regret"
        )
        # 2 realizations x 6 BO rows, plus 2 x 4 baseline candidate rows
        assert len(lines) == 1 + 2 * 6 + 2 * 4
        kernels = {ln.split(",")[1] for ln in lines[1:]}
        assert kernels == {"rbf", "baseline"}

        mean_lines = (out / "single_mean_regret.csv").read_text().splitlines()
        assert mean_lines[0] == "scene,method,iteration,mean_simple_regret"
        assert len(mean_lines) == 1 + 2 * 2

        summary = read_json(out / "single_summary.json")
        assert summary["scene"] == "single"
        assert summary["kernels"] == ["rbf"]
        assert summary["errors"] == {}
        assert summary["tracebacks"] == {}
        assert len(summary["cells"]) == 2
        assert len(summary["baselines"]) == 2
        assert all(not cell["incomplete"] for cell in summary["cells"])

        console = capsys.readouterr().out
        assert "scene=single cells=4/4" in console
        assert "rbf: mean_final_regret=" in console

    def test_failed_cells_list_their_tracebacks(self, tmp_path, tiny_config, monkeypatch):
        def no_circle(*args, **kwargs):
            raise ValueError("no circle today")

        monkeypatch.setattr(planner, "circular_baseline", no_circle)
        out = tmp_path / "out"
        assert self.run_small(out, tiny_config) == 0
        summary = read_json(out / "single_summary.json")
        assert summary["errors"] == {
            "baseline/r0": "ValueError: no circle today",
            "baseline/r1": "ValueError: no circle today",
        }
        assert list(summary["tracebacks"]) == list(summary["errors"])
        assert all("in no_circle" in tb for tb in summary["tracebacks"].values())

    def test_rerun_is_byte_identical(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert self.run_small(out, tiny_config) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("single_report.csv", "single_mean_regret.csv", "single_summary.json")
        }
        assert self.run_small(out, tiny_config) == 0
        for name, body in first.items():
            assert (out / name).read_bytes() == body

    def test_smoke_single_realization(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert self.run_small(
            out, tiny_config, "--smoke", "--candidates", "32", "--kernels", "ard,rbf",
        ) == 0
        summary = read_json(out / "single_summary.json")
        assert summary["config"]["kernels"] == ["ard_rbf", "rbf"]
        assert len(summary["cells"]) == 2
        assert summary["config"]["bo"]["n_init"] == 10
        assert summary["config"]["bo"]["n_iters"] == 30


class TestConfig:
    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"bo": {"n_iter": 3}}, "n_iter"),
            ({"realisations": 2}, "realisations"),
            ({"bo": {"resample_noise": False}}, "resample_noise"),
            ({"noise": {"kind": "motion"}}, "kind"),
        ],
        ids=["in_section", "top_level", "resample_noise", "noise_kind"],
    )
    def test_unknown_key_is_rejected(self, tmp_path, capsys, payload, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = run("generate-scene", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"noise": {"shared_draw": "false"}}, "shared_draw"),
            ({"noise": {"shared_draw": 0}}, "shared_draw"),
        ],
        ids=["string", "integer"],
    )
    def test_non_bool_in_bool_field_is_rejected(self, tmp_path, capsys, payload, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = run("generate-scene", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert key in capsys.readouterr().err

    def test_config_kernels_resolve_the_alias(self, tmp_path, tiny_config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(read_json(tiny_config), kernels=["ard"], realizations=1)))
        out = tmp_path / "out"
        assert run("experiment", "--scenes", "single", "--config", str(cfg),
                   "--out", str(out)) == 0
        summary = read_json(out / "single_summary.json")
        assert summary["kernels"] == ["ard_rbf"]
        assert summary["config"]["kernels"] == ["ard_rbf"]

    @pytest.mark.parametrize("kernels", [["spline"], "rbf", []],
                             ids=["unknown", "not_a_list", "empty"])
    def test_bad_config_kernels_exit_before_writing(self, tmp_path, tiny_config, capsys,
                                                    kernels):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(read_json(tiny_config), kernels=kernels)))
        out = tmp_path / "out"
        assert run("experiment", "--scenes", "single", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert "'kernels'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("realizations", [2]),
            ("realizations", 1.7),
            ("realizations", "2"),
            ("realizations", True),
            ("baseline_candidates", 4.0),
            ("baseline_candidates", None),
            ("realization_id", "0"),
            ("realization_id", False),
        ],
        ids=["list", "float", "string", "bool", "whole_float", "null", "id_string", "id_bool"],
    )
    def test_non_integer_config_scalar_exits_before_writing(self, tmp_path, tiny_config,
                                                             capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(read_json(tiny_config), **{key: value})))
        out = tmp_path / "out"
        assert run("experiment", "--scenes", "single", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("bo", "n_iters", 2.9),
            ("bo", "n_iters", "2"),
            ("bo", "n_iters", True),
            ("bo", "n_init", 4.0),
            ("bo", "n_cameras", 2.5),
            ("bo", "rng_seed", "2"),
            ("noise", "sigma", "0.1"),
            ("noise", "sigma", True),
            ("space", "lower", ["-2.5", -2.5, 0.05]),
            ("space", "lower", [-2.5, -2.5, True]),
            ("space", "upper", [2.5, 2.5, None]),
            ("space", "upper", [2.5, 2.5]),
            ("noise", "direction", ["1", 0, 0]),
            ("noise", "direction", 1.0),
            ("noise", "direction", [1, 0, 0, 0]),
            ("noise", "direction", [[1], 0, 0]),
        ],
        ids=["float", "string", "bool", "whole_float", "cameras_float", "seed_string",
             "float_string", "float_bool", "lower_string", "lower_bool", "upper_null",
             "upper_short", "direction_string", "direction_scalar", "direction_long",
             "direction_nested"],
    )
    def test_bad_section_scalar_exits_before_writing(self, tmp_path, tiny_config, capsys,
                                                     section, key, value):
        payload = read_json(tiny_config)
        payload.setdefault(section, {})[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run("experiment", "--scenes", "single", "--config", str(cfg),
                   "--out", str(out)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_vector_of_strings_and_bools_exits_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "space": {"lower": ["-2.5", "-2.5", True]},
            "noise": {"direction": ["1", 0, 0]},
        }))
        out = tmp_path / "out"
        assert run("generate-scene", "--config", str(cfg), "--out", str(out)) == 1
        assert "must be a list of 3 numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, key, index",
        [
            ("plan", "noise", "sigma", None),
            ("plan", "space", "lower", 0),
            ("generate-scene", "scene", "plant_spacing", None),
            ("generate-scene", "noise", "direction", 2),
        ],
        ids=["plan_sigma", "plan_lower", "scene_spacing", "scene_direction"],
    )
    def test_integer_too_large_for_a_float_exits_before_writing(self, tmp_path, capsys,
                                                                command, section, key, index):
        huge = 10**400
        value = huge if index is None else [1.0, 1.0, 1.0]
        if index is not None:
            value[index] = huge
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert run(*argv, *(["--smoke"] if command == "plan" else [])) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "too large for a float" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"noise": {"sigma": 1e999}}', "sigma"),
            ('{"space": {"lower": [-2.5, NaN, 0.0]}}', "lower"),
            ('{"reward": {"fov": Infinity}}', "fov"),
        ],
        ids=["sigma_1e999", "lower_nan", "fov_infinity"],
    )
    def test_non_finite_float_exits_before_writing(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run("plan", "--smoke", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "must be finite" in err
        assert not out.exists()

    def test_int_in_float_field_echoes_as_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scene": {"plant_spacing": 1, "points_per_plant": 15},
            "noise": {"sigma": 0},
        }))
        out = tmp_path / "out"
        assert run("generate-scene", "--config", str(cfg), "--out", str(out)) == 0
        text = (out / "scene_single.json").read_text()
        assert '"plant_spacing": 1.0' in text
        assert '"sigma": 0.0' in text

    def test_echo_fed_back_reproduces_the_run(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        names = ("single_report.csv", "single_mean_regret.csv", "single_summary.json")
        assert run("experiment", "--scenes", "single", "--kernels", "rbf", "--seed", "2",
                   "--config", tiny_config, "--out", str(out)) == 0
        first = {name: (out / name).read_bytes() for name in names}
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(read_json(out / "single_summary.json")["config"]))
        assert run("experiment", "--scenes", "single", "--config", str(echo)) == 0
        for name, body in first.items():
            assert (out / name).read_bytes() == body

    def test_multi_scene_echo_fed_back_repeats_every_scene(self, tmp_path):
        # No camera or point count is set, so each scene takes its layout's own.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "bo": {"n_init": 4, "n_iters": 1, "af_budget": 16},
            "kernels": ["rbf"],
            "baseline_candidates": 2,
            "realizations": 1,
        }))
        out = tmp_path / "out"
        scenes = ("--scenes", "single,row3")
        assert run("experiment", *scenes, "--config", str(cfg), "--out", str(out)) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(first) == 6
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(read_json(out / "row3_summary.json")["config"]))
        assert run("experiment", *scenes, "--config", str(echo)) == 0
        for name, body in first.items():
            assert (out / name).read_bytes() == body, name


class TestHelp:
    @pytest.mark.parametrize(
        "command, flags",
        [
            (None, set()),
            ("generate-scene", {"--scene"}),
            ("plan", {"--scene", "--cameras", "--init", "--iters", "--noise-sigma",
                      "--candidates", "--smoke", "--kernel"}),
            ("baseline", {"--scene", "--cameras", "--noise-sigma", "--candidates"}),
            ("experiment", {"--scenes", "--cameras", "--kernels", "--init", "--iters",
                            "--noise-sigma", "--realizations", "--candidates", "--smoke"}),
        ],
        ids=["top_level", "generate-scene", "plan", "baseline", "experiment"],
    )
    def test_help_lists_the_flags(self, capsys, command, flags):
        assert run(*filter(None, [command]), "--help") == 0
        text = capsys.readouterr().out
        if command is None:
            for name in ("generate-scene", "plan", "baseline", "experiment"):
                assert name in text
        else:
            common = {"--help", "--config", "--seed", "--out"}
            assert set(re.findall(r"--[a-z-]+", text)) == common | flags
        if command == "plan":
            assert "ard}" in text


class TestBlasThreads:
    @pytest.mark.parametrize("given, expect", [(None, "1"), ("3", "3")], ids=["unset", "set"])
    def test_importing_the_package_first_pins_one_blas_thread(self, given, expect):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        env["PYTHONPATH"] = str(Path(viewplan.__file__).parents[1])
        code = "import os, viewplan, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == expect

    def test_plan_past_130_points_is_the_same_at_1_and_2_threads(self, tmp_path):
        # A GP of about 130 or more points gives different last bits at
        # different OpenBLAS thread counts, so the pin at import must hold.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": {"points_per_plant": 60}, "bo": {"refit_every": 50}}))
        out = tmp_path / "out"
        argv = ["plan", "--scene", "single", "--init", "10", "--iters", "140", "--seed", "4",
                "--config", str(cfg), "--out", str(out)]
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(viewplan.__file__).parents[1]))
            proc = subprocess.run([sys.executable, "-m", "viewplan.cli", *argv], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append((proc.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
            for f in out.iterdir():
                f.unlink()
        assert set(runs[0][1]) == {"placement_single.json", "trace_single.csv"}
        assert runs[0] == runs[1]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 1

    def test_bad_flag_value(self, capsys):
        assert run("plan", "--iters", "many") == 1

    def test_bad_kernel_choice(self, capsys):
        assert run("plan", "--kernel", "spline") == 1

    def test_too_few_cameras(self, tmp_path, tiny_config, capsys):
        code = run("plan", "--scene", "single", "--cameras", "1",
                   "--config", tiny_config, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_layout_in_experiment(self, tmp_path, tiny_config, capsys):
        code = run("experiment", "--scenes", "hexfield",
                   "--config", tiny_config, "--out", str(tmp_path / "o"))
        assert code == 1

    def test_scene_path_in_experiment(self, tmp_path, tiny_config, capsys):
        cfg = tmp_path / "cfg.json"
        payload = read_json(tiny_config)
        cfg.write_text(json.dumps(dict(payload, scene_path=str(tmp_path / "scene_single.ply"))))
        code = run("experiment", "--scenes", "single", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "scene_path" in capsys.readouterr().err

    def test_unknown_kernel_in_experiment(self, tmp_path, tiny_config, capsys):
        code = run("experiment", "--scenes", "single", "--kernels", "rbf,spline",
                   "--config", tiny_config, "--out", str(tmp_path / "o"))
        assert code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("plan", "--scene", "single",
                   "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_config_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run("plan", "--scene", "single", "--config", str(bad),
                   "--out", str(tmp_path / "o"))
        assert code == 1

    def test_config_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code = run("plan", "--scene", "single", "--config", str(bad),
                   "--out", str(tmp_path / "o"))
        assert code == 1

    # (PLY text or None for a valid scene, sidecar text or None for no sidecar)
    MALFORMED_SCENES = {
        "not-a-ply": ("hello\n", None),
        "sidecar-list": (None, "[1, 2]"),
        "ranges-number": (None, '{"plant_ranges": 5}'),
        "range-null": (None, '{"plant_ranges": [[0, null]]}'),
    }

    @pytest.mark.parametrize("name", list(MALFORMED_SCENES))
    def test_malformed_ply_scene(self, tmp_path, tiny_config, capsys, name):
        ply, sidecar = self.MALFORMED_SCENES[name]
        bad = tmp_path / "bad.ply"
        if ply is None:
            write_ply(bad, generate_scene(SceneSpec(layout="single", points_per_plant=10)))
        else:
            bad.write_text(ply)
        if sidecar is not None:
            bad.with_suffix(".json").write_text(sidecar)
        out = tmp_path / "o"
        code = run("plan", "--scene", str(bad), "--config", tiny_config, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert not out.exists()

    def test_missing_ply_scene(self, tmp_path, tiny_config, capsys):
        code = run("plan", "--scene", str(tmp_path / "ghost.ply"),
                   "--config", tiny_config, "--out", str(tmp_path / "o"))
        assert code == 2

    def test_unsupported_noise_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"kind": "gaussian"}}))
        code = run("plan", "--scene", "single", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
        assert code == 1
