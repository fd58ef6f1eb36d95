import hashlib
import json

import numpy as np
import pytest

from conftest import unit_cube

from rblkit.bounds import fim_batch
from rblkit.cli import main
from rblkit.harness import derive_seed, load_scenario


@pytest.fixture
def tiny_configs(tmp_path):
    scenario = {
        "conformation": {
            "points": [
                [x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
            ]
        },
        "anchors": {
            "points": [
                [x, y, z] for x in (-1.5, 1.5) for y in (-1.5, 1.5) for z in (-1.5, 1.5)
            ]
        },
        "pose_distribution": {
            "rotation": "uniform",
            "translation_box": [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]],
        },
        "noise": {"range_sigma": 0.1},
        "measurements": ["range", "range_rate"],
    }
    experiment = {
        "sigma_grid": [0.05, 0.2],
        "trials": 3,
        "master_seed": 9,
        "estimators": ["mds", "nls"],
    }
    s_path = tmp_path / "scenario.json"
    e_path = tmp_path / "experiment.json"
    s_path.write_text(json.dumps(scenario))
    e_path.write_text(json.dumps(experiment))
    return str(s_path), str(e_path)


class TestBenchmarkCommand:
    def test_runs_and_writes_csv(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        out = tmp_path / "out"
        code = main(["benchmark", "--scenario", s, "--experiment", e, "--out", str(out)])
        assert code == 0
        text = (out / "benchmark.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("sigma,estimator,")
        assert len(lines) == 1 + 2 * 2  # two sigmas x two estimators

    def test_bitwise_identical_reruns(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--scenario", s, "--experiment", e, "--out", str(out1)]) == 0
        assert main(["benchmark", "--scenario", s, "--experiment", e, "--out", str(out2)]) == 0
        assert (out1 / "benchmark.csv").read_bytes() == (out2 / "benchmark.csv").read_bytes()

    def test_seed_override_changes_output(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["benchmark", "--scenario", s, "--experiment", e, "--out", str(out1)])
        main(
            ["benchmark", "--scenario", s, "--experiment", e, "--seed", "77", "--out", str(out2)]
        )
        assert (out1 / "benchmark.csv").read_text() != (out2 / "benchmark.csv").read_text()

    def test_json_format(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        out = tmp_path / "out"
        code = main(
            [
                "benchmark",
                "--scenario", s,
                "--experiment", e,
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads((out / "benchmark.json").read_text())
        assert len(rows) == 4
        assert {"sigma", "estimator", "rmse_translation_m"} <= set(rows[0])

    def test_missing_experiment_is_config_error(self, tiny_configs, tmp_path, capsys):
        s, _ = tiny_configs
        code = main(["benchmark", "--scenario", s, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "config error" in capsys.readouterr().err


    def test_unknown_key_is_config_error(self, tiny_configs, tmp_path, capsys):
        s, _ = tiny_configs
        e = tmp_path / "typo.json"
        e.write_text(json.dumps({"sigma_grid": [0.1], "trails": 3}))
        code = main(["benchmark", "--scenario", s, "--experiment", str(e), "--out", str(tmp_path)])
        assert code == 1
        assert "trails: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_fully_blocked_sweep_succeeds(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        with open(s) as f:
            doc = json.load(f)
        doc["blockage"] = {"kind": "bernoulli", "p": 1.0}
        blocked = tmp_path / "blocked.json"
        blocked.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["benchmark", "--scenario", str(blocked), "--experiment", e, "--out", str(out)]) == 0
        rows = (out / "benchmark.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4 and all(row.endswith(",3,3") for row in rows)


class TestSimulateAndEstimate:
    def test_simulate_writes_measurements(self, tiny_configs, tmp_path):
        s, _ = tiny_configs
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", s, "--sigma", "0.05", "--out", str(out)]) == 0
        doc = json.loads((out / "measurements.json").read_text())
        assert doc["sigma"] == 0.05
        assert doc["edm"]["n_anchors"] == 8
        assert len(doc["measurements"]["mask"]) == 8

    def test_estimate_trace(self, tiny_configs, tmp_path):
        s, _ = tiny_configs
        out = tmp_path / "out"
        code = main(
            [
                "estimate",
                "--scenario", s,
                "--sigma", "0.05",
                "--estimator", "gabp",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "trace.json").read_text())
        assert doc["estimate"]["method_tag"] == "gabp"
        assert doc["failure"] is None
        assert doc["errors"]["translation_m"] < 0.5

    def test_estimate_replays_bitwise(self, tiny_configs, tmp_path):
        s, _ = tiny_configs
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["estimate", "--scenario", s, "--seed", "5", "--out", str(out)])
            outs.append((out / "trace.json").read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_traces_the_experiments_first_trial(self, tiny_configs, tmp_path):
        # Without --seed the trace is the sweep's first trial under the
        # experiment's master seed (9), not under the default one.
        s, e = tiny_configs
        out = tmp_path / "out"
        assert main(["estimate", "--scenario", s, "--experiment", e, "--out", str(out)]) == 0
        doc = json.loads((out / "trace.json").read_text())
        assert doc["seed"] == derive_seed(9, 11, 0, 0)
        assert main(["estimate", "--scenario", s, "--experiment", e, "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "trace.json").read_text())["seed"] == derive_seed(3, 11, 0, 0)


class TestScenarioValues:
    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("noise", {"range_sigma": -1}, "noise.range_sigma"),
            ("anchors", {"points": [[3, 0, 0], [0, 3, 0], [3, 0, 0]]}, "anchors"),
            ("measurements", ["range", "rnage"], "measurements"),
            ("pose_distribution", {"translation_box": [[0, 1, 2]] * 3},
             "pose_distribution.translation_box"),
        ],
        ids=["negative-sigma", "duplicate-anchors", "unknown-kind", "box-rows-not-pairs"],
    )
    def test_out_of_domain_value_is_config_error(
        self, tiny_configs, tmp_path, capsys, section, value, field
    ):
        s, _ = tiny_configs
        with open(s) as f:
            doc = json.load(f)
        doc[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "measurements.json").exists()


class TestMalformedDocuments:
    """A value that does not convert is a config error on its dotted field,
    not a traceback."""

    FLAT = [[0, 0], [1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "section, value, field, message",
        [
            ("conformation", {"points": FLAT}, "conformation", "nodes must be (K, 3), got (3, 2)"),
            ("anchors", {"body": {"points": FLAT}}, "anchors.body",
             "nodes must be (K, 3), got (3, 2)"),
            ("conformation", {"file": "bad.txt"}, "conformation", "line 2: expected 3 values"),
            ("anchors", {"points": [["a", 0, 0], [1, 0, 0], [0, 1, 0]]}, "anchors",
             "refused str 'a'"),
            ("noise", {"range_sigma": "abc"}, "noise.range_sigma", "refused str 'abc'"),
            ("blockage", {"kind": "bernoulli", "p": "abc"}, "blockage.p", "refused str 'abc'"),
            ("pose_distribution", {"translation_box": [["a", 1]] * 3},
             "pose_distribution.translation_box", "refused str 'a'"),
            ("pose", {"rotation": "abc", "translation": [0, 0, 0]}, "pose.rotation",
             "refused str 'abc'"),
            ("pose", {"rotation": np.eye(3).tolist(), "translation": ["a", 0, 0]},
             "pose.translation", "refused str 'a'"),
            ("measurements", "range", "measurements", "refused str 'range'"),
            ("pose_distribution", {"translation_box": [[-np.inf, np.inf], [0, 0], [0, 0]]},
             "pose_distribution.translation_box", "translation box needs finite low <= high"),
            ("pose_distribution", {"translation_box": [[np.nan, 0], [0, 0], [0, 0]]},
             "pose_distribution.translation_box", "translation box needs finite low <= high"),
            ("pose_distribution", {"translation_box": [["0", 1], [0, 1], [0, 1]]},
             "pose_distribution.translation_box", "refused str '0'"),
        ],
        ids=["flat-points", "flat-body", "bad-point-line", "text-point", "text-sigma",
             "text-p", "text-box", "text-rotation", "text-translation", "text-measurements",
             "infinite-box", "nan-box", "text-box-entry"],
    )
    def test_scenario_value(self, tiny_configs, tmp_path, capsys, section, value, field, message):
        s, _ = tiny_configs
        with open(s) as f:
            doc = json.load(f)
        if section == "pose":  # a scenario takes exactly one of the two
            del doc["pose_distribution"]
        doc[section] = value
        (tmp_path / "bad.txt").write_text("0 0 0\n1 0\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["crlb", "--scenario", str(bad), "--sigma", "0.1", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"rblkit: config error: {field}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [("sigma_grid", [0.1, "abc"], "refused str 'abc'"),
         ("sigma_grid", 0.1, "'float' object is not iterable"),
         ("trials", "abc", "refused str 'abc'"),
         ("master_seed", "x", "refused str 'x'"),
         ("sigma_grid", "15", "refused str '15'"),
         ("sigma_grid", [0.1, float("nan")], "sigma grid must be nonempty, finite and positive"),
         ("sigma_grid", [float("inf")], "sigma grid must be nonempty, finite and positive"),
         ("trials", 2.7, "'float' object cannot be interpreted as an integer"),
         ("master_seed", 2.5, "'float' object cannot be interpreted as an integer"),
         ("master_seed", -1, "must be an unsigned 64-bit integer, got -1"),
         ("master_seed", 2**64 + 5,
          "must be an unsigned 64-bit integer, got 18446744073709551621"),
         ("trials", True, "refused bool True"),
         ("completion", "no", "expected a bool"),
         ("estimators", "nls", "refused str 'nls'"),
         ("estimators", ["nls", "gabp", "nls"], "repeated estimators in ['nls', 'gabp', 'nls']")],
        ids=["text-sigma", "scalar-grid", "text-trials", "text-seed", "text-grid", "nan-grid",
             "infinite-grid",
             "float-trials", "float-seed", "negative-seed", "aliasing-seed", "bool-trials",
             "text-completion",
             "text-estimators", "repeated-estimators"],
    )
    def test_experiment_value(self, tiny_configs, tmp_path, capsys, key, value, message):
        s, e = tiny_configs
        with open(e) as f:
            doc = json.load(f)
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["benchmark", "--scenario", s, "--experiment", str(bad), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert f"rblkit: config error: {key}: {message}" in capsys.readouterr().err


class TestCrlbCommand:
    def test_csv_output(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        out = tmp_path / "out"
        assert main(["crlb", "--scenario", s, "--experiment", e, "--out", str(out)]) == 0
        lines = (out / "crlb.csv").read_text().strip().split("\n")
        assert lines[0] == "sigma,crlb_translation_m2,crlb_rotation_rad2,condition_number"
        assert len(lines) == 3

    def test_preset_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["crlb", "--preset", "fig4", "--seed", "2", "--out", str(out)]) == 0
        assert (out / "crlb.csv").exists()


    def test_sigma_overrides_the_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["crlb", "--preset", "fig4", "--sigma", "0.05", "--out", str(out)]) == 0
        lines = (out / "crlb.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("0.05,")


def aoa_scenario(tmp_path, noise):
    """A unit cube ranged from the corners of a side-3 cube, with AoA measured."""
    doc = {
        "conformation": {"points": unit_cube().nodes.tolist()},
        "anchors": {"points": (3.0 * unit_cube().nodes).tolist()},
        "pose_distribution": {"rotation": "uniform"},
        "noise": noise,
        "measurements": ["range", "aoa"],
    }
    path = tmp_path / "aoa.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAngleScenarios:
    def test_crlb_is_the_aoa_fim(self, tmp_path):
        # `rblkit crlb` bounds the scenario's measured angles too, exactly as
        # fim_batch (the benchmark's bound) does at the same pose.
        s = aoa_scenario(tmp_path, {"angle_sigma": 0.01})
        out = tmp_path / "out"
        args = ["crlb", "--scenario", s, "--sigma", "0.05", "--seed", "3", "--format", "json"]
        assert main(args + ["--out", str(out)]) == 0
        (doc,) = json.loads((out / "crlb.json").read_text())
        scenario = load_scenario(s)
        pose = scenario.sample_pose(np.random.default_rng(derive_seed(3, 1)))
        mask = np.ones((1, 8, 8), dtype=bool)
        nodes, anchors = scenario.conformation.nodes, scenario.anchors.anchors
        args = (anchors, nodes, pose.rotation[None], pose.translation[None], mask, [0.05])
        batch = fim_batch(*args, [0.01])
        assert doc["crlb_translation_m2"] == batch.translation_bound[0]
        assert doc["crlb_rotation_rad2"] == batch.rotation_bound[0]
        assert doc["crlb_translation_m2"] < fim_batch(*args).translation_bound[0]

    def test_benchmark_refuses_noiseless_angles(self, tiny_configs, tmp_path, capsys):
        s = aoa_scenario(tmp_path, {"range_sigma": 0.1})
        e = tiny_configs[1]
        assert main(["benchmark", "--scenario", s, "--experiment", e, "--out", str(tmp_path)]) == 1
        assert "noise.angle_sigma" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()


def cube_frame(timestamp, anchors=8, flag=True, value=1.0):
    """A --trajectory frame document: every range 1 m on an anchors x 8 grid, but
    the first mask entry is `flag` and the first range `value`."""
    mask = [[flag] + [True] * 7] + [[True] * 8] * (anchors - 1)
    ranges = [[value] + [1.0] * 7] + [[1.0] * 8] * (anchors - 1)
    return {"timestamp": timestamp, "measurements": {"mask": mask, "ranges": ranges}}


class TestTrackCommand:
    @pytest.mark.parametrize("twist", ["a,b", "nan,0,0,0,0,0"], ids=["text", "nan"])
    def test_malformed_twist(self, tiny_configs, tmp_path, capsys, twist):
        argv = ["track", "--scenario", tiny_configs[0], "--twist", twist, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "rblkit: config error: twist:" in capsys.readouterr().err

    def test_synthesized_trajectory(self, tiny_configs, tmp_path):
        s, _ = tiny_configs
        out = tmp_path / "out"
        code = main(
            [
                "track",
                "--scenario", s,
                "--sigma", "0.01",
                "--twist", "0,0,0.1,0.5,0,0",
                "--frames", "4",
                "--dt", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "track.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("timestamp,")

    def test_trajectory_file_input(self, tiny_configs, tmp_path):
        s, _ = tiny_configs
        from rblkit.harness import generate_trajectory, load_scenario
        from rblkit.geometry import Twist

        scenario = load_scenario(s)
        frames, _ = generate_trajectory(scenario, Twist([0, 0, 0.1], [1, 0, 0]), 3, 0.1, 0.01, 1)
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps([f.to_json_dict() for f in frames]))
        out = tmp_path / "out"
        code = main(
            [
                "track",
                "--scenario", s,
                "--trajectory", str(traj),
                "--sigma", "0.01",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "track.json").read_text())
        assert len(doc) == 3
        assert doc[0]["error"] is None

    @pytest.mark.parametrize(
        "doc, message",
        [([{"timestamp": 0.1}], "frame 0: missing key 'measurements'"),
         ({"a": 1}, "expected a list of frames, got dict"),
         ([{"timestamp": 0.0, "measurements": {"mask": [[True]], "ranges": [[1.0]]}}, 5],
          "frame 1: expected an object, got int"),
         ([{"timestamp": 0.1, "measurements": {"mask": [[True]], "ranges": [[-1.0]]}}],
          "frame 0: observed ranges must be nonnegative"),
         ([{"timestamp": 0.1, "measurements": {"ranges": [[1.0]]}}],
          "frame 0: missing key 'mask'"),
         ([cube_frame(0.2), cube_frame(0.1)], "frame 1: timestamp 0.1 is not after frame 0's"),
         ([cube_frame(0.1), cube_frame(0.2, anchors=1)],
          "frame 1: measurements are (1, 8), not (anchors, nodes) (8, 8)"),
         ([cube_frame(float("nan"))], "frame 0: timestamp must be finite, got nan"),
         ([cube_frame(0.1), {"timestamp": 0.2, "measurements": {
             "mask": [[True] * 8] * 8, "ranges": [[None] + [1.0] * 7] + [[1.0] * 8] * 7}}],
          "frame 1: observed ranges must be finite"),
         ([cube_frame(True)], "frame 0: refused bool True"),
         ([cube_frame("1.5")], "frame 0: refused str '1.5'"),
         ([cube_frame(0.1, flag="no")], "frame 0: mask entries must be true or false, got 'no'"),
         ([cube_frame(0.1, flag=2)], "frame 0: mask entries must be true or false, got 2"),
         ([cube_frame(0.1, flag=0.5)], "frame 0: mask entries must be true or false, got 0.5"),
         ([cube_frame(0.1, value="1.0")], "frame 0: refused str '1.0'"),
         ([cube_frame(0.1, value=True)], "frame 0: refused bool True")],
        ids=["no-measurements", "object", "number-frame", "negative-range", "no-mask",
             "stale-timestamp", "wrong-grid", "nan-timestamp", "null-range", "bool-timestamp",
             "text-timestamp", "text-flag", "number-flag", "fraction-flag", "text-range",
             "bool-range"],
    )
    def test_malformed_trajectory(self, tiny_configs, tmp_path, capsys, doc, message):
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps(doc))
        argv = ["track", "--scenario", tiny_configs[0], "--trajectory", str(traj),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"rblkit: config error: --trajectory: {message}\n"


def line_edm(n_anchors=2, flag=True, value=1.0):
    """An --edm document of four points on a line, two of them anchors, but with
    the (0, 1) known flag `flag` and squared distance `value`, both ways."""
    known = [[True] * 4 for _ in range(4)]
    d = ((np.arange(4.0)[:, None] - np.arange(4.0)) ** 2).tolist()
    known[0][1] = known[1][0] = flag
    d[0][1] = d[1][0] = value
    return {"n_anchors": n_anchors, "known_mask": known, "squared_distances": d}


class TestCompleteCommand:
    def test_completes_simulated_edm(self, tmp_path):
        scenario = {
            "conformation": {
                "points": [
                    [x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
                ]
            },
            "anchors": {
                "points": [
                    [x, y, z] for x in (-1.5, 1.5) for y in (-1.5, 1.5) for z in (-1.5, 1.5)
                ]
            },
            "pose_distribution": {"rotation": "uniform"},
            "blockage": {"kind": "bernoulli", "p": 0.3},
        }
        s_path = tmp_path / "scenario.json"
        s_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(
            ["simulate", "--scenario", str(s_path), "--sigma", "0.001", "--out", str(out)]
        ) == 0
        code = main(
            ["complete", "--edm", str(out / "measurements.json"),
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "completion.json").read_text())
        assert doc["converged"] is True
        mask = np.asarray(doc["completed"]["known_mask"])
        assert mask.all()

    def test_non_finite_entry_refused(self, tmp_path, capsys):
        # A document's Infinity is a known squared distance no EDM can hold.
        d = (np.arange(4.0)[:, None] - np.arange(4.0)) ** 2
        d[0, 3] = d[3, 0] = np.inf
        doc = {"n_anchors": 2, "known_mask": [[True] * 4] * 4, "squared_distances": d.tolist()}
        (tmp_path / "edm.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["complete", "--edm", str(tmp_path / "edm.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "rblkit: config error: --edm: known squared distances must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [({"n_anchors": 1, "squared_distances": [[0, 1], [1, 0]]}, "missing key 'known_mask'"),
         ({"known_mask": [[True]], "squared_distances": [[0]]}, "missing key 'n_anchors'"),
         (5, "expected an object, got int"),
         ({"edm": [1, 2]}, "expected an object, got list"),
         (line_edm(n_anchors=2.5), "'float' object cannot be interpreted as an integer"),
         (line_edm(n_anchors=True), "refused bool True"),
         (line_edm(n_anchors="1"), "refused str '1'"),
         (line_edm(flag=1), "mask entries must be true or false, got 1"),
         (line_edm(value="1.0"), "refused str '1.0'"),
         (line_edm(value=True), "refused bool True"),
         (line_edm() | {"squared_distances": 0},
          "squared_distances and known_mask must be square and same shape")],
        ids=["no-mask", "no-anchors", "number", "list-edm", "fraction-anchors", "bool-anchors",
             "text-anchors", "number-flag", "text-value", "bool-value", "number-grid"],
    )
    def test_malformed_document(self, tmp_path, capsys, doc, message):
        (tmp_path / "edm.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["complete", "--edm", str(tmp_path / "edm.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"rblkit: config error: --edm: {message}\n"
        assert not out.exists()

    def test_bad_file_errors(self, tmp_path, capsys):
        code = main(["complete", "--edm", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestNumericFlags:
    """A numeric flag outside its domain is a config error on that flag,
    not a traceback or a silent result."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["track", "--dt", "0"], "--dt", "0.0"),
            (["track", "--dt", "-0.1"], "--dt", "-0.1"),
            (["track", "--frames", "0"], "--frames", "0"),
            (["track", "--frames", "-3"], "--frames", "-3"),
            (["crlb", "--sigma", "0"], "--sigma", "0.0"),
            (["crlb", "--sigma", "nan"], "--sigma", "nan"),
            (["estimate", "--sigma", "0"], "--sigma", "0.0"),
        ],
        ids=["zero-dt", "negative-dt", "zero-frames", "negative-frames", "zero-sigma",
             "nan-sigma", "estimate-zero-sigma"],
    )
    def test_refused(self, tiny_configs, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "out"
        assert main(argv + ["--scenario", tiny_configs[0], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"rblkit: config error: {flag}: must be finite and > 0, got {value}\n"
        assert not out.exists() or not any(out.iterdir())

    def test_negative_max_iters_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        edm = tmp_path / "edm.json"
        assert main(["simulate", "--preset", "fig5", "--out", str(out)]) == 0
        (out / "measurements.json").rename(edm)
        capsys.readouterr()
        assert main(["complete", "--edm", str(edm), "--max-iters", "-5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "rblkit: config error: --max-iters: must be finite and > 0, got -5\n"
        assert not (out / "completion.json").exists()


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["benchmark", "--preset", "fig9", "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "--preset", "fig5", "--edm", "measurements.json"],
            ["complete", "--seed", "3", "--edm", "measurements.json"],
            ["simulate", "--preset", "fig4", "--format", "csv"],
            ["estimate", "--preset", "fig4", "--format", "json"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())


class TestSeedRange:
    """A seed outside [0, 2**64) is refused: seeds fold modulo 2**64, so
    -1 and 2**64 - 1, or 5 and 2**64 + 5, would run the same trials."""

    @pytest.mark.parametrize("command", ["simulate", "benchmark", "track", "crlb"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_flag(self, tiny_configs, tmp_path, capsys, command, seed):
        s, e = tiny_configs
        out = tmp_path / "out"
        argv = [command, "--scenario", s, "--experiment", e, "--seed", str(seed)]
        assert main(argv + ["--out", str(out)]) == 1
        message = f"--seed: must be an unsigned 64-bit integer, got {seed}"
        assert capsys.readouterr().err == f"rblkit: config error: {message}\n"
        assert not out.exists()

    def test_largest_seed_runs(self, tiny_configs, tmp_path):
        s, e = tiny_configs
        argv = ["simulate", "--scenario", s, "--seed", str(2**64 - 1), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "measurements.json").read_text())["seed"] == 2**64 - 1


# sha256 of the five preset outputs: a change that moves one bit of a sweep or
# of a track, at any BLAS thread count, shows here.
TRACK = ["track", "--preset", "fig4", "--seed", "7", "--format", "json", "--estimator"]
PRESET_DIGESTS = {
    "fig4": (
        ["benchmark", "--preset", "fig4", "--seed", "7"], "benchmark.csv",
        "4e7c139b4a062a26438b232a8b288335d1f61470dfeb0884fcad4287abed98aa",
    ),
    "fig5": (
        ["benchmark", "--preset", "fig5", "--seed", "7"], "benchmark.csv",
        "479b3db2f1a664681bd6e97767301c76801b0e1a35390e1669d011787ac84dd6",
    ),
    "track-nls": (
        TRACK + ["nls"], "track.json",
        "a6fc5bb7c99b1c21a62dbb2b99ee9cbac919e70f04d9885799aede74ef2bfc50",
    ),
    "track-mds": (
        TRACK + ["mds"], "track.json",
        "a45b4b598754e12802a35e5328ccb4208aafba47708d98158f3a6d1eebae2e2f",
    ),
    "track-gabp": (
        TRACK + ["gabp"], "track.json",
        "88a191cba77c6307551a3797d5b044403813e97810034377e99e81ee79551c55",
    ),
}


@pytest.mark.parametrize("run", PRESET_DIGESTS)
def test_preset_output_digest(run, tmp_path):
    args, name, digest = PRESET_DIGESTS[run]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
