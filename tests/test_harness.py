import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rblkit.estimators
from rblkit.errors import ConfigError
from rblkit.geometry import Pose, Twist
from rblkit.harness import (
    ESTIMATOR_TAGS,
    BlockageSpec,
    ExperimentConfig,
    PoseDistribution,
    ScenarioConfig,
    derive_seed,
    experiment_from_dict,
    generate_trajectory,
    load_scenario,
    preset,
    rows_to_csv,
    run_benchmark,
    run_scenario_once,
    run_trial_estimators,
    scenario_from_dict,
    splitmix64,
)
from rblkit.harness import _run_trials


def small_scenario(**overrides):
    scenario, _ = preset("fig4")
    fields = dict(
        conformation=scenario.conformation,
        anchors=scenario.anchors,
        noise=scenario.noise,
        pose=None,
        pose_distribution=scenario.pose_distribution,
        blockage=scenario.blockage,
        measurement_kinds=scenario.measurement_kinds,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def small_experiment(**overrides):
    fields = dict(
        sigma_grid=(0.05, 0.2),
        trials=4,
        master_seed=42,
        estimators=("mds", "nls", "gabp"),
        completion=True,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestSeeds:
    def test_splitmix_known_not_identity(self):
        assert splitmix64(0) != 0
        assert splitmix64(1) != splitmix64(2)

    def test_derive_seed_deterministic_and_sensitive(self):
        assert derive_seed(7, 11, 0, 3) == derive_seed(7, 11, 0, 3)
        assert derive_seed(7, 11, 0, 3) != derive_seed(7, 11, 0, 4)
        assert derive_seed(7, 11, 1, 3) != derive_seed(7, 11, 0, 3)
        assert derive_seed(8, 11, 0, 3) != derive_seed(7, 11, 0, 3)

    def test_derive_seed_in_u64(self):
        s = derive_seed(2**63 + 11, 5)
        assert 0 <= s < 2**64


class TestConfigs:
    def test_pose_distribution_sampling(self):
        rng = np.random.default_rng(1)
        dist = PoseDistribution("yaw", (-1, -2, 0), (1, 2, 0.5))
        for _ in range(20):
            pose = dist.sample(rng)
            assert -1 <= pose.translation[0] <= 1
            assert abs(pose.rotation[2, 2] - 1.0) < 1e-12  # yaw keeps +z fixed
        ident = PoseDistribution("none").sample(rng)
        assert np.array_equal(ident.rotation, np.eye(3))

    def test_scenario_requires_exactly_one_pose_source(self):
        with pytest.raises(ConfigError):
            small_scenario(pose=Pose.identity())  # distribution also set
        with pytest.raises(ConfigError):
            small_scenario(pose=None, pose_distribution=None)

    def test_experiment_validation(self):
        with pytest.raises(ConfigError):
            small_experiment(sigma_grid=())
        with pytest.raises(ConfigError):
            small_experiment(trials=0)
        with pytest.raises(ConfigError):
            small_experiment(estimators=("mds", "bogus"))

    def test_blockage_spec_validation(self):
        with pytest.raises(ConfigError):
            BlockageSpec(kind="bernoulli", p=1.5)
        with pytest.raises(ConfigError):
            BlockageSpec(kind="sometimes")

    def test_scenario_from_dict_diagnostics(self):
        with pytest.raises(ConfigError, match="conformation"):
            scenario_from_dict({"anchors": {"points": [[0, 0, 0]]}})
        doc = {
            "conformation": {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "anchors": {"points": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [3, 3, 3]]},
        }
        with pytest.raises(ConfigError, match="pose"):
            scenario_from_dict(doc)

    def test_scenario_file_round_trip(self, tmp_path):
        points = tmp_path / "body.txt"
        points.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
        doc = {
            "conformation": {"file": "body.txt"},
            "anchors": {"points": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [3, 3, 3]]},
            "pose": {"rotation": np.eye(3).tolist(), "translation": [0.5, 0, 0]},
            "noise": {"range_sigma": 0.1, "seed": 3},
            "blockage": {"kind": "bernoulli", "p": 0.25},
            "measurements": ["range"],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        assert scenario.conformation.num_nodes == 4
        assert scenario.blockage.kind == "bernoulli"
        assert scenario.pose is not None

    def test_missing_points_file(self, tmp_path):
        doc = {
            "conformation": {"file": "nope.txt"},
            "anchors": {"points": [[3, 0, 0]]},
            "pose": {"rotation": np.eye(3).tolist(), "translation": [0, 0, 0]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="nope.txt"):
            load_scenario(path)

    def test_invalid_json_line_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'bad': 1\n}\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_scenario(path)

    def test_experiment_from_dict_defaults(self):
        exp = experiment_from_dict({"sigma_grid": [0.1], "trials": 7})
        assert exp.estimators == ("mds", "nls", "gabp")
        assert exp.completion is True


class TestPresets:
    def test_fig4_shape(self):
        scenario, experiment = preset("fig4")
        assert scenario.conformation.num_nodes == 8
        assert scenario.anchors.num_anchors == 8
        assert len(experiment.sigma_grid) == 6
        assert experiment.sigma_grid[0] == pytest.approx(1e-3)
        assert experiment.sigma_grid[-1] == pytest.approx(1.0)
        assert experiment.trials == 1000
        assert experiment.estimators == ("mds", "nls", "gabp")

    def test_fig5_shape(self):
        scenario, experiment = preset("fig5")
        assert scenario.blockage.kind == "bernoulli"
        assert scenario.blockage.p == pytest.approx(0.2)
        assert scenario.conformation.num_nodes == 8
        assert 0.1 in [pytest.approx(s) for s in experiment.sigma_grid]
        assert experiment.trials == 500

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig6")


class TestRunBenchmark:
    def test_deterministic_csv(self):
        scenario = small_scenario()
        experiment = small_experiment()
        a = rows_to_csv(run_benchmark(scenario, experiment))
        b = rows_to_csv(run_benchmark(scenario, experiment))
        assert a == b

    def test_sigma_to_zero_limit(self):
        scenario = small_scenario()
        experiment = small_experiment(sigma_grid=(1e-6,), trials=3)
        rows = run_benchmark(scenario, experiment)
        for row in rows:
            assert row.failures == 0
            assert row.rmse_translation_m < 1e-4
            assert row.rmse_rotation_deg < 1e-4

    def test_row_layout_and_header(self):
        scenario = small_scenario()
        experiment = small_experiment(sigma_grid=(0.1,), trials=2, estimators=("mds",))
        text = rows_to_csv(run_benchmark(scenario, experiment))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "sigma,estimator,rmse_translation_m,rmse_rotation_deg,"
            "crlb_translation_m,crlb_rotation_deg,trials,failures"
        )
        fields = lines[1].split(",")
        assert fields[0] == "0.1" and fields[1] == "mds"
        assert int(fields[6]) == 2

    @pytest.mark.parametrize(
        "blockage, estimators, body",
        [
            (
                BlockageSpec(),
                ("mds", "nls"),
                "0.05,mds,0.0257920837319,1.35727556401,0.0187542792902,1.5307072612,2,0\n"
                "0.05,nls,0.0190811277024,1.14445216388,0.0187542792902,1.5307072612,2,0\n",
            ),
            (
                BlockageSpec(kind="bernoulli", p=0.2),
                ("mds", "nls", "gabp"),
                "0.05,mds,0.0301790078683,2.1309655277,0.0220823220682,1.82237936126,2,0\n"
                "0.05,nls,0.0226994434137,1.81805566796,0.0220823220682,1.82237936126,2,0\n"
                "0.05,gabp,0.0348298870294,1.39710556955,0.0220823220682,1.82237936126,2,0\n",
            ),
            (
                BlockageSpec(kind="hull"),
                ("mds", "nls", "gabp"),
                "0.05,mds,0.0167776467542,1.30649834605,0.022252289804,1.6475984787,2,0\n"
                "0.05,nls,0.0116486175292,1.18381867263,0.022252289804,1.6475984787,2,0\n"
                "0.05,gabp,0.0284302194567,1.66291685525,0.022252289804,1.6475984787,2,0\n",
            ),
        ],
        ids=["full", "bernoulli", "hull"],
    )
    def test_golden_csv(self, blockage, estimators, body):
        # Frozen output: any change to column order, float formatting, the
        # seed derivation, or the per-trial estimator pipeline shows up here.
        scenario = small_scenario(blockage=blockage)
        experiment = small_experiment(
            sigma_grid=(0.05,), trials=2, estimators=estimators, master_seed=11
        )
        expected = (
            "sigma,estimator,rmse_translation_m,rmse_rotation_deg,"
            "crlb_translation_m,crlb_rotation_deg,trials,failures\n" + body
        )
        assert rows_to_csv(run_benchmark(scenario, experiment)) == expected

    def test_mds_and_nls_share_one_completion(self, monkeypatch):
        calls = []
        complete_batch = rblkit.estimators.complete_batch

        def counting(d, *args, **kwargs):
            calls.append(len(d))
            return complete_batch(d, *args, **kwargs)

        monkeypatch.setattr(rblkit.estimators, "complete_batch", counting)
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.2))
        experiment = small_experiment(trials=3, estimators=("mds", "nls"))
        run_benchmark(scenario, experiment)
        # One completed EDM per trial, every trial of the sweep in one batch.
        assert calls == [len(experiment.sigma_grid) * experiment.trials]

    def test_estimators_share_trial_draws(self):
        # The CRLB columns are identical across estimator rows at each sigma,
        # which only holds when trials are paired.
        scenario = small_scenario()
        rows = run_benchmark(scenario, small_experiment())
        by_sigma = {}
        for row in rows:
            by_sigma.setdefault(row.sigma, set()).add(
                (row.crlb_translation_m, row.crlb_rotation_deg)
            )
        for values in by_sigma.values():
            assert len(values) == 1

    def test_blockage_failures_reported_not_raised(self):
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.9))
        experiment = small_experiment(sigma_grid=(0.1,), trials=5, estimators=("mds",))
        rows = run_benchmark(scenario, experiment)
        assert rows[0].failures > 0
        assert rows[0].failures <= rows[0].trials


def outcome_bits(outcome):
    """Everything a trial outcome reports, as a key equal only bit for bit."""
    est, crlb, comp = outcome.estimate, outcome.crlb, outcome.completion
    return (
        outcome.failure,
        None if est is None else (
            est.pose.rotation.tobytes(), est.pose.translation.tobytes(), est.iterations,
            est.converged, est.message, float(est.residual_rms).hex(),
        ),
        crlb.translation_bound.hex(), crlb.rotation_bound.hex(), crlb.fim.tobytes(),
        None if comp is None else (
            comp.iterations, comp.converged, comp.completed.squared_distances.tobytes(),
        ),
        float(outcome.rotation_error_deg).hex(), float(outcome.translation_error_m).hex(),
        outcome.measurements.ranges.tobytes(), outcome.truth.rotation.tobytes(),
    )


def stacked_scenario(name, blockage):
    scenario, experiment = preset(name)
    return ScenarioConfig(
        conformation=scenario.conformation,
        anchors=scenario.anchors,
        pose_distribution=scenario.pose_distribution,
        blockage=blockage,
    ), experiment.sigma_grid


class TestBatchedTrials:
    @pytest.mark.parametrize(
        "name, blockage",
        [
            ("fig4", BlockageSpec()),
            ("fig5", BlockageSpec(kind="bernoulli", p=0.2)),
            ("fig4", BlockageSpec(kind="hull")),
            ("fig4", BlockageSpec(kind="bernoulli", p=0.9)),
        ],
        ids=["fig4", "fig5-bernoulli", "hull", "bernoulli-failing"],
    )
    def test_batch_equals_single_trials(self, name, blockage):
        # run_benchmark's stacked stages give each trial exactly what
        # run_trial_estimators gives it alone: poses, iterations, messages,
        # bounds and failure strings.
        scenario, grid = stacked_scenario(name, blockage)
        sigmas = [grid[i % len(grid)] for i in range(12)]
        seeds = [derive_seed(31, 11, i) for i in range(12)]
        batch = _run_trials(scenario, sigmas, seeds, ESTIMATOR_TAGS, True)
        failures = 0
        for i, (sigma, seed) in enumerate(zip(sigmas, seeds)):
            single = run_trial_estimators(scenario, sigma, seed)
            stacked = batch.outcomes(i)
            assert [outcome_bits(o) for o in stacked] == [outcome_bits(o) for o in single]
            failures += sum(o.failure is not None for o in single)
        if blockage.p == 0.9:
            assert failures > 0

    def test_trial_bits_independent_of_batch(self):
        # One trial gives the same bits alone, first or last in a batch, and
        # among trials of other noise levels that complete or fail.
        scenario, grid = stacked_scenario("fig5", BlockageSpec(kind="bernoulli", p=0.7))
        sigma, seed = grid[-1], derive_seed(8, 0)
        others = [derive_seed(8, i) for i in range(1, 9)]
        alone = _run_trials(scenario, [sigma], [seed], ESTIMATOR_TAGS, True)
        reference = [outcome_bits(o) for o in alone.outcomes(0)]
        for sigmas, seeds, at in [
            ([sigma] + list(grid[:3]), [seed] + others[:3], 0),
            (list(grid) + [sigma], others[:5] + [seed], 5),
            ([grid[0], sigma, grid[2]] * 3, others[:4] + [seed] + others[4:8], 4),
        ]:
            batch = _run_trials(scenario, sigmas, seeds, ESTIMATOR_TAGS, True)
            assert [outcome_bits(o) for o in batch.outcomes(at)] == reference
            assert any(o.failure for i in range(len(seeds)) for o in batch.outcomes(i))


class TestRunScenarioOnce:
    def test_replays_identically(self):
        scenario = small_scenario()
        a = run_scenario_once(scenario, 0.1, seed=99, estimator="nls")
        b = run_scenario_once(scenario, 0.1, seed=99, estimator="nls")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_matches_single_trial_benchmark(self):
        scenario = small_scenario()
        experiment = small_experiment(sigma_grid=(0.1,), trials=1, estimators=("nls",))
        row = run_benchmark(scenario, experiment)[0]
        trace = run_scenario_once(
            scenario, 0.1, seed=derive_seed(experiment.master_seed, 11, 0, 0), estimator="nls"
        )
        assert trace["errors"]["translation_m"] == pytest.approx(
            row.rmse_translation_m, rel=1e-12
        )
        assert trace["errors"]["rotation_deg"] == pytest.approx(
            row.rmse_rotation_deg, rel=1e-12
        )

    def test_masked_trial_embeds_completion_report(self):
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.2))
        trace = run_scenario_once(scenario, 0.05, seed=5, estimator="mds")
        assert trace["completion"] is not None
        assert trace["completion"]["converged"] is True
        assert trace["estimate"] is not None

    def test_hull_blockage_runs(self):
        scenario = small_scenario(blockage=BlockageSpec(kind="hull"))
        trace = run_scenario_once(scenario, 0.01, seed=6, estimator="nls")
        mask = np.asarray(trace["measurements"]["mask"])
        assert not mask.all()  # self-occlusion removes far-side links
        assert trace["failure"] is None


class TestGenerateTrajectory:
    def test_deterministic_and_aligned(self):
        scenario = small_scenario()
        twist = Twist([0, 0, 0.2], [0.5, 0, 0])
        frames_a, truth_a = generate_trajectory(scenario, twist, 5, 0.1, 0.05, seed=3)
        frames_b, truth_b = generate_trajectory(scenario, twist, 5, 0.1, 0.05, seed=3)
        assert len(frames_a) == 5 and len(truth_a) == 5
        for fa, fb in zip(frames_a, frames_b):
            assert fa.timestamp == fb.timestamp
            assert np.array_equal(fa.measurements.ranges, fb.measurements.ranges)
        assert all("range_rate" != None for _ in frames_a)
        assert frames_a[0].measurements.range_rates is not None


def test_fig5_sweep_trial_loads_no_scipy():
    # A fresh process's setup pays for every import: scipy.linalg alone
    # takes about as long as a fig5 sweep's whole setup, so the sweep's
    # per-trial path (draw, completion, the three estimators, the bound)
    # must not pull scipy in.
    src = str(Path(rblkit.estimators.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from rblkit.harness import ExperimentConfig, preset, run_benchmark; "
        "scenario, _ = preset('fig5'); "
        "run_benchmark(scenario, ExperimentConfig((0.01, 1.0), 2, 7, ('mds', 'nls', 'gabp'))); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
