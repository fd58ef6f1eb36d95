import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rblkit.estimators
import rblkit.harness
from rblkit.errors import ConfigError
from rblkit.geometry import Conformation, Pose, Twist, haar_rotations, so3_exp, transform_points
from rblkit.measurement import NoiseModel
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
    scenario_from_dict,
    splitmix64,
)
from rblkit.harness import _draw, _measurement_set, _run_trials, draw_trial
from rblkit.measurement import _draws, streams


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

    @pytest.mark.parametrize("master", [0, 2**64 - 1, 2**63 + 11])
    def test_array_seeds_equal_int_seeds(self, master):
        # A uint64 array wraps modulo 2**64 as the int path masks: each
        # element equals the int derivation, and the index shapes broadcast.
        si = np.array([[0], [1], [2**64 - 1]], dtype=np.uint64)
        trial = np.array([0, 7, 2**63 + 11, 2**64 - 1], dtype=np.uint64)
        seeds = derive_seed(master, 11, si, trial)
        assert seeds.dtype == np.uint64 and seeds.shape == (3, 4)
        for (i, j), seed in np.ndenumerate(seeds):
            assert int(seed) == derive_seed(master, 11, int(si[i, 0]), int(trial[j]))
        stacked = derive_seed(np.full(4, master, dtype=np.uint64), 5, trial)
        assert stacked.tolist() == [derive_seed(master, 5, int(t)) for t in trial]
        words = np.array([0, master, 2**64 - 1], dtype=np.uint64)
        assert splitmix64(words).tolist() == [splitmix64(int(w)) for w in words]
        assert type(derive_seed(master, 11, 0, 3)) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_master_seed_outside_u64_refused(self, seed):
        # derive_seed folds master seeds modulo 2**64: 2**64 + 5 would
        # alias 5, and -1 would alias 2**64 - 1.
        with pytest.raises(ConfigError) as caught:
            small_experiment(master_seed=seed)
        assert caught.value.field == "master_seed"
        assert str(caught.value) == f"master_seed: must be an unsigned 64-bit integer, got {seed}"
        assert small_experiment(master_seed=2**64 - 1).master_seed == 2**64 - 1


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_refused(self, value):
        # NaN and inf pass a `<= 0` test; the grid refuses them itself instead
        # of leaving the draw to fail on a noise field the document lacks.
        with pytest.raises(ConfigError, match="^sigma_grid: sigma grid must be nonempty, finite"):
            small_experiment(sigma_grid=(0.1, value))

    def test_planar_body_rejects_hull_blockage(self):
        # A planar body's hull has no interior to occlude with, so the
        # combination is refused when the scenario is built, not mid-sweep.
        flat = Conformation([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        with pytest.raises(ConfigError, match="blockage") as caught:
            small_scenario(conformation=flat, blockage=BlockageSpec(kind="hull"))
        assert caught.value.field == "blockage"
        small_scenario(conformation=flat, blockage=BlockageSpec(kind="bernoulli", p=0.1))

    def test_noiseless_angles_are_refused(self):
        # Noiseless angles have no finite bound, and NLS would weight them
        # as 1 rad: a scenario that measures them needs an angle noise level.
        aoa = ("range", "aoa")
        with pytest.raises(ConfigError, match="angle_sigma") as caught:
            small_scenario(measurement_kinds=aoa)
        assert caught.value.field == "noise.angle_sigma"
        small_scenario(measurement_kinds=aoa, noise=NoiseModel(angle_sigma=0.01))
        small_scenario(noise=NoiseModel())

    def test_measurement_kinds_refuse_a_string(self):
        # A string is one kind's name, not a list of kinds: it is refused by
        # name, not read as its characters.
        with pytest.raises(ConfigError, match="'range'") as caught:
            small_scenario(measurement_kinds="range")
        assert caught.value.field == "measurements"
        assert small_scenario(measurement_kinds=["range"]).measurement_kinds == ("range",)

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
            "noise": {"range_sigma": 0.1},
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


def scenario_doc(**sections):
    """A valid scenario document with `sections` set; None drops a section."""
    doc = {
        "conformation": {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "anchors": {"points": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [3, 3, 3]]},
        "pose_distribution": {"rotation": "yaw"},
    }
    doc.update(sections)
    return {key: value for key, value in doc.items() if value is not None}


class TestDocumentKeys:
    @pytest.mark.parametrize(
        "sections, field",
        [
            ({"prob": 0.5}, "prob"),
            ({"noise": {"range_sigma": 0.1, "sigma": 0.2}}, "noise.sigma"),
            ({"blockage": {"kind": "bernoulli", "prob": 0.5}}, "blockage.prob"),
            (
                {"pose": {"rotation": np.eye(3).tolist(), "translation": [0, 0, 0], "scale": 1},
                 "pose_distribution": None},
                "pose.scale",
            ),
            ({"pose_distribution": {"rotation": "yaw", "translation": [0, 0, 0]}},
             "pose_distribution.translation"),
            ({"anchors": {"points": [[3, 0, 0], [0, 3, 0]], "weights": [1, 1]}}, "anchors.weights"),
            ({"anchors": {"body": {"points": [[3, 0, 0]], "scale": 2}}}, "anchors.body.scale"),
            ({"conformation": {"points": [[0, 0, 0]], "scale": 2}}, "conformation.scale"),
        ],
    )
    def test_unknown_scenario_key_refused(self, sections, field):
        with pytest.raises(ConfigError, match="allowed keys") as caught:
            scenario_from_dict(scenario_doc(**sections))
        assert caught.value.field == field

    def test_unknown_experiment_key_refused(self):
        with pytest.raises(ConfigError, match="allowed keys: sigma_grid, trials") as caught:
            experiment_from_dict({"sigma_grid": [0.1], "trails": 3})
        assert caught.value.field == "trails"

    def test_noise_seed_refused(self):
        # Every trial seeds its noise from the experiment's master seed, so a
        # scenario noise seed would be a setting that does nothing.
        with pytest.raises(ConfigError, match="master_seed") as caught:
            scenario_from_dict(scenario_doc(noise={"range_sigma": 0.1, "seed": 3}))
        assert caught.value.field == "noise.seed"

    def test_missing_experiment_grid(self):
        with pytest.raises(ConfigError) as caught:
            experiment_from_dict({"trials": 3})
        assert caught.value.field == "sigma_grid"

    def test_documents_fill_dataclass_defaults(self):
        scenario = scenario_from_dict(scenario_doc(blockage={"kind": "hull"}))
        assert scenario.blockage == BlockageSpec(kind="hull")
        assert scenario.noise == NoiseModel()
        exp = experiment_from_dict({"sigma_grid": [1], "trials": 2, "estimators": ["mds"]})
        assert exp == ExperimentConfig(sigma_grid=(1.0,), trials=2, estimators=("mds",))
        assert type(exp.sigma_grid[0]) is float

    @pytest.mark.parametrize("margin", [-1e-3, float("nan"), float("inf")])
    def test_blockage_margin_refused(self, margin):
        with pytest.raises(ConfigError) as caught:
            scenario_from_dict(scenario_doc(blockage={"kind": "hull", "margin": margin}))
        assert caught.value.field == "blockage.margin"


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

    def test_sweep_scores_no_residuals(self, monkeypatch):
        # No ResultRow reads residual_rms, so a sweep never scores one;
        # reading an estimate scores its tag's stack, once.
        calls = []
        observed_rms = rblkit.estimators.observed_rms

        def counting(rot, *args):
            calls.append(len(rot))
            return observed_rms(rot, *args)

        monkeypatch.setattr(rblkit.estimators, "observed_rms", counting)
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.2))
        run_benchmark(scenario, small_experiment(trials=3))
        assert calls == []
        seeds = [derive_seed(5, i) for i in range(4)]
        trials = _run_trials(scenario, [0.1] * 4, seeds, ESTIMATOR_TAGS, True)
        assert calls == []
        for batch in trials.estimates.values():
            for i in range(4):
                batch.estimate(i)
        assert calls == [4, 4, 4]

    def test_one_seed_hash_per_draw(self, monkeypatch):
        # A stack's pose, noise and Bernoulli blockage generators come from
        # one streams() call, and so do a trajectory's start pose and its
        # range and range-rate noise.
        calls = []

        def counting(seeds, which=None):
            calls.append(len(seeds))
            return streams(seeds, which)

        monkeypatch.setattr(rblkit.harness, "streams", counting)
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.2))
        _draw(scenario, [0.1, 0.2, 0.3], [1, 2, 3])
        assert calls == [9]
        tracked = small_scenario(
            measurement_kinds=("range", "range_rate"), noise=NoiseModel(range_rate_sigma=0.01)
        )
        generate_trajectory(tracked, Twist.zero(), 20, 0.05, 0.01, 7)
        assert calls == [9, 41]

    def test_unconverged_completion_fails_mds(self, monkeypatch):
        # MDS embeds the completed EDM, so a completion that missed its
        # convergence test leaves the MDS estimate unconverged too; NLS still
        # starts from that pose.
        complete_batch = rblkit.estimators.complete_batch
        monkeypatch.setattr(
            rblkit.estimators, "complete_batch",
            lambda d, known, a: complete_batch(d, known, a, max_iters=1),
        )
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=0.2))
        seeds = [derive_seed(5, i) for i in range(4)]
        trials = _run_trials(scenario, [0.1] * 4, seeds, ("mds", "nls"), True)
        assert trials.chain.completed_items.tolist() == [0, 1, 2, 3]
        for i in range(4):
            assert not trials.estimates["mds"].estimate(i).converged
            assert trials.failures["mds"][i] == (
                "not converged: completion: cost change above relative 1e-12 after 1 iterations"
            )
            assert trials.failures["nls"][i] is None
        rows = run_benchmark(scenario, small_experiment(trials=2, estimators=("mds",)))
        assert all(row.failures == row.trials for row in rows)

    def test_fully_blocked_sweep_counts_failures(self):
        # Trials that observe no link have a singular bound and no estimate;
        # they are counted as failures instead of stopping the sweep.
        scenario = small_scenario(blockage=BlockageSpec(kind="bernoulli", p=1.0))
        rows = run_benchmark(scenario, small_experiment(trials=3))
        assert [row.failures for row in rows] == [3] * len(rows)
        assert all(np.isnan(row.crlb_translation_m) for row in rows)

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


def outcome_bits(trials, i):
    """Everything trial i of a stacked batch reports for each estimator
    tag, as keys equal only bit for bit."""
    crlb = trials.crlb.report(i)
    bits = []
    for tag, batch in trials.estimates.items():
        est = None if batch.errors[i] is not None else batch.estimate(i)
        comp = None if tag == "gabp" or est is None else trials.chain.report(i)
        bits.append((
            trials.failures[tag][i],
            None if est is None else (
                est.pose.rotation.tobytes(), est.pose.translation.tobytes(), est.iterations,
                est.converged, est.message, float(est.residual_rms).hex(),
            ),
            crlb.translation_bound.hex(), crlb.rotation_bound.hex(), crlb.fim.tobytes(),
            None if comp is None else (
                comp.iterations, comp.converged, comp.completed.squared_distances.tobytes(),
            ),
            float(trials.rotation_errors[tag][i]).hex(),
            float(trials.translation_errors[tag][i]).hex(),
            trials.observed[1][i].tobytes(), trials.truth[0][i].tobytes(),
        ))
    return bits


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
        # run_benchmark's stacked stages give each trial exactly what a
        # batch of one gives it alone: poses, iterations, messages, bounds
        # and failure strings.
        scenario, grid = stacked_scenario(name, blockage)
        sigmas = [grid[i % len(grid)] for i in range(12)]
        seeds = [derive_seed(31, 11, i) for i in range(12)]
        batch = _run_trials(scenario, sigmas, seeds, ESTIMATOR_TAGS, True)
        failures = 0
        for i, (sigma, seed) in enumerate(zip(sigmas, seeds)):
            single = _run_trials(scenario, [sigma], [seed], ESTIMATOR_TAGS, True)
            assert outcome_bits(batch, i) == outcome_bits(single, 0)
            failures += sum(f[0] is not None for f in single.failures.values())
        if blockage.p == 0.9:
            assert failures > 0

    def test_trial_bits_independent_of_batch(self):
        # One trial gives the same bits alone, first or last in a batch, and
        # among trials of other noise levels that complete or fail.
        scenario, grid = stacked_scenario("fig5", BlockageSpec(kind="bernoulli", p=0.7))
        sigma, seed = grid[-1], derive_seed(8, 0)
        others = [derive_seed(8, i) for i in range(1, 9)]
        alone = _run_trials(scenario, [sigma], [seed], ESTIMATOR_TAGS, True)
        reference = outcome_bits(alone, 0)
        for sigmas, seeds, at in [
            ([sigma] + list(grid[:3]), [seed] + others[:3], 0),
            (list(grid) + [sigma], others[:5] + [seed], 5),
            ([grid[0], sigma, grid[2]] * 3, others[:4] + [seed] + others[4:8], 4),
        ]:
            batch = _run_trials(scenario, sigmas, seeds, ESTIMATOR_TAGS, True)
            assert outcome_bits(batch, at) == reference
            assert any(f for failures in batch.failures.values() for f in failures)


def test_errors_scored_in_one_call(monkeypatch):
    # Every tag's scored items go through one rotation_error_deg call and one
    # norm; each error is the per-tag one of its item, and a failed item is NaN.
    scenario, grid = stacked_scenario("fig5", BlockageSpec(kind="bernoulli", p=0.7))
    sigmas = [grid[i % len(grid)] for i in range(10)]
    seeds = [derive_seed(13, i) for i in range(10)]
    score, calls = rblkit.harness.rotation_error_deg, []
    monkeypatch.setattr(
        rblkit.harness, "rotation_error_deg", lambda a, b: calls.append(len(a)) or score(a, b)
    )
    trials = _run_trials(scenario, sigmas, seeds, ESTIMATOR_TAGS, True)
    rot, trans = trials.truth
    mixed = 0
    for tag, batch in trials.estimates.items():
        scored = np.array([f is None for f in trials.failures[tag]])
        mixed += 0 < scored.sum() < len(scored)
        rot_err, trans_err = trials.rotation_errors[tag], trials.translation_errors[tag]
        assert np.isnan(rot_err[~scored]).all() and np.isnan(trans_err[~scored]).all()
        expected = score(batch.rotation[scored], rot[scored])
        assert rot_err[scored].tobytes() == expected.tobytes()
        offset = batch.translation[scored] - trans[scored]
        assert trans_err[scored].tobytes() == np.sqrt(np.vecdot(offset, offset)).tobytes()
    assert mixed and calls == [sum(f is None for v in trials.failures.values() for f in v)]


def draw_scenario(rotation, kinds, blockage):
    """The fig4 body and anchors under a pose law ("fixed" for a set pose),
    with every noise level of `kinds` set and `blockage` applied."""
    scenario, _ = preset("fig4")
    if rotation == "fixed":
        laws = {"pose": Pose(so3_exp([0.3, -0.2, 0.9]), [0.1, -0.2, 0.05])}
    else:
        laws = {"pose_distribution": PoseDistribution(rotation, (-0.4, -0.3, 0), (0.4, 0.3, 0.2))}
    noise = NoiseModel(
        angle_sigma=0.02 if "aoa" in kinds else 0.0,
        range_rate_sigma=0.05 if "range_rate" in kinds else 0.0,
    )
    return ScenarioConfig(
        conformation=scenario.conformation, anchors=scenario.anchors, noise=noise,
        blockage=blockage, measurement_kinds=kinds, **laws,
    )


def draw_bits(pose, meas):
    fields = (meas.mask, meas.ranges, meas.aoa, meas.range_rates)
    return [pose.rotation.tobytes(), pose.translation.tobytes()] + [
        None if m is None else m.tobytes() for m in fields
    ]


class TestStackedDraw:
    @pytest.mark.parametrize("rotation", ["uniform", "yaw", "none", "fixed"])
    @pytest.mark.parametrize(
        "kinds", [("range",), ("range", "aoa", "range_rate")], ids=["range", "all-kinds"]
    )
    @pytest.mark.parametrize(
        "blockage",
        [BlockageSpec(), BlockageSpec(kind="bernoulli", p=0.3), BlockageSpec(kind="hull")],
        ids=["none", "bernoulli", "hull"],
    )
    def test_stack_equals_items_drawn_alone(self, rotation, kinds, blockage):
        # One stacked draw gives each trial the bits draw_trial gives it
        # alone, with noiseless (sigma 0) trials mixed into the stack and
        # seeds at both ends of the uint64 range.
        scenario = draw_scenario(rotation, kinds, blockage)
        seeds = [0, 2**64 - 1, 2**63 + 11] + [derive_seed(4, 11, 0, t) for t in range(9)]
        sigmas = [0.0 if t % 3 == 0 else 0.05 * (t % 4 + 1) for t in range(len(seeds))]
        rot, trans, observed = _draw(scenario, sigmas, np.array(seeds, dtype=np.uint64))
        for i, (sigma, seed) in enumerate(zip(sigmas, seeds)):
            stacked = draw_bits(Pose(rot[i], trans[i]), _measurement_set(observed, i))
            assert stacked == draw_bits(*draw_trial(scenario, sigma, seed))
        # The sigma-0 trials, and only they, observe the exact distances.
        mask, ranges = observed[:2]
        world = transform_points(scenario.conformation.nodes, rot, trans)
        exact = np.linalg.norm(world[:, None] - scenario.anchors.anchors[:, None], axis=-1)
        same = [np.array_equal(ranges[i][m], exact[i][m]) for i, m in enumerate(mask)]
        assert same == [sigma == 0.0 for sigma in sigmas]

    @pytest.mark.parametrize("rotation", ["uniform", "yaw", "none"])
    def test_pose_maps_equal_generator_calls(self, rotation):
        # sample_poses maps the raw variates as Generator.uniform maps them,
        # drawing from one repeated generator in turn, rotation first: equal
        # to uniform(-pi, pi) for the yaw and uniform(low, high) for the
        # translation, over 10**4 poses.
        low, high = (-3.0, 0.25, -1e-3), (5.0, 0.5, 7.0)
        dist = PoseDistribution(rotation, low, high)
        rot, trans = dist.sample_batch([np.random.default_rng(12)] * 10_000)
        rng = np.random.default_rng(12)
        for r, t in zip(rot, trans):
            if rotation == "uniform":
                expect = haar_rotations(rng.standard_normal(4))
            elif rotation == "yaw":
                expect = so3_exp([0.0, 0.0, rng.uniform(-np.pi, np.pi)])
            else:
                expect = np.eye(3)
            assert r.tobytes() == expect.tobytes()
            assert t.tobytes() == rng.uniform(low, high).tobytes()

    def test_scaled_normals_equal_generator_normal(self):
        # One standard_normal call per item, scaled as Generator.normal
        # scales, gives the bits of `count` normal(0, sigma) calls, over
        # 2 * 59 * 8 * 12 draws; a sigma-0 item draws nothing.
        sigmas = np.append(np.geomspace(1e-4, 3.0, 59), 0.0)
        seeds = np.array([derive_seed(6, t) for t in range(60)], dtype=np.uint64)
        rngs = iter(streams(seeds[:-1], 1))  # the noisy items' aoa streams
        az, el = _draws(sigmas, rngs, (8, 12), count=2)
        assert next(rngs, None) is None
        for i, (sigma, seed) in enumerate(zip(sigmas[:-1], seeds)):
            rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(1,)))
            assert az[i].tobytes() == rng.normal(0.0, sigma, (8, 12)).tobytes()
            assert el[i].tobytes() == rng.normal(0.0, sigma, (8, 12)).tobytes()
        assert not az[-1].any() and not el[-1].any()


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


def test_hull_track_round_loads_no_scipy():
    # The hull self-occlusion test is plain numpy, so a hull-blocked
    # trajectory and its tracking round leave scipy unloaded.
    src = str(Path(rblkit.estimators.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from dataclasses import replace; "
        "from rblkit import BlockageSpec, NoiseModel, TrackConfig, Twist, "
        "generate_trajectory, preset, track_sequence; "
        "scenario, _ = preset('fig4'); "
        "scenario = replace(scenario, blockage=BlockageSpec(kind='hull'), "
        "measurement_kinds=('range', 'range_rate'), noise=NoiseModel(range_rate_sigma=0.01)); "
        "frames, _ = generate_trajectory(scenario, Twist([0.3, 0, 0.1], [0.05, 0, 0]), 5, 0.05, "
        "0.01, 3); "
        "assert not frames[0].measurements.mask.all(); "
        "track_sequence(scenario.anchors, scenario.conformation, frames, TrackConfig('nls')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
