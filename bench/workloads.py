"""The benchmark's workloads.

Each workload builds its inputs, runs one *round* through the program's
public entry points (the untraced, timed path) and replays the same round
call for call from public functions under a Tracer. A round is what the
closed loop repeats: on a sweep, one `run_benchmark` call over the whole
sigma grid with `trials_per_round` trials per cell; on the tracking
workload, one `generate_trajectory` + `track_sequence` pair. Round r of a
run with seed s uses the master seed derive_seed(s, r).

The replays mirror `run_benchmark`, `_estimate`, `_draw_trial`,
`generate_trajectory` and `track_sequence` of the program exactly,
including the repeated assemble -> complete -> MDS chain of the `nls` tag,
so that span counts show the program's real call structure and the
outputs can be compared bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from rblkit import (
    BlockageSpec,
    ExperimentConfig,
    MeasurementFrame,
    NoiseModel,
    RigidBodyState,
    TrackConfig,
    TrackFrame,
    Twist,
    apply_blockage,
    assemble_edm,
    complete_edm,
    derive_seed,
    estimate_pose_gabp,
    estimate_pose_mds,
    estimate_pose_nls,
    estimate_twist,
    fim_ranges,
    generate_trajectory,
    preset,
    propagate_state,
    rotation_error_deg,
    run_benchmark,
    simulate_measurements,
    track_sequence,
)
from rblkit.errors import CoverageWarning, RangeClampWarning, RblError
from rblkit.harness import ESTIMATOR_TAGS, ResultRow

from spans import Tracer


@dataclass(frozen=True)
class Sweep:
    """A preset's scenario and sigma grid, run with all three estimators."""

    name: str
    preset: str
    trials_per_round: int
    max_gabp_over_nls: float | None = None  # acceptance criterion 8, per pooled cell
    kind = "sweep"

    def build(self):
        scenario, experiment = preset(self.preset)
        return scenario, experiment.sigma_grid

    def items_per_round(self, built) -> int:
        return len(built[1]) * self.trials_per_round

    def _experiment(self, grid, seed: int, trials: int) -> ExperimentConfig:
        return ExperimentConfig(
            sigma_grid=tuple(grid), trials=trials, master_seed=seed,
            estimators=ESTIMATOR_TAGS, completion=True,
        )

    def warmup(self, built, seed: int) -> None:
        scenario, grid = built
        run_benchmark(scenario, self._experiment(grid[:1], seed, 1))

    def run_round(self, built, seed: int) -> list[ResultRow]:
        scenario, grid = built
        return run_benchmark(scenario, self._experiment(grid, seed, self.trials_per_round))

    def replay_round(self, built, seed: int, tracer: Tracer, first_item: int) -> list[ResultRow]:
        """`run_benchmark` from public functions, with spans and observations."""
        scenario, grid = built
        experiment = self._experiment(grid, seed, self.trials_per_round)
        anchors, conf = scenario.anchors, scenario.conformation
        sums = {
            (si, tag): {"rot": 0.0, "trans": 0.0, "n": 0, "fail": 0}
            for si in range(len(experiment.sigma_grid))
            for tag in experiment.estimators
        }
        crlb_sums = [[0.0, 0.0, 0] for _ in experiment.sigma_grid]
        item = first_item
        for si, sigma in enumerate(experiment.sigma_grid):
            for trial in range(experiment.trials):
                with tracer.span("harness.trial", item):
                    trial_seed = derive_seed(experiment.master_seed, 11, si, trial)
                    truth, meas = _draw(scenario, sigma, trial_seed, tracer)
                    crlb = tracer.call(
                        "bounds.fim", fim_ranges, anchors, conf, truth, meas.mask, sigma
                    )
                    tracer.note("bounds.singular", crlb.singular)
                    if not crlb.singular:
                        crlb_sums[si][0] += crlb.translation_bound
                        crlb_sums[si][1] += crlb.rotation_bound
                        crlb_sums[si][2] += 1
                    noise = _trial_noise(scenario, sigma, trial_seed)
                    for tag in experiment.estimators:
                        cell = sums[(si, tag)]
                        try:
                            estimate = _estimate(tag, meas, anchors, conf, noise, tracer)
                            tracer.note(f"{tag}.iters", estimate.iterations)
                            if not estimate.converged:
                                cell["fail"] += 1
                                tracer.note(f"{tag}.ok", 0)
                                tracer.fail(tag, estimate.message)
                                continue
                        except RblError as exc:
                            cell["fail"] += 1
                            tracer.note(f"{tag}.ok", 0)
                            tracer.fail(tag, type(exc).__name__)
                            continue
                        tracer.note(f"{tag}.ok", 1)
                        rot_err = rotation_error_deg(estimate.pose.rotation, truth.rotation)
                        trans_err = float(
                            np.linalg.norm(estimate.pose.translation - truth.translation)
                        )
                        cell["rot"] += rot_err**2
                        cell["trans"] += trans_err**2
                        cell["n"] += 1
                        if not crlb.singular:
                            ratio = trans_err / np.sqrt(crlb.translation_bound)
                            tracer.note(f"{tag}.err_over_crlb", ratio)
                            tracer.note(f"cell.{float(sigma)}.{tag}", ratio)
                item += 1
        rows = []
        for si, sigma in enumerate(experiment.sigma_grid):
            t_sum, r_sum, n_crlb = crlb_sums[si]
            crlb_t = float(np.sqrt(t_sum / n_crlb)) if n_crlb else float("nan")
            crlb_r = float(np.degrees(np.sqrt(r_sum / n_crlb))) if n_crlb else float("nan")
            for tag in experiment.estimators:
                cell = sums[(si, tag)]
                n = cell["n"]
                rows.append(
                    ResultRow(
                        sigma=float(sigma),
                        estimator=tag,
                        rmse_translation_m=float(np.sqrt(cell["trans"] / n)) if n else float("nan"),
                        rmse_rotation_deg=float(np.sqrt(cell["rot"] / n)) if n else float("nan"),
                        crlb_translation_m=crlb_t,
                        crlb_rotation_deg=crlb_r,
                        trials=experiment.trials,
                        failures=cell["fail"],
                    )
                )
        return rows


def _trial_noise(scenario, sigma, seed) -> NoiseModel:
    return NoiseModel(
        range_sigma=sigma,
        angle_sigma=scenario.noise.angle_sigma,
        range_rate_sigma=scenario.noise.range_rate_sigma,
        seed=derive_seed(seed, 2),
    )


def _simulate(scenario, state, noise, kinds, blockage_seed, tracer):
    """Simulate and block one measurement set, warnings silenced as the
    program does."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RangeClampWarning)
        warnings.simplefilter("ignore", CoverageWarning)
        meas = tracer.call(
            "measurement.draw", simulate_measurements, scenario.anchors, state, noise, kinds
        )
        policy = scenario.blockage.policy(blockage_seed, scenario.anchors, state.world_nodes())
        if policy is not None:
            meas = tracer.call("measurement.blockage", apply_blockage, meas, policy)
    tracer.note("measurement.observed", meas.mask.mean())
    return meas


def _draw(scenario, sigma, seed, tracer):
    truth = scenario.sample_pose(np.random.default_rng(derive_seed(seed, 1)))
    twist = Twist.zero() if "range_rate" in scenario.measurement_kinds else None
    state = RigidBodyState(scenario.conformation, truth, twist)
    noise = _trial_noise(scenario, sigma, seed)
    meas = _simulate(
        scenario, state, noise, scenario.measurement_kinds, derive_seed(seed, 3), tracer
    )
    return truth, meas


def _estimate(tag, meas, anchors, conf, noise, tracer):
    """`harness._estimate` with completion on, as every workload runs it."""
    if tag in ("mds", "nls"):
        edm = tracer.call("measurement.assemble", assemble_edm, anchors, conf, meas)
        if not edm.is_complete():
            report = tracer.call("completion.complete", complete_edm, edm)
            tracer.note("completion.iters", report.iterations)
            tracer.note("completion.converged", report.converged)
            if not report.converged:
                tracer.fail("completion", f"not converged after {report.iterations} iterations")
            edm = report.completed
        init = tracer.call("estimators.mds", estimate_pose_mds, edm, anchors, conf)
        if tag == "mds":
            return init
        return tracer.call(
            "estimators.nls", estimate_pose_nls, meas, anchors, conf, init=init.pose, noise=noise
        )
    return tracer.call("estimators.gabp", estimate_pose_gabp, meas, anchors, conf, noise=noise)


@dataclass(frozen=True)
class Track:
    """Constant-twist sequences on the fig4 body and anchors, with hull
    self-occlusion, tracked frame to frame with warm-started NLS."""

    name: str
    frames: int
    dt: float
    sigma: float
    kind = "track"

    def build(self):
        scenario, _ = preset("fig4")
        return replace(
            scenario,
            blockage=BlockageSpec(kind="hull"),
            measurement_kinds=("range", "range_rate"),
            noise=NoiseModel(range_rate_sigma=self.sigma),
        )

    def items_per_round(self, built) -> int:
        return self.frames

    def _twist(self, seed: int) -> Twist:
        # |v| <= 0.087 m/s over frames * dt = 1 s keeps every node of the
        # unit cube (start centre within +-0.5 m) inside the +-1.5 m anchors.
        rng = np.random.default_rng(derive_seed(seed, 21))
        return Twist(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.05, 0.05, 3))

    def warmup(self, scenario, seed: int) -> None:
        frames, _ = generate_trajectory(scenario, self._twist(seed), 2, self.dt, self.sigma, seed)
        track_sequence(scenario.anchors, scenario.conformation, frames, TrackConfig("nls"))

    def run_round(self, scenario, seed: int):
        twist = self._twist(seed)
        frames, truth = generate_trajectory(
            scenario, twist, self.frames, self.dt, self.sigma, seed
        )
        track = track_sequence(scenario.anchors, scenario.conformation, frames, TrackConfig("nls"))
        return track, truth

    def replay_round(self, scenario, seed: int, tracer: Tracer, first_item: int):
        """`generate_trajectory` then `track_sequence`, from public functions."""
        anchors, conf = scenario.anchors, scenario.conformation
        twist = self._twist(seed)
        start = scenario.sample_pose(np.random.default_rng(derive_seed(seed, 1)))
        state0 = RigidBodyState(conf, start, twist)
        kinds = tuple(dict.fromkeys(scenario.measurement_kinds + ("range_rate",)))
        frames, truth = [], []
        for i in range(self.frames):
            with tracer.span("harness.frame", first_item + i):
                t = (i + 1) * self.dt
                current = propagate_state(state0, t)
                noise = NoiseModel(
                    range_sigma=self.sigma,
                    angle_sigma=scenario.noise.angle_sigma,
                    range_rate_sigma=scenario.noise.range_rate_sigma,
                    seed=derive_seed(seed, 4, i),
                )
                meas = _simulate(scenario, current, noise, kinds, derive_seed(seed, 5, i), tracer)
                frames.append(MeasurementFrame(t, meas))
                truth.append((current.pose, twist))

        # TrackConfig("nls") carries no noise model, so track_sequence passes
        # noise=None to the pose solve and no weights to the twist fit.
        out = []
        prev_pose = prev_twist = None
        prev_time = 0.0
        for i, frame in enumerate(frames):
            with tracer.span("harness.frame", first_item + i):
                init = None
                if prev_pose is not None:
                    init = propagate_state(
                        RigidBodyState(conf, prev_pose, prev_twist), frame.timestamp - prev_time
                    ).pose
                try:
                    pose_est = tracer.call(
                        "tracking.nls", estimate_pose_nls, frame.measurements, anchors, conf,
                        init=init, noise=None,
                    )
                    est_twist, residual = tracer.call(
                        "tracking.twist", estimate_twist, anchors, conf, pose_est.pose,
                        frame.measurements.range_rates, mask=frame.measurements.mask,
                        weights=None,
                    )
                    out.append(TrackFrame(frame.timestamp, pose_est, est_twist, residual))
                    prev_pose, prev_twist, prev_time = pose_est.pose, est_twist, frame.timestamp
                except Exception as exc:  # mirrors track_sequence's per-frame catch
                    out.append(
                        TrackFrame(
                            frame.timestamp, None, None, float("nan"),
                            f"{type(exc).__name__}: {exc}",
                        )
                    )
        for frame, (pose, true_twist) in zip(out, truth):
            if frame.error is not None:
                tracer.fail("track", frame.error.split(":")[0])
                continue
            if not frame.pose_estimate.converged:
                tracer.fail("track", frame.pose_estimate.message)
            tracer.note("tracking.nls_iters", frame.pose_estimate.iterations)
            tracer.note(
                "tracking.trans_err",
                np.linalg.norm(frame.pose_estimate.pose.translation - pose.translation),
            )
            tracer.note(
                "tracking.twist_err",
                np.linalg.norm(
                    np.concatenate([
                        frame.twist_estimate.angular - true_twist.angular,
                        frame.twist_estimate.linear - true_twist.linear,
                    ])
                ),
            )
        return out, truth


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("fig4_sweep", "fig4", trials_per_round=4, max_gabp_over_nls=2.0),
        Sweep("fig5_sweep", "fig5", trials_per_round=1),
        Track("track_hull", frames=20, dt=0.05, sigma=0.01),
    )
}
