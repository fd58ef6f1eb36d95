"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The Monte Carlo criteria are deterministic (fixed seeds).
"""

import subprocess
import sys
import time

import numpy as np

from rblkit.bounds import crlb_sweep, fim_ranges, range_jacobian
from rblkit.completion import complete_edm, zero_imputed
from rblkit.errors import RblError
from rblkit.estimators import (
    SemanticHeading,
    estimate_pose_gabp,
    estimate_pose_mds,
    estimate_pose_nls,
    semantic_transform,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    node_velocities,
    propagate_state,
    random_rotation,
    rotation_error_deg,
    so3_exp,
)
from rblkit.harness import (
    ExperimentConfig,
    draw_trial as _draw_trial,
    derive_seed,
    generate_trajectory,
    preset,
    run_benchmark,
)
from rblkit.measurement import (
    AnchorSet,
    NoiseModel,
    assemble_edm,
    simulate_measurements,
)
from rblkit.tracking import estimate_twist, track_sequence, TrackConfig


def _report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nCRITERION {number} ({name}): {status} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _estimate(tag, meas, anchors, conf, noise=None):
    if tag == "mds":
        return estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
    if tag == "nls":
        return estimate_pose_nls(meas, anchors, conf, noise=noise)
    return estimate_pose_gabp(meas, anchors, conf, noise=noise)


def test_criterion_01_noiseless_exactness():
    scenario, _ = preset("fig4")
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_rot, worst_trans = 0.0, 0.0
    for _ in range(100):
        truth = scenario.pose_distribution.sample(rng)
        state = RigidBodyState(scenario.conformation, truth)
        meas = simulate_measurements(scenario.anchors, state, NoiseModel())
        for tag in ("mds", "nls", "gabp"):
            est = _estimate(tag, meas, scenario.anchors, scenario.conformation)
            rot = rotation_error_deg(est.pose.rotation, truth.rotation)
            trans = float(np.linalg.norm(est.pose.translation - truth.translation))
            worst_rot, worst_trans = max(worst_rot, rot), max(worst_trans, trans)
    elapsed = time.perf_counter() - start
    ok = worst_rot < 1e-6 and worst_trans < 1e-8 and elapsed < 10.0
    _report(
        1,
        "noiseless exactness",
        ok,
        f"worst rotation {worst_rot:.2e} deg, worst translation {worst_trans:.2e} m, "
        f"{elapsed:.1f} s",
    )


def test_criterion_02_kinematic_consistency():
    rng = np.random.default_rng(202)
    conf = Conformation(
        np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    )
    delta = 1e-6
    worst = 0.0
    for _ in range(100):
        pose = Pose(random_rotation(rng), rng.uniform(-2, 2, 3))
        twist = Twist(rng.uniform(-2, 2, 3), rng.uniform(-3, 3, 3))
        state = RigidBodyState(conf, pose, twist)
        fwd = propagate_state(state, delta).world_nodes()
        back = RigidBodyState(conf, pose, Twist(-twist.angular, -twist.linear))
        bwd = propagate_state(back, delta).world_nodes()
        fd = (fwd - bwd) / (2.0 * delta)
        worst = max(worst, float(np.abs(node_velocities(state) - fd).max()))
    _report(2, "kinematic consistency", worst < 1e-5, f"max velocity mismatch {worst:.2e} m/s")


def test_criterion_03_crlb_validity():
    scenario, _ = preset("fig4")
    start = time.perf_counter()
    grid = (0.01, 0.05, 0.1)
    experiment = ExperimentConfig(
        sigma_grid=grid, trials=1000, master_seed=7, estimators=("nls",), completion=True
    )
    rows = run_benchmark(scenario, experiment)
    checks = []
    # One-sided 5% Monte Carlo slack: the iterative estimator is efficient
    # here, so the 1000-trial sample MSE fluctuates around the bound itself.
    for row in rows:
        mse_t = row.rmse_translation_m**2
        mse_r = np.radians(row.rmse_rotation_deg) ** 2
        crlb_t = row.crlb_translation_m**2
        crlb_r = np.radians(row.crlb_rotation_deg) ** 2
        checks.append(mse_t >= 0.95 * crlb_t and mse_r >= 0.95 * crlb_r)
        if row.sigma == 0.01:
            checks.append(mse_t <= 3.0 * crlb_t and mse_r <= 3.0 * crlb_r)
        checks.append(row.failures == 0)
    pose = scenario.pose_distribution.sample(np.random.default_rng(303))
    reports = crlb_sweep(scenario.anchors, scenario.conformation, pose, grid)
    for field in ("translation_bound", "rotation_bound"):
        values = np.array([getattr(r, field) for r in reports])
        slope = np.polyfit(np.log(grid), np.log(values), 1)[0]
        checks.append(abs(slope - 2.0) < 0.02)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 120.0)
    _report(3, "CRLB validity", all(checks), f"{elapsed:.1f} s, checks {checks}")


def test_criterion_04_fim_correctness():
    delta = 1e-6
    worst_fd = 0.0
    rng = np.random.default_rng(404)
    for _ in range(100):
        anchors = AnchorSet(rng.uniform(-3, 3, size=(6, 3)))
        conf = Conformation(rng.uniform(-0.8, 0.8, size=(6, 3)))
        pose = Pose(random_rotation(rng), rng.uniform(-1, 1, 3))
        mask = rng.random((6, 6)) < 0.8
        mask[0, :] = True  # keep nonempty
        analytic = range_jacobian(anchors, conf, pose, mask)
        jj, kk = np.nonzero(mask)
        fd = np.empty_like(analytic)
        for i in range(6):
            e = np.zeros(6)
            e[i] = delta

            def ranges(sign):
                rot = pose.rotation @ so3_exp(sign * e[:3])
                world = conf.nodes @ rot.T + pose.translation + sign * e[3:]
                return np.linalg.norm(world[kk] - anchors.anchors[jj], axis=1)

            fd[:, i] = (ranges(+1.0) - ranges(-1.0)) / (2.0 * delta)
        worst_fd = max(worst_fd, float(np.abs(analytic - fd).max()))

    scenario, _ = preset("fig4")
    rng = np.random.default_rng(405)
    worst_add = 0.0
    for _ in range(20):
        pose = scenario.pose_distribution.sample(rng)
        full = np.ones((8, 8), dtype=bool)
        part = rng.random((8, 8)) < 0.5
        f_a = fim_ranges(scenario.anchors, scenario.conformation, pose, part, sigma=1.0).fim
        f_b = fim_ranges(
            scenario.anchors, scenario.conformation, pose, full & ~part, sigma=1.0
        ).fim
        f_u = fim_ranges(scenario.anchors, scenario.conformation, pose, full, sigma=1.0).fim
        worst_add = max(worst_add, float(np.abs(f_a + f_b - f_u).max()))
    ok = worst_fd < 1e-5 and worst_add < 1e-12
    _report(
        4,
        "FIM correctness",
        ok,
        f"max Jacobian-FD gap {worst_fd:.2e}, max additivity gap {worst_add:.2e}",
    )


def test_criterion_05_completion():
    scenario, _ = preset("fig4")
    conf, anchors = scenario.conformation, scenario.anchors
    pose = Pose(random_rotation(np.random.default_rng(42)), [0.3, -0.2, 0.1])
    meas = simulate_measurements(anchors, RigidBodyState(conf, pose), NoiseModel())
    edm = assemble_edm(anchors, conf, meas)
    truth = edm.squared_distances

    rng = np.random.default_rng(42)
    a, k = edm.n_anchors, edm.n_nodes
    while True:
        keep = rng.random((a, k)) >= 0.3
        if keep.any(axis=0).all():
            break
    d = truth.copy()
    known = edm.known_mask.copy()
    known[:a, a:] = keep
    known[a:, :a] = keep.T
    d[~known] = np.nan
    from rblkit.measurement import Edm

    masked = Edm(d, known, a)
    report = complete_edm(masked, max_iters=200)
    removed = ~known
    rel = np.abs(report.completed.squared_distances[removed] - truth[removed]) / truth[removed]
    bit_identical = np.array_equal(
        report.completed.squared_distances[known], masked.squared_distances[known]
    )
    ok = rel.max() < 1e-6 and report.iterations <= 200 and bit_identical
    _report(
        5,
        "completion",
        ok,
        f"max relative error {rel.max():.2e} in {report.iterations} iterations, "
        f"known entries bit-identical: {bit_identical}",
    )


def test_criterion_06_incomplete_observation_benefit():
    scenario, _ = preset("fig5")
    sigma = 0.1
    sq_comp, sq_zero, crlb_sum = [], [], []
    skipped = 0
    for trial in range(500):
        seed = derive_seed(606, 11, 0, trial)
        truth, meas = _draw_trial(scenario, sigma, seed)
        edm = assemble_edm(scenario.anchors, scenario.conformation, meas)
        try:
            completed = complete_edm(edm).completed if not edm.is_complete() else edm
            est_c = estimate_pose_mds(completed, scenario.anchors, scenario.conformation)
            est_z = estimate_pose_mds(
                zero_imputed(edm) if not edm.is_complete() else edm,
                scenario.anchors,
                scenario.conformation,
            )
        except RblError:
            skipped += 1
            continue
        sq_comp.append(np.linalg.norm(est_c.pose.translation - truth.translation) ** 2)
        sq_zero.append(np.linalg.norm(est_z.pose.translation - truth.translation) ** 2)
        bound = fim_ranges(
            scenario.anchors, scenario.conformation, truth, meas.mask, sigma
        ).translation_bound
        crlb_sum.append(bound)
    sq_comp, sq_zero = np.array(sq_comp), np.array(sq_zero)
    mse_comp, mse_zero = sq_comp.mean(), sq_zero.mean()
    mean_crlb = float(np.mean(crlb_sum))

    diffs = sq_zero - sq_comp
    rng = np.random.default_rng(607)
    resamples = rng.choice(diffs, size=(10_000, diffs.size), replace=True).mean(axis=1)
    confidence = float(np.mean(resamples > 0.0))
    ok = (
        mse_comp < mse_zero
        and confidence >= 0.95
        and mse_comp >= mean_crlb
        and mse_zero >= mean_crlb
    )
    _report(
        6,
        "incomplete-observation benefit",
        ok,
        f"completion MSE {mse_comp:.4g} < zero-fill MSE {mse_zero:.4g} "
        f"(bootstrap confidence {confidence:.3f}), CRLB {mean_crlb:.4g}, "
        f"{skipped} trials skipped",
    )


def test_criterion_07_tracking():
    scenario, _ = preset("fig4")
    twist = Twist([0.0, 0.0, 0.1], [1.0, 0.0, 0.0])
    frames, truth = generate_trajectory(scenario, twist, n_frames=10, dt=0.1, sigma=0.0, seed=707)
    track = track_sequence(
        scenario.anchors, scenario.conformation, frames, TrackConfig(estimator="nls")
    )
    worst_twist = 0.0
    for frame, (true_pose, true_twist) in zip(track, truth):
        assert frame.error is None, frame.error
        worst_twist = max(
            worst_twist,
            float(np.abs(frame.twist_estimate.angular - true_twist.angular).max()),
            float(np.abs(frame.twist_estimate.linear - true_twist.linear).max()),
        )
    worst_resid = 0.0
    for frame, (true_pose, _) in zip(frames, truth):
        _, resid = estimate_twist(
            scenario.anchors,
            scenario.conformation,
            true_pose,
            frame.measurements.range_rates,
            mask=frame.measurements.mask,
        )
        worst_resid = max(worst_resid, resid)
    ok = worst_twist < 1e-7 and worst_resid < 1e-10
    _report(
        7,
        "tracking",
        ok,
        f"max twist error {worst_twist:.2e}, max residual at true pose {worst_resid:.2e} m/s",
    )


def test_criterion_08_estimator_comparability():
    scenario, experiment = preset("fig4")
    experiment = ExperimentConfig(
        sigma_grid=experiment.sigma_grid,
        trials=1000,
        master_seed=7,
        estimators=("mds", "nls", "gabp"),
        completion=True,
    )
    start = time.perf_counter()
    rows = run_benchmark(scenario, experiment)
    elapsed = time.perf_counter() - start
    by_tag = {tag: [r for r in rows if r.estimator == tag] for tag in ("mds", "nls", "gabp")}
    checks = []
    for tag, series in by_tag.items():
        trans = [r.rmse_translation_m for r in series]
        rot = [r.rmse_rotation_deg for r in series]
        checks.append(all(b >= a for a, b in zip(trans, trans[1:])))
        checks.append(all(b >= a for a, b in zip(rot, rot[1:])))
    ratios = []
    for g_row, n_row in zip(by_tag["gabp"], by_tag["nls"]):
        ratios.append(g_row.rmse_translation_m / n_row.rmse_translation_m)
        ratios.append(g_row.rmse_rotation_deg / n_row.rmse_rotation_deg)
    checks.append(all(r <= 2.0 for r in ratios))
    checks.append(elapsed < 300.0)
    _report(
        8,
        "estimator comparability",
        all(checks),
        f"{elapsed:.1f} s, max gabp/nls ratio {max(ratios):.2f}, monotone curves: "
        f"{checks[:6]}",
    )


def test_criterion_09_cli_determinism(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "rblkit.cli",
                "benchmark",
                "--preset",
                "fig4",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=560,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((out / "benchmark.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(9, "determinism", ok, f"{len(outputs[0])} bytes, bitwise identical: {ok}")


def test_criterion_10_semantic():
    rng = np.random.default_rng(1010)
    heading = SemanticHeading([1.0, 0.0, 0.0])
    worst = 0.0
    for _ in range(100_000):
        pose = Pose(random_rotation(rng), rng.uniform(-5, 5, 3))
        out = semantic_transform(heading, pose)
        worst = max(worst, abs(float(np.linalg.norm(out.world_vector)) - 1.0))
    quarter = Pose(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))
    rotated = semantic_transform(heading, quarter)
    exact = np.array_equal(rotated.world_vector, np.array([0.0, 1.0, 0.0]))
    ok = worst <= 1e-12 and exact
    _report(
        10,
        "semantic",
        ok,
        f"max unit-norm deviation {worst:.2e} over 1e5 poses, 90-degree case exact: {exact}",
    )
