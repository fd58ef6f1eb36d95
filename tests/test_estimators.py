from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    car_body,
    cube_anchors,
    random_pose,
    simulate_cube_ranges,
    truck_body,
    unit_cube,
)

from rblkit.errors import (
    AmbiguousAlignmentError,
    DegenerateEmbeddingError,
    IncompleteEdmError,
    InvalidHeadingError,
    UnderdeterminedError,
)
from rblkit.estimators import (
    PoseEstimate,
    SemanticHeading,
    _gabp_node_beliefs,
    _nls_residuals,
    estimate_pose_gabp,
    estimate_pose_mds,
    estimate_pose_nls,
    estimate_relative_pose,
    mds_from_ranges,
    multilaterate_node,
    procrustes,
    semantic_error,
    semantic_transform,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    apply_pose,
    random_rotation,
    range_links,
    rotation_error_deg,
    so3_exp,
)
from rblkit.harness import derive_seed, draw_trial, preset, run_benchmark, run_trial_estimators
from rblkit.measurement import (
    AnchorSet,
    BernoulliBlockage,
    MeasurementSet,
    NoiseModel,
    apply_blockage,
    assemble_edm,
    simulate_measurements,
)

RZ90_EXACT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def pose_errors(estimate: PoseEstimate, truth: Pose) -> tuple[float, float]:
    return (
        rotation_error_deg(estimate.pose.rotation, truth.rotation),
        float(np.linalg.norm(estimate.pose.translation - truth.translation)),
    )


class TestProcrustes:
    def test_identity_for_equal_sets(self):
        pts = unit_cube().nodes
        pose = procrustes(pts, pts)
        assert np.abs(pose.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(pose.translation).max() < 1e-12

    def test_recovers_synthetic_pose(self):
        rng = np.random.default_rng(1)
        src = unit_cube().nodes
        for _ in range(20):
            truth = random_pose(rng, translation_scale=2.0)
            tgt = apply_pose(unit_cube(), truth)
            got = procrustes(src, tgt)
            assert rotation_error_deg(got.rotation, truth.rotation) < 1e-9
            assert np.linalg.norm(got.translation - truth.translation) < 1e-9

    def test_planar_reflection_trap(self):
        rng = np.random.default_rng(2)
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.7, 0]])
        tgt = src @ np.diag([1.0, -1.0, 1.0])  # mirrored copy
        pose = procrustes(src, tgt)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-12)
        best = np.sum((src @ pose.rotation.T + pose.translation - tgt) ** 2)
        for _ in range(100_000):
            r = random_rotation(rng)
            centered_cost_t = tgt.mean(0) - r @ src.mean(0)
            cost = np.sum((src @ r.T + centered_cost_t - tgt) ** 2)
            assert best <= cost + 1e-9

    def test_weighted_optimality_random_search(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(-1, 1, (5, 3))
        tgt = rng.uniform(-1, 1, (5, 3))
        w = rng.uniform(0.1, 2.0, 5)

        def cost(r):
            t = np.average(tgt, axis=0, weights=w) - r @ np.average(src, axis=0, weights=w)
            return np.sum(w[:, None] * (src @ r.T + t - tgt) ** 2)

        best = cost(procrustes(src, tgt, weights=w).rotation)
        for _ in range(100_000):
            assert best <= cost(random_rotation(rng)) + 1e-9

    def test_collinear_source_raises(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3.0, 0, 0]])
        with pytest.raises(AmbiguousAlignmentError):
            procrustes(src, src)


class TestMultilaterateNode:
    ANCHORS = AnchorSet([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0]])

    def test_exact_recovery_at_centroid(self):
        target = self.ANCHORS.anchors.mean(axis=0)
        ranges = np.linalg.norm(self.ANCHORS.anchors - target, axis=1)
        fix = multilaterate_node(self.ANCHORS, ranges)
        assert np.linalg.norm(fix.position - target) < 1e-9
        assert not fix.ambiguous

    def test_zero_noise_generic_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            target = rng.uniform(-1, 3, 3)
            ranges = np.linalg.norm(self.ANCHORS.anchors - target, axis=1)
            fix = multilaterate_node(self.ANCHORS, ranges)
            assert fix.residual_rms < 1e-9
            assert np.linalg.norm(fix.position - target) < 1e-8

    def test_coplanar_anchors_flag_mirror_ambiguity(self):
        anchors = AnchorSet([[0, 0, 0], [4, 0, 0], [0, 4, 0], [4, 4, 0.0]])
        target = np.array([1.0, 1.5, 2.0])
        ranges = np.linalg.norm(anchors.anchors - target, axis=1)
        fix = multilaterate_node(anchors, ranges)
        assert fix.ambiguous

    def test_three_anchors_flagged(self):
        target = np.array([1.0, 1.0, 1.0])
        ranges = np.linalg.norm(self.ANCHORS.anchors - target, axis=1)
        ranges[3] = np.nan
        fix = multilaterate_node(self.ANCHORS, ranges)
        assert fix.ambiguous

    def test_underdetermined_raises(self):
        ranges = np.array([1.0, 2.0, np.nan, np.nan])
        with pytest.raises(UnderdeterminedError):
            multilaterate_node(self.ANCHORS, ranges)


class TestEstimatePoseMds:
    def test_cube_scenario_zero_noise(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            truth = random_pose(rng)
            conf, anchors, meas = simulate_cube_ranges(truth)
            est = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
            rot_err, trans_err = pose_errors(est, truth)
            assert rot_err < 1e-6
            assert trans_err < 1e-9

    def test_identity_pose(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        est = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
        assert np.abs(est.pose.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(est.pose.translation).max() < 1e-9

    def test_rmse_increases_with_sigma(self):
        rmse = []
        for sigma in (0.01, 0.1, 0.5):
            sq_sum = 0.0
            trials = 1000
            for trial in range(trials):
                rng = np.random.default_rng(10_000 + trial)
                truth = random_pose(rng)
                conf, anchors, meas = simulate_cube_ranges(
                    truth, sigma=sigma, seed=5_000_000 + trial
                )
                est = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
                sq_sum += np.linalg.norm(est.pose.translation - truth.translation) ** 2
            rmse.append(np.sqrt(sq_sum / trials))
        assert rmse[0] < rmse[1] < rmse[2]

    def test_incomplete_edm_rejected(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        blocked = apply_blockage(meas, BernoulliBlockage(p=0.3, seed=2))
        edm = assemble_edm(anchors, conf, blocked)
        with pytest.raises(IncompleteEdmError):
            estimate_pose_mds(edm, anchors, conf)

    def test_chain_full_observation_skips_completion(self):
        truth = random_pose(np.random.default_rng(8))
        conf, anchors, meas = simulate_cube_ranges(truth)
        est, report = mds_from_ranges(meas, anchors, conf)
        direct = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
        assert report is None
        assert np.array_equal(est.pose.rotation, direct.pose.rotation)
        assert np.array_equal(est.pose.translation, direct.pose.translation)

    def test_chain_completes_or_zero_fills_masked_edm(self):
        truth = random_pose(np.random.default_rng(9))
        conf, anchors, meas = simulate_cube_ranges(truth)
        blocked = apply_blockage(meas, BernoulliBlockage(p=0.3, seed=2))
        est, report = mds_from_ranges(blocked, anchors, conf)
        assert report is not None and report.converged
        assert np.linalg.norm(est.pose.translation - truth.translation) < 1e-6
        zero, no_report = mds_from_ranges(blocked, anchors, conf, completion=False)
        assert no_report is None
        assert np.linalg.norm(zero.pose.translation - truth.translation) > 1e-3

    def test_planar_joint_geometry_degenerate(self):
        conf = Conformation([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        anchors = AnchorSet([[3, 0, 0], [0, 3, 0], [-3, 0, 0], [0, -3, 0.0]])
        meas = simulate_measurements(anchors, RigidBodyState(conf, Pose.identity()), NoiseModel())
        edm = assemble_edm(anchors, conf, meas)
        with pytest.raises(DegenerateEmbeddingError):
            estimate_pose_mds(edm, anchors, conf)


class TestEstimatePoseNls:
    def test_zero_noise_recovery(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            truth = random_pose(rng)
            conf, anchors, meas = simulate_cube_ranges(truth)
            est = estimate_pose_nls(meas, anchors, conf)
            rot_err, trans_err = pose_errors(est, truth)
            assert rot_err < 1e-8 * 180 / np.pi or rot_err < 1e-8
            assert trans_err < 1e-8
            assert est.converged

    def test_init_at_truth_converges_immediately(self):
        rng = np.random.default_rng(12)
        truth = random_pose(rng)
        conf, anchors, meas = simulate_cube_ranges(truth)
        est = estimate_pose_nls(meas, anchors, conf, init=truth)
        assert est.iterations <= 2
        assert est.converged

    def test_angles_reduce_rotation_rmse(self):
        trials = 1000
        sq_range_only, sq_with_aoa = 0.0, 0.0
        noise = NoiseModel(range_sigma=0.3, angle_sigma=np.radians(1.0))
        conf, anchors = unit_cube(), cube_anchors()
        for trial in range(trials):
            rng = np.random.default_rng(40_000 + trial)
            truth = random_pose(rng)
            state = RigidBodyState(conf, truth)
            trial_noise = NoiseModel(
                range_sigma=noise.range_sigma,
                angle_sigma=noise.angle_sigma,
                seed=7_000_000 + trial,
            )
            meas = simulate_measurements(anchors, state, trial_noise, ("range", "aoa"))
            range_only = MeasurementSet(mask=meas.mask, ranges=meas.ranges)
            est_r = estimate_pose_nls(range_only, anchors, conf, noise=trial_noise)
            est_ra = estimate_pose_nls(meas, anchors, conf, noise=trial_noise)
            sq_range_only += rotation_error_deg(est_r.pose.rotation, truth.rotation) ** 2
            sq_with_aoa += rotation_error_deg(est_ra.pose.rotation, truth.rotation) ** 2
        assert np.sqrt(sq_with_aoa / trials) < np.sqrt(sq_range_only / trials)

    def test_adoa_mode_runs_and_recovers(self):
        rng = np.random.default_rng(13)
        truth = random_pose(rng)
        conf, anchors, meas = simulate_cube_ranges(truth, kinds=("range", "aoa"))
        est = estimate_pose_nls(meas, anchors, conf, use_adoa=True)
        rot_err, trans_err = pose_errors(est, truth)
        assert rot_err < 1e-6 and trans_err < 1e-8

    @pytest.mark.parametrize(
        "kinds, use_adoa",
        [(("range",), False), (("range", "aoa"), False), (("range", "aoa"), True)],
        ids=["ranges", "aoa", "adoa"],
    )
    def test_residual_only_cost_equals_full(self, kinds, use_adoa):
        # The line search costs trial poses from the residuals alone; that
        # cost must be the full call's res @ res bit for bit.
        rng = np.random.default_rng(14)
        conf, anchors = unit_cube(), cube_anchors()
        noise = NoiseModel(range_sigma=0.05, angle_sigma=0.02, seed=3)
        state = RigidBodyState(conf, random_pose(rng))
        meas = simulate_measurements(anchors, state, noise, kinds)
        meas = apply_blockage(meas, BernoulliBlockage(p=0.2, seed=4))
        jj, kk = np.nonzero(np.ones_like(meas.mask))
        observed = meas.mask.ravel()[None].astype(float)
        ranges = meas.ranges.ravel()[None]
        links = range_links(conf.nodes, kk, anchors.anchors[jj], ranges, observed)
        aoa = None
        if meas.aoa is not None:
            aoa = np.where(meas.mask[..., None], meas.aoa, 0.0).reshape(1, -1, 2)
        refs, az_weight = None, observed
        if use_adoa:
            first = meas.mask.argmax(axis=0)[kk]
            refs, az_weight = (first * meas.mask.shape[1] + kk)[None], observed * (jj != first)
        for _ in range(5):
            pose = random_pose(rng)
            args = (
                pose.rotation[None], pose.translation[None], links, observed, np.array([4.0]),
                aoa, np.array([9.0]), refs, az_weight,
            )
            res, jac, _ = _nls_residuals(*args)
            res_only, no_jac, _ = _nls_residuals(*args, jacobian=False)
            assert no_jac is None and jac.shape == res.shape + (6,)
            assert np.array_equal(res_only, res)
            assert float(np.vecdot(res_only, res_only)[0]) == float(res[0] @ res[0])
            # The range block is the np.linalg.norm form it replaces, zero
            # on unobserved links.
            world = conf.nodes @ pose.rotation.T + pose.translation
            dist = np.linalg.norm(world[kk] - anchors.anchors[jj], axis=1)
            expected = np.where(meas.mask.ravel(), 2.0 * (dist - meas.ranges.ravel()), 0.0)
            assert np.array_equal(res[0, : kk.size], expected)

    def test_underdetermined_raises(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        mask = np.zeros_like(meas.mask)
        mask[0, :5] = True
        sparse = MeasurementSet(mask=mask, ranges=meas.ranges)
        with pytest.raises(UnderdeterminedError):
            estimate_pose_nls(sparse, anchors, conf)

    def test_fig4_sigma_one_fits_converge(self):
        # An absolute step-norm test left 21 of these 200 fits "not converged",
        # and Gauss-Newton under the relative test still left 4 creeping
        # linearly at the 100-iteration cap. Newton steps on the range
        # curvature converge every one, in at most 6 iterations.
        scenario, _ = preset("fig4")
        failures = [
            run_trial_estimators(scenario, 1.0, derive_seed(2027, 11, 5, t), ("nls",))[0].failure
            for t in range(200)
        ]
        assert sum(f is not None and f.startswith("not converged") for f in failures) == 0


class TestEstimatePoseGabp:
    def test_matches_mds_zero_noise(self):
        rng = np.random.default_rng(17)
        truth = random_pose(rng)
        conf, anchors, meas = simulate_cube_ranges(truth)
        mds = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
        gabp = estimate_pose_gabp(meas, anchors, conf)
        assert rotation_error_deg(gabp.pose.rotation, mds.pose.rotation) < 1e-6
        assert np.linalg.norm(gabp.pose.translation - mds.pose.translation) < 1e-6
        assert gabp.converged
        assert gabp.node_variances.shape == (8, 3)

    def test_single_node_belief_equals_linear_solve(self):
        anchors = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0]])
        target = np.array([1.2, 0.7, 2.1])
        ranges = np.linalg.norm(anchors - target, axis=1).reshape(4, 1)
        mask = np.ones((4, 1), dtype=bool)
        mu, var, usable = _gabp_node_beliefs(anchors, ranges, mask, sigma=0.0)
        assert usable[0] and np.all(var[0] > 0.0)
        ref, others = anchors[0], anchors[1:]
        rows = 2.0 * (others - ref)
        rhs = (
            (ranges[0, 0] ** 2 - ranges[1:, 0] ** 2)
            + (others**2).sum(axis=1)
            - (ref**2).sum()
        )
        direct = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        assert np.abs(mu[0] - direct).max() < 1e-9

    def test_noisy_blocked_beliefs_equal_weighted_least_squares(self):
        # Per node: the weighted least-squares solution of the differenced
        # equations plus the weak prior, and the diagonal of inv(J).
        scenario, _ = preset("fig5")
        sigma = 0.05
        _, meas = draw_trial(scenario, sigma, seed=5)
        anchors = scenario.anchors.anchors
        assert not meas.mask.all()
        mu, var, usable = _gabp_node_beliefs(anchors, meas.ranges, meas.mask, sigma)
        prior = 1e-12
        for k in range(meas.mask.shape[1]):
            idx = np.flatnonzero(meas.mask[:, k])
            if idx.size < 3:
                assert not usable[k] and np.isnan(mu[k]).all() and np.isnan(var[k]).all()
                continue
            assert usable[k]
            r = meas.ranges[idx, k]
            a = anchors[idx]
            rows = 2.0 * (a[1:] - a[0])
            rhs = r[0] ** 2 - r[1:] ** 2 + (a[1:] ** 2).sum(axis=1) - (a[0] ** 2).sum()
            w = 1.0 / (4.0 * sigma**2 * (r[1:] ** 2 + r[0] ** 2))
            stacked = np.vstack([rows * np.sqrt(w)[:, None], np.sqrt(prior) * np.eye(3)])
            target = np.concatenate([rhs * np.sqrt(w), np.zeros(3)])
            expect = np.linalg.lstsq(stacked, target, rcond=None)[0]
            info = prior * np.eye(3) + rows.T @ (w[:, None] * rows)
            assert np.abs(mu[k] - expect).max() < 1e-9
            np.testing.assert_allclose(var[k], np.diag(np.linalg.inv(info)), rtol=1e-9)

    def test_direct_solve_reports_no_iterations(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        est = estimate_pose_gabp(meas, anchors, conf, noise=NoiseModel(range_sigma=0.1))
        assert (est.iterations, est.converged, est.message) == (0, True, "")

    def test_no_failures_on_fig5_preset(self):
        scenario, experiment = preset("fig5")
        experiment = replace(experiment, trials=3, estimators=("gabp",))
        rows = run_benchmark(scenario, experiment)
        assert len(rows) == len(experiment.sigma_grid)
        assert [row.failures for row in rows] == [0] * len(rows)

    def test_rmse_within_factor_two_of_nls(self):
        conf, anchors = unit_cube(), cube_anchors()
        for sigma in (0.01, 0.1):
            sq_gabp, sq_nls = 0.0, 0.0
            trials = 300
            for trial in range(trials):
                rng = np.random.default_rng(60_000 + trial)
                truth = random_pose(rng)
                noise = NoiseModel(range_sigma=sigma, seed=8_000_000 + trial)
                meas = simulate_measurements(anchors, RigidBodyState(conf, truth), noise)
                g = estimate_pose_gabp(meas, anchors, conf, noise=noise)
                n = estimate_pose_nls(meas, anchors, conf, noise=noise)
                sq_gabp += np.linalg.norm(g.pose.translation - truth.translation) ** 2
                sq_nls += np.linalg.norm(n.pose.translation - truth.translation) ** 2
            assert np.sqrt(sq_gabp / trials) <= 2.0 * np.sqrt(sq_nls / trials)

    def test_underdetermined_raises(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        mask = np.zeros_like(meas.mask)
        mask[:, :2] = True
        sparse = MeasurementSet(mask=mask, ranges=meas.ranges)
        with pytest.raises(UnderdeterminedError):
            estimate_pose_gabp(sparse, anchors, conf)


class TestEstimateRelativePose:
    @staticmethod
    def cross_ranges(ego, target_conf, rel_pose, sigma=0.0, seed=0):
        world = apply_pose(target_conf, rel_pose)
        noise = NoiseModel(range_sigma=sigma, seed=seed)
        from rblkit.measurement import simulate_ranges

        return simulate_ranges(AnchorSet(ego.nodes), world, noise)

    def test_truck_car_zero_noise_exact(self):
        rng = np.random.default_rng(23)
        ego, target = truck_body(), car_body()
        yaw = rng.uniform(-np.pi, np.pi)
        rel = Pose(
            np.array(
                [
                    [np.cos(yaw), -np.sin(yaw), 0],
                    [np.sin(yaw), np.cos(yaw), 0],
                    [0, 0, 1.0],
                ]
            ),
            [12.0, 3.0, 0.2],
        )
        cross = self.cross_ranges(ego, target, rel)
        est = estimate_relative_pose(ego, cross, target)
        assert rotation_error_deg(est.pose.rotation, rel.rotation) < 1e-7
        assert np.linalg.norm(est.pose.translation - rel.translation) < 1e-8
        assert est.method_tag == "relative-mds"

    def test_identity_relative_pose(self):
        ego = truck_body()
        cross = self.cross_ranges(ego, ego, Pose.identity())
        est = estimate_relative_pose(ego, cross, ego)
        assert np.abs(est.pose.rotation - np.eye(3)).max() < 1e-7
        assert np.abs(est.pose.translation).max() < 1e-8

    def test_masked_links_use_completion(self):
        rng = np.random.default_rng(29)
        ego, target = truck_body(), car_body()
        rel = Pose(random_rotation(rng), [10.0, -2.0, 0.5])
        cross = self.cross_ranges(ego, target, rel, sigma=0.05, seed=3)
        mask = np.random.default_rng(4).random(cross.shape) >= 0.2
        est = estimate_relative_pose(ego, cross, target, mask=mask)
        assert np.linalg.norm(est.pose.translation - rel.translation) < 0.5

    def test_refine_tag(self):
        ego, target = truck_body(), car_body()
        rel = Pose.identity()
        cross = self.cross_ranges(ego, target, rel)
        est = estimate_relative_pose(ego, cross, target, refine=True)
        assert est.method_tag == "relative-nls"


class TestSemantic:
    def test_identity_pose_keeps_vector(self):
        h = SemanticHeading([1.0, 0.0, 0.0])
        out = semantic_transform(h, Pose.identity())
        assert np.array_equal(out.world_vector, h.body_vector)

    def test_quarter_turn_exact(self):
        h = SemanticHeading([1.0, 0.0, 0.0])
        out = semantic_transform(h, Pose(RZ90_EXACT, np.zeros(3)))
        assert np.array_equal(out.world_vector, np.array([0.0, 1.0, 0.0]))

    def test_norm_preserved_random_poses(self):
        rng = np.random.default_rng(31)
        h = SemanticHeading([0.0, 0.0, 1.0])
        for _ in range(200):
            out = semantic_transform(h, random_pose(rng, translation_scale=5.0))
            assert abs(np.linalg.norm(out.world_vector) - 1.0) < 1e-12

    def test_non_unit_heading_rejected(self):
        with pytest.raises(InvalidHeadingError):
            SemanticHeading([1.0, 1.0, 0.0])

    def test_error_zero_for_equal(self):
        h = semantic_transform(SemanticHeading([1.0, 0, 0]), Pose.identity())
        angle, offset = semantic_error(h, h)
        assert angle == pytest.approx(0.0, abs=1e-9)
        assert offset == 0.0

    def test_error_opposite_vectors(self):
        a = SemanticHeading([1.0, 0, 0])
        b = SemanticHeading([1.0, 0, 0], world_vector=[-1.0, 0, 0])
        angle, _ = semantic_error(a, b)
        assert angle == pytest.approx(180.0, abs=1e-9)

    def test_error_consistency_with_pose_errors(self):
        rng = np.random.default_rng(37)
        h = SemanticHeading([1.0, 0.0, 0.0])
        truth = random_pose(rng)
        estimate = random_pose(rng)
        a = semantic_transform(h, truth)
        b = semantic_transform(h, estimate)
        angle, offset = semantic_error(a, b)
        direct_cos = np.clip(
            (truth.rotation @ h.body_vector) @ (estimate.rotation @ h.body_vector), -1, 1
        )
        assert angle == pytest.approx(np.degrees(np.arccos(direct_cos)), abs=1e-9)
        assert offset == pytest.approx(
            np.linalg.norm(truth.translation - estimate.translation), abs=1e-12
        )
        assert angle <= rotation_error_deg(truth.rotation, estimate.rotation) + 1e-9


@st.composite
def fig4_masked_draws(draw):
    """A random pose of the fig4 cube, its noiseless ranges under a random
    Bernoulli link mask, and a nearby NLS start. Every node keeps at least
    four non-coplanar anchors: where the mask leaves fewer, anchors are
    added back in a random order until it does."""
    scenario, _ = preset("fig4")
    anchors, conf = scenario.anchors, scenario.conformation
    box = scenario.pose_distribution
    axis_angle = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    trans = [draw(st.floats(lo, hi)) for lo, hi in zip(box.translation_low, box.translation_high)]
    truth = Pose(so3_exp(axis_angle), trans)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((anchors.num_anchors, conf.num_nodes)) < draw(st.floats(0.2, 1.0))
    for node in range(conf.num_nodes):
        for j in rng.permutation(anchors.num_anchors):
            seen = anchors.anchors[keep[:, node]]
            if len(seen) >= 4 and np.linalg.matrix_rank(seen - seen.mean(axis=0)) == 3:
                break
            keep[j, node] = True
    meas = simulate_measurements(anchors, RigidBodyState(conf, truth), NoiseModel())
    meas = MeasurementSet(mask=keep, ranges=np.where(keep, meas.ranges, np.nan))
    nudge = [draw(st.floats(-0.2, 0.2)) for _ in range(6)]
    start = Pose(truth.rotation @ so3_exp(nudge[:3]), truth.translation + nudge[3:])
    return anchors, conf, truth, meas, start


class TestNoiselessRecovery:
    # Wherever the truth is reachable, "converged" has to mean exact: each
    # estimator recovers a noiseless pose under a random mask.

    @settings(max_examples=50, deadline=None)
    @given(fig4_masked_draws())
    def test_every_estimator_recovers_the_pose(self, drawn):
        anchors, conf, truth, meas, start = drawn
        mds, report = mds_from_ranges(meas, anchors, conf)
        assert report is None or report.converged
        for est in (
            mds,
            estimate_pose_nls(meas, anchors, conf, init=start),
            estimate_pose_gabp(meas, anchors, conf),
        ):
            assert est.converged
            rot_err, trans_err = pose_errors(est, truth)
            assert trans_err < 1e-9 and rot_err < 1e-7


class TestEstimatorInvariants:
    def test_equivariance_under_world_rotation(self):
        rng = np.random.default_rng(41)
        w = random_rotation(rng)
        truth = random_pose(rng)
        conf, anchors, meas = simulate_cube_ranges(truth)
        rotated_anchors = AnchorSet(anchors.anchors @ w.T)
        rotated_truth = Pose(w @ truth.rotation, w @ truth.translation)
        rotated_meas = MeasurementSet(
            mask=meas.mask,
            ranges=np.linalg.norm(
                apply_pose(conf, rotated_truth)[None, :, :]
                - rotated_anchors.anchors[:, None, :],
                axis=-1,
            ),
        )

        def run(tag, m, a):
            if tag == "mds":
                return estimate_pose_mds(assemble_edm(a, conf, m), a, conf)
            if tag == "nls":
                return estimate_pose_nls(m, a, conf)
            return estimate_pose_gabp(m, a, conf)

        for tag in ("mds", "nls", "gabp"):
            base = run(tag, meas, anchors)
            rotated = run(tag, rotated_meas, rotated_anchors)
            assert np.abs(rotated.pose.rotation - w @ base.pose.rotation).max() < 1e-8
            assert np.abs(rotated.pose.translation - w @ base.pose.translation).max() < 1e-8

    def test_returned_rotations_satisfy_so3(self):
        rng = np.random.default_rng(43)
        truth = random_pose(rng)
        conf, anchors, meas = simulate_cube_ranges(truth, sigma=0.3, seed=9)
        for est in (
            estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf),
            estimate_pose_nls(meas, anchors, conf),
            estimate_pose_gabp(meas, anchors, conf),
        ):
            r = est.pose.rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_pose_estimate_json(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        doc = estimate_pose_nls(meas, anchors, conf).to_json_dict()
        assert len(doc["rotation"]) == 9
        assert len(doc["axis_angle"]) == 3
        assert doc["method_tag"] == "nls"
        assert doc["converged"] is True
