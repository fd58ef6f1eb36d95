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

import rblkit.estimators
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
    chain_batch,
    gabp_batch,
    nls_batch,
    nls_weights,
    estimate_pose_gabp,
    estimate_pose_mds,
    estimate_pose_nls,
    mds_from_ranges,
    procrustes,
    semantic_error,
    semantic_transform,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    apply_pose,
    fit_terms,
    grid_links,
    haar_rotations,
    random_rotation,
    rotation_error_deg,
    so3_exp,
    transform_points,
)
from rblkit.harness import (
    BlockageSpec,
    _run_trials,
    derive_seed,
    draw_trial,
    generate_trajectory,
    preset,
    run_benchmark,
)
from rblkit.measurement import (
    STREAM_BLOCKAGE,
    AnchorSet,
    MeasurementSet,
    NoiseModel,
    apply_blockage,
    assemble_edm,
    bernoulli_keep,
    noise_keys,
    simulate_batch,
    simulate_measurements,
    streams,
)
from rblkit.tracking import TrackConfig, track_sequence

RZ90_EXACT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def bernoulli_mask(p: float, seed: int, shape) -> np.ndarray:
    return bernoulli_keep(streams([seed], STREAM_BLOCKAGE), p, shape)[0]


def so3_deviation(rot) -> float:
    """The larger of max |R^T R - I| and max |det R - 1| over a stack of rotations."""
    return max(np.abs(rot.mT @ rot - np.eye(3)).max(), np.abs(np.linalg.det(rot) - 1.0).max())


def pose_errors(estimate: PoseEstimate, truth: Pose) -> tuple[float, float]:
    return (
        rotation_error_deg(estimate.pose.rotation, truth.rotation),
        float(np.linalg.norm(estimate.pose.translation - truth.translation)),
    )


class TestProcrustes:
    def test_identity_for_equal_sets(self):
        pts = unit_cube().nodes
        rot, trans, collinear = procrustes(pts, pts)
        assert np.abs(rot - np.eye(3)).max() < 1e-12
        assert np.abs(trans).max() < 1e-12
        assert not collinear

    def test_recovers_synthetic_pose(self):
        # One stacked call fits 20 poses.
        rng = np.random.default_rng(1)
        src = unit_cube().nodes
        truths = [random_pose(rng, translation_scale=2.0) for _ in range(20)]
        tgt = np.array([apply_pose(unit_cube(), truth) for truth in truths])
        rot, trans, collinear = procrustes(src, tgt)
        assert rot.shape == (20, 3, 3) and not collinear.any()
        for i, truth in enumerate(truths):
            assert rotation_error_deg(rot[i], truth.rotation) < 1e-9
            assert np.linalg.norm(trans[i] - truth.translation) < 1e-9

    def test_planar_reflection_trap(self):
        rng = np.random.default_rng(2)
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.7, 0]])
        tgt = src @ np.diag([1.0, -1.0, 1.0])  # mirrored copy
        rot, trans, _ = procrustes(src, tgt)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        best = np.sum((src @ rot.T + trans - tgt) ** 2)
        # 100,000 random_rotation(rng) draws, as one stack from the same stream.
        r = haar_rotations(rng.standard_normal((100_000, 4)))
        centered_cost_t = tgt.mean(0) - r @ src.mean(0)
        cost = np.sum((src @ r.mT + centered_cost_t[:, None] - tgt) ** 2, axis=(1, 2))
        assert np.all(best <= cost + 1e-9)

    def test_weighted_optimality_random_search(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(-1, 1, (5, 3))
        tgt = rng.uniform(-1, 1, (5, 3))
        w = rng.uniform(0.1, 2.0, 5)

        def cost(r):
            """The weighted cost of each rotation of a (N, 3, 3) stack."""
            t = np.average(tgt, axis=0, weights=w) - r @ np.average(src, axis=0, weights=w)
            return np.sum(w[:, None] * (src @ r.mT + t[:, None] - tgt) ** 2, axis=(1, 2))

        best = cost(procrustes(src, tgt, weights=w)[0][None])[0]
        # 100,000 random_rotation(rng) draws, as one stack from the same stream.
        assert np.all(best <= cost(haar_rotations(rng.standard_normal((100_000, 4)))) + 1e-9)

    def test_collinear_source_flagged(self):
        # A collinear source, or one whose weights leave only collinear
        # points, is flagged item by item.
        line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3.0, 0, 0]])
        assert procrustes(line, line)[2]
        src = np.vstack([line, [[0, 1, 0], [0, 0, 1.0]]])
        weights = np.array([[1.0] * 6, [1.0] * 4 + [0.0] * 2])
        assert procrustes(src, np.array([src, src]), weights)[2].tolist() == [False, True]


class TestMultilaterateNode:
    """Per-node multilateration is GaBP's stage 1: each node's belief mean
    solves its differenced squared-range equations, and a direction they
    leave unobserved keeps the weak prior's variance."""

    ANCHORS = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4.0]])

    @staticmethod
    def beliefs(anchors, targets, mask=None):
        ranges = np.linalg.norm(anchors[:, None, :] - targets[None, :, :], axis=-1)
        mask = np.ones(ranges.shape, dtype=bool) if mask is None else mask
        return _gabp_node_beliefs(anchors, ranges, mask, sigma=0.0)

    def test_exact_recovery_at_centroid(self):
        target = self.ANCHORS.mean(axis=0, keepdims=True)
        mu, var, usable = self.beliefs(self.ANCHORS, target)
        assert usable[0] and np.linalg.norm(mu[0] - target[0]) < 1e-9
        assert var[0].max() < 1.0

    def test_zero_noise_generic_residual(self):
        targets = np.random.default_rng(5).uniform(-1, 3, (20, 3))
        mu, _, usable = self.beliefs(self.ANCHORS, targets)
        assert usable.all()
        assert np.abs(mu - targets).max() < 1e-8
        ranges = np.linalg.norm(self.ANCHORS[:, None, :] - targets[None, :, :], axis=-1)
        fitted = np.linalg.norm(self.ANCHORS[:, None, :] - mu[None, :, :], axis=-1)
        assert np.abs(fitted - ranges).max() < 1e-9

    def test_coplanar_anchors_flag_mirror_ambiguity(self):
        # The mirror image through the anchors' plane fits as well: the
        # plane's normal keeps the prior's variance 1e12, and its mean 0.
        anchors = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [4, 4, 0.0]])
        target = np.array([[1.0, 1.5, 2.0]])
        mu, var, usable = self.beliefs(anchors, target)
        assert usable[0]
        assert np.abs(mu[0] - [1.0, 1.5, 0.0]).max() < 1e-9
        assert var[0, 2] == pytest.approx(1e12) and var[0, :2].max() < 1.0

    def test_three_anchors_flagged(self):
        target = np.array([[1.0, 1.0, 1.0]])
        mask = np.array([[True], [True], [True], [False]])
        mu, var, usable = self.beliefs(self.ANCHORS, target, mask)
        assert usable[0]
        assert var[0, 2] == pytest.approx(1e12) and var[0, :2].max() < 1.0


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
        # Each level's 1,000 simulate_cube_ranges trials as one stack with the
        # same seeds: every item gets the numbers estimate_pose_mds gets alone,
        # and the squares add in trial order.
        trials = 1000
        conf, anchors = unit_cube(), cube_anchors()
        truths = [random_pose(np.random.default_rng(10_000 + trial)) for trial in range(trials)]
        rot = np.array([truth.rotation for truth in truths])
        world = transform_points(conf.nodes, rot, np.array([truth.translation for truth in truths]))
        seeds, mask = 5_000_000 + np.arange(trials), np.ones((trials, 8, 8), dtype=bool)
        rmse = []
        for sigma in (0.01, 0.1, 0.5):
            sigmas = [(sigma, 0.0, 0.0)] * trials
            rngs = streams(*noise_keys(sigmas, seeds, ("range",)))
            ranges = simulate_batch(anchors.anchors, world, sigmas, rngs, ("range",))[0]
            batch = chain_batch(anchors.anchors, conf.nodes, ranges, mask).mds
            sq_sum = 0.0
            for i, truth in enumerate(truths):
                offset = batch.estimate(i).pose.translation - truth.translation
                sq_sum += np.linalg.norm(offset) ** 2
            rmse.append(np.sqrt(sq_sum / trials))
        assert rmse[0] < rmse[1] < rmse[2]

    def test_incomplete_edm_rejected(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        blocked = apply_blockage(meas, bernoulli_mask(0.3, 2, meas.shape))
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

    def test_fully_observed_stack_never_reaches_completion(self, monkeypatch):
        # A stack with no missing link pays for no empty completion, and its
        # MDS estimates are the direct ones, bit for bit.
        def refuse(*args, **kwargs):
            raise AssertionError("complete_batch called on a fully observed stack")

        rng = np.random.default_rng(81)
        draws = [simulate_cube_ranges(random_pose(rng), sigma=0.01, seed=s)[2] for s in range(4)]
        conf, anchors = unit_cube(), cube_anchors()
        monkeypatch.setattr(rblkit.estimators, "complete_batch", refuse)
        chain = chain_batch(
            anchors.anchors, conf.nodes,
            np.stack([m.ranges for m in draws]), np.stack([m.mask for m in draws]),
        )
        assert chain.completion is None and chain.completed_items.size == 0
        for i, meas in enumerate(draws):
            direct = estimate_pose_mds(assemble_edm(anchors, conf, meas), anchors, conf)
            assert chain.report(i) is None
            assert np.array_equal(chain.mds.rotation[i], direct.pose.rotation)
            assert np.array_equal(chain.mds.translation[i], direct.pose.translation)

    def test_chain_completes_or_zero_fills_masked_edm(self):
        truth = random_pose(np.random.default_rng(9))
        conf, anchors, meas = simulate_cube_ranges(truth)
        blocked = apply_blockage(meas, bernoulli_mask(0.3, 2, meas.shape))
        est, report = mds_from_ranges(blocked, anchors, conf)
        assert report is not None and report.converged
        assert np.linalg.norm(est.pose.translation - truth.translation) < 1e-6
        chain = chain_batch(
            anchors.anchors, conf.nodes, blocked.ranges[None], blocked.mask[None], completion=False
        )
        zero, no_report = chain.mds.estimate(0), chain.report(0)
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
    @pytest.mark.parametrize("kinds", [("range",), ("range", "aoa")], ids=["ranges", "aoa"])
    def test_unweighted_equals_unit_weights_on_hull_frames(self, kinds):
        # Without a noise model the fit is unweighted, as the tracker runs it;
        # the unit-weight stack it stands for gives the same bits, cold and
        # warm started, on hull-occluded frames.
        scenario, _ = preset("fig4")
        scenario = replace(
            scenario, blockage=BlockageSpec(kind="hull"), measurement_kinds=kinds,
            noise=NoiseModel(angle_sigma=0.01 if "aoa" in kinds else 0.0),
        )
        twist = Twist([0.4, -0.2, 0.3], [0.02, 0.01, -0.03])
        frames, truth = generate_trajectory(scenario, twist, 12, 0.05, 0.05, 5)
        anchors, conf, ones = scenario.anchors, scenario.conformation, np.ones(1)
        for frame, (pose, _) in zip(frames, truth):
            meas = frame.measurements
            assert not meas.mask.all()
            for init in (None, pose):
                got = estimate_pose_nls(meas, anchors, conf, init=init, noise=None)
                start = init and (init.rotation[None], init.translation[None], [None])
                aoa = None if meas.aoa is None else meas.aoa[None]
                want = nls_batch(
                    anchors.anchors, conf.nodes, meas.mask[None], meas.ranges[None], aoa,
                    ones, ones, start,
                ).estimate(0)
                assert got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
                assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
                assert got.to_json_dict() == want.to_json_dict()

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
        # 1,000 trials as one stack with the seeds of 1,000 simulate_measurements
        # calls: every item gets the numbers estimate_pose_nls gets alone, with
        # and without its angles, and the squares add in trial order.
        trials = 1000
        noise = NoiseModel(range_sigma=0.3, angle_sigma=np.radians(1.0))
        conf, anchors = unit_cube(), cube_anchors()
        truths = [random_pose(np.random.default_rng(40_000 + trial)) for trial in range(trials)]
        rot = np.array([truth.rotation for truth in truths])
        world = transform_points(conf.nodes, rot, np.array([truth.translation for truth in truths]))
        seeds = 7_000_000 + np.arange(trials)
        sigmas, kinds = [noise.sigmas] * trials, ("range", "aoa")
        rngs = streams(*noise_keys(sigmas, seeds, kinds))
        ranges, aoa, _ = simulate_batch(anchors.anchors, world, sigmas, rngs, kinds)
        mask = np.ones((trials, 8, 8), dtype=bool)
        w_range, w_angle = nls_weights([[noise.range_sigma] * trials, [noise.angle_sigma] * trials])
        fits = [
            nls_batch(anchors.anchors, conf.nodes, mask, ranges, angles, w_range, w_angle)
            for angles in (None, aoa)
        ]
        sq_range_only, sq_with_aoa = 0.0, 0.0
        for i, truth in enumerate(truths):
            range_only, with_aoa = (fit.estimate(i).pose.rotation for fit in fits)
            sq_range_only += rotation_error_deg(range_only, truth.rotation) ** 2
            sq_with_aoa += rotation_error_deg(with_aoa, truth.rotation) ** 2
        assert np.sqrt(sq_with_aoa / trials) < np.sqrt(sq_range_only / trials)

    @pytest.mark.parametrize("kinds", [("range",), ("range", "aoa")], ids=["ranges", "aoa"])
    def test_residual_only_cost_equals_full(self, kinds):
        # The line search costs trial poses from the residuals alone; that
        # cost must be the full call's res @ res bit for bit.
        rng = np.random.default_rng(14)
        conf, anchors = unit_cube(), cube_anchors()
        noise = NoiseModel(range_sigma=0.05, angle_sigma=0.02, seed=3)
        state = RigidBodyState(conf, random_pose(rng))
        meas = simulate_measurements(anchors, state, noise, kinds)
        meas = apply_blockage(meas, bernoulli_mask(0.2, 4, meas.shape))
        jj, kk = np.nonzero(np.ones_like(meas.mask))
        links = grid_links(anchors.anchors, conf.nodes, meas.ranges[None], meas.mask[None])
        aoa = None
        if meas.aoa is not None:
            aoa = np.where(meas.mask[..., None], meas.aoa, 0.0).reshape(1, -1, 2)
        for _ in range(5):
            pose = random_pose(rng)
            args = (
                pose.rotation[None], pose.translation[None], links, np.array([[2.0]]),
                np.array([[[4.0]]]), aoa, np.array([[3.0]]),
            )
            res, jac, _, _ = fit_terms(*args, True, None)
            res_only, no_jac, _, geometry = fit_terms(*args, False, None)
            # The trial's geometry, handed back, gives the same rows bit for bit.
            again, reused, _, _ = fit_terms(*args, True, geometry)
            assert np.array_equal(again, res) and np.array_equal(reused, jac)
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

    def test_angles_without_ranges_raise(self):
        # NLS is a range fit, as MDS and GaBP are: angles alone, however
        # many, start nothing.
        conf, anchors, meas = simulate_cube_ranges(Pose.identity(), kinds=("range", "aoa"))
        angles_only = MeasurementSet(mask=meas.mask, aoa=meas.aoa)
        with pytest.raises(UnderdeterminedError, match="needs range measurements"):
            estimate_pose_nls(angles_only, anchors, conf)

    def test_fig4_sigma_one_fits_converge(self):
        # An absolute step-norm test left 21 of these 200 fits "not converged",
        # and Gauss-Newton under the relative test still left 4 creeping
        # linearly at the 100-iteration cap. Newton steps on the range
        # curvature converge every one, in at most 6 iterations.
        scenario, _ = preset("fig4")
        seeds = [derive_seed(2027, 11, 5, t) for t in range(200)]
        failures = _run_trials(scenario, [1.0] * 200, seeds, ("nls",), True).failures["nls"]
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

    def test_collinear_usable_nodes_are_ambiguous(self):
        # Only the three nodes on the x axis see >= 3 anchors, so the
        # precision-weighted fit cannot see the rotation about that axis.
        nodes = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        anchors = cube_anchors().anchors
        ranges = np.linalg.norm(anchors[:, None, :] - nodes[None, :, :], axis=-1)
        mask = np.ones(ranges.shape, dtype=bool)
        mask[2:, 3:] = False
        batch = gabp_batch(anchors, nodes, mask[None], ranges[None], [0.1])
        with pytest.raises(AmbiguousAlignmentError, match="collinear"):
            batch.estimate(0)


class TestEstimateRelativePose:
    """The pose of a target body relative to an ego body, as fig5 runs it:
    the anchored pipeline with the ego's body-frame nodes as the anchors."""

    @staticmethod
    def cross_ranges(ego, target_conf, rel_pose, sigma=0.0, seed=0):
        state = RigidBodyState(target_conf, rel_pose)
        noise = NoiseModel(range_sigma=sigma, seed=seed)
        return simulate_measurements(AnchorSet(ego.nodes), state, noise)

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
        meas = self.cross_ranges(ego, target, rel)
        mds, report = mds_from_ranges(meas, AnchorSet(ego.nodes), target)
        nls = estimate_pose_nls(meas, AnchorSet(ego.nodes), target, init=mds.pose)
        assert report is None and nls.converged
        for est in (mds, nls):
            assert rotation_error_deg(est.pose.rotation, rel.rotation) < 1e-7
            assert np.linalg.norm(est.pose.translation - rel.translation) < 1e-8

    def test_identity_relative_pose(self):
        ego = truck_body()
        meas = self.cross_ranges(ego, ego, Pose.identity())
        est, _ = mds_from_ranges(meas, AnchorSet(ego.nodes), ego)
        assert np.abs(est.pose.rotation - np.eye(3)).max() < 1e-7
        assert np.abs(est.pose.translation).max() < 1e-8

    def test_masked_links_use_completion(self):
        rng = np.random.default_rng(29)
        ego, target = truck_body(), car_body()
        rel = Pose(random_rotation(rng), [10.0, -2.0, 0.5])
        meas = self.cross_ranges(ego, target, rel, sigma=0.05, seed=3)
        mask = np.random.default_rng(4).random(meas.shape) >= 0.2
        blocked = MeasurementSet(mask=mask, ranges=meas.ranges)
        est, report = mds_from_ranges(blocked, AnchorSet(ego.nodes), target)
        assert report is not None
        assert np.linalg.norm(est.pose.translation - rel.translation) < 0.5


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
    trans = [draw(st.floats(lo, hi)) for lo, hi in box.translation_box]
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

    # NLS moves a rotation only by the retraction R expm([step]x), so its rotations
    # stay on SO(3) to rounding without a re-projection.
    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_nls_stack_rotations_stay_orthonormal(self, name):
        scenario, _ = preset(name)
        batch = _run_trials(scenario, np.full(256, 1.0), np.arange(256), ("nls",), True)
        nls = batch.estimates["nls"]
        fitted = nls.rotation[[e is None for e in nls.errors]]
        assert len(fitted) > 200 and so3_deviation(fitted) <= 1e-12

    def test_warm_started_track_rotations_stay_orthonormal(self):
        # Each frame starts from the last estimate propagated by its twist, so
        # rounding could only build up from frame to frame; 500 frames show none.
        scenario, _ = preset("fig4")
        scenario = replace(
            scenario,
            blockage=BlockageSpec(kind="hull"),
            measurement_kinds=("range", "range_rate"),
            noise=NoiseModel(range_rate_sigma=0.01),
        )
        twist = Twist([0.3, -0.2, 0.4], [0.05, -0.03, 0.02])
        frames, _ = generate_trajectory(scenario, twist, 500, 0.05, 0.01, 31)
        track = track_sequence(scenario.anchors, scenario.conformation, frames, TrackConfig("nls"))
        fitted = [f.pose_estimate.pose.rotation for f in track if f.pose_estimate is not None]
        assert len(fitted) > 450 and so3_deviation(np.array(fitted)) <= 1e-12

    def test_pose_estimate_json(self):
        conf, anchors, meas = simulate_cube_ranges(Pose.identity())
        doc = estimate_pose_nls(meas, anchors, conf).to_json_dict()
        assert len(doc["rotation"]) == 9
        assert len(doc["axis_angle"]) == 3
        assert doc["method_tag"] == "nls"
        assert doc["converged"] is True


class TestResidualRms:
    """residual_rms is the RMS of the observed-range residuals at the
    returned pose, for every estimator: blocked links never count, and
    neither do completed or zero-filled EDM entries."""

    @staticmethod
    def draws(n=32, sigma=0.032):
        scenario, _ = preset("fig5")
        draws = [draw_trial(scenario, sigma, derive_seed(21, 11, 0, t)) for t in range(n)]
        mask = np.array([meas.mask for _, meas in draws])
        ranges = np.array([meas.ranges for _, meas in draws])
        return scenario.anchors.anchors, scenario.conformation.nodes, mask, ranges

    @staticmethod
    def observed_rms(batch, anchors, nodes, mask, ranges):
        out = []
        for i in range(len(mask)):
            world = nodes @ batch.rotation[i].T + batch.translation[i]
            dist = np.linalg.norm(world[None, :, :] - anchors[:, None, :], axis=-1)
            out.append(np.sqrt(np.mean((dist - ranges[i])[mask[i]] ** 2)))
        return np.array(out)

    @pytest.mark.parametrize("completion", [True, False], ids=["completed", "zero-filled"])
    def test_mds_scores_observed_links(self, completion):
        anchors, nodes, mask, ranges = self.draws()
        assert not mask.all()
        mds = chain_batch(anchors, nodes, ranges, mask, completion).mds
        expected = self.observed_rms(mds, anchors, nodes, mask, ranges)
        assert np.allclose(mds.residual_rms, expected, rtol=1e-12, atol=0.0)

    def test_nls_scores_nan_where_failed(self):
        # Scored when read, NLS still gives an item that failed before its fit NaN.
        anchors, nodes, mask, ranges = self.draws(n=4)
        mask = mask.copy()
        mask[1, :, 2:] = mask[1, 1:] = False  # under 6 observed ranges for 6 unknowns
        ones = np.ones(len(mask))
        batch = nls_batch(anchors, nodes, mask, ranges, None, ones, ones)
        assert isinstance(batch.errors[1], UnderdeterminedError)
        assert all(e is None for e in batch.errors[::2] + batch.errors[3:])
        rms = batch.residual_rms
        assert np.isnan(rms[1]) and np.isfinite(rms[[0, 2, 3]]).all()

    def test_gabp_and_nls_score_observed_links(self):
        anchors, nodes, mask, ranges = self.draws()
        sigma = np.full(len(mask), 0.032)
        w_range, w_angle = nls_weights([sigma, sigma])
        for batch in (
            gabp_batch(anchors, nodes, mask, ranges, sigma),
            nls_batch(anchors, nodes, mask, ranges, None, w_range, w_angle),
        ):
            expected = self.observed_rms(batch, anchors, nodes, mask, ranges)
            assert np.allclose(batch.residual_rms, expected, rtol=1e-12, atol=0.0)
