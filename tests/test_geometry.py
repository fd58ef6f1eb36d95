import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rblkit.errors import (
    DegenerateConformationError,
    DegenerateProjectionError,
    InvalidIntervalError,
    InvalidPoseError,
    MissingTwistError,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    apply_pose,
    compose_poses,
    inverse_pose,
    node_velocities,
    pairwise_distances,
    parse_points,
    pose_gauss_newton,
    pose_jacobian_rows,
    propagate_state,
    random_rotation,
    range_links,
    range_residuals,
    rotation_error_deg,
    so3_exp,
    so3_log,
    so3_project,
    twist_jacobian_rows,
)
from rblkit.harness import preset

RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def unit_cube() -> Conformation:
    corners = np.array(
        [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    )
    return Conformation(corners)


def random_pose(rng) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-2, 2, size=3))


def random_state(rng) -> RigidBodyState:
    twist = Twist(rng.uniform(-1, 1, size=3), rng.uniform(-2, 2, size=3))
    return RigidBodyState(unit_cube(), random_pose(rng), twist)


def central_diff_positions(state, delta):
    """Positions at +/-delta via propagate_state; backward uses the reversed twist."""
    fwd = propagate_state(state, delta).world_nodes()
    rev = RigidBodyState(
        state.conformation,
        state.pose,
        Twist(-state.twist.angular, -state.twist.linear),
    )
    bwd = propagate_state(rev, delta).world_nodes()
    return (fwd - bwd) / (2.0 * delta)


class TestConformation:
    def test_rejects_fewer_than_three_nodes(self):
        with pytest.raises(DegenerateConformationError):
            Conformation([[0, 0, 0], [1, 0, 0]])

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateConformationError):
            Conformation([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(DegenerateConformationError):
            Conformation([[0, 0, 0], [0, 0, 0], [1, 1, 0]])

    def test_planar_flagged(self):
        flat = Conformation([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert flat.is_planar
        assert not unit_cube().is_planar

    def test_not_auto_centered(self):
        conf = Conformation([[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.allclose(conf.centroid(), [1.25, 1.25, 1.25])
        assert np.allclose(conf.centered().centroid(), 0.0)

    def test_nodes_are_readonly(self):
        conf = unit_cube()
        with pytest.raises(ValueError):
            conf.nodes[0, 0] = 9.0


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidPoseError):
            Pose(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(InvalidPoseError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_identity(self):
        p = Pose.identity()
        assert np.array_equal(p.rotation, np.eye(3))
        assert np.array_equal(p.translation, np.zeros(3))


class TestApplyPose:
    def test_identity_returns_conf(self):
        conf = unit_cube()
        out = apply_pose(conf, Pose.identity())
        assert np.allclose(out, conf.nodes)

    def test_hand_computed_rotation(self):
        conf = Conformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        pose = Pose(RZ90, [1.0, 0.0, 0.0])
        out = apply_pose(conf, pose)
        assert np.allclose(out[0], [1.0, 1.0, 0.0], atol=1e-12)

    def test_matches_per_node_loop_oracle(self):
        rng = np.random.default_rng(11)
        conf = unit_cube()
        pose = random_pose(rng)
        out = apply_pose(conf, pose)
        for k in range(conf.num_nodes):
            expected = pose.rotation @ conf.nodes[k] + pose.translation
            assert np.allclose(out[k], expected, atol=1e-12)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(12)
        conf = unit_cube()
        for _ in range(20):
            out = apply_pose(conf, random_pose(rng))
            assert np.abs(
                pairwise_distances(out) - pairwise_distances(conf.nodes)
            ).max() < 1e-9

    def test_group_composition(self):
        rng = np.random.default_rng(13)
        conf = unit_cube()
        for _ in range(10):
            p1, p2 = random_pose(rng), random_pose(rng)
            via_two = apply_pose(Conformation(apply_pose(conf, p1)), p2)
            via_composed = apply_pose(conf, compose_poses(p2, p1))
            assert np.abs(via_two - via_composed).max() < 1e-9

    def test_inverse_pose(self):
        rng = np.random.default_rng(14)
        p = random_pose(rng)
        ident = compose_poses(inverse_pose(p), p)
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(ident.translation, 0.0, atol=1e-12)


# (M, 6) blocks of finite reals: body points, then gradients or lines of sight.
jacobian_inputs = arrays(
    float,
    st.tuples(st.integers(1, 12), st.just(6)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
rotation_seeds = st.integers(0, 2**32 - 1)


class TestJacobianRows:
    # The rows are written out component by component; they must equal the
    # np.cross formula they replace bit for bit, not just to rounding.

    @settings(max_examples=200, deadline=None)
    @given(jacobian_inputs, rotation_seeds)
    def test_pose_rows_equal_cross_formula(self, block, seed):
        nodes, grads = block[:, :3], block[:, 3:]
        rot = random_rotation(np.random.default_rng(seed))
        expected = np.hstack([np.cross(nodes, grads @ rot), grads])
        assert np.array_equal(pose_jacobian_rows(nodes, grads, rot), expected)

    @settings(max_examples=200, deadline=None)
    @given(jacobian_inputs, rotation_seeds)
    def test_twist_rows_equal_cross_formula(self, block, seed):
        nodes, units = block[:, :3], block[:, 3:]
        rot = random_rotation(np.random.default_rng(seed))
        expected = np.hstack([np.cross(nodes @ rot.T, units), units])
        assert np.array_equal(twist_jacobian_rows(nodes, units, rot), expected)


def cube_range_links(pose):
    """Range links of the unit cube ranged from the 8 corners of a side-3
    cube, with the exact ranges at `pose`."""
    nodes, anchors = unit_cube().nodes, 3.0 * unit_cube().nodes
    jj, kk = np.nonzero(np.ones((8, 8), dtype=bool))
    links = range_links(nodes, kk, anchors[jj], None)
    dist = range_residuals(pose.rotation, pose.translation, links, False)[4]
    return range_links(nodes, kk, anchors[jj], dist)


def range_fit(rot, trans, ranges, jacobian):
    """pose_gauss_newton's callback for cube range fits, one range row per item."""
    links = cube_range_links(Pose.identity())
    return range_residuals(rot, trans, links[:4] + (ranges,) + links[5:], jacobian)[:3]


def flipped_range_fit(rot, trans, ranges, flip, jacobian):
    """range_fit whose rows are negated where flip is -1: every step such an
    item tries goes uphill, so its damping schedule runs out."""
    res, rows, curv = range_fit(rot, trans, ranges, jacobian)
    if not jacobian:
        return res, None, None
    return res, rows * flip[:, None, None], curv * (flip > 0)[:, None, None]


class TestPoseGaussNewton:
    def test_exact_minimum_converges_in_one_iteration(self):
        pose = random_pose(np.random.default_rng(41))
        links = cube_range_links(pose)
        rot, trans, iterations, converged, messages = pose_gauss_newton(
            range_fit, pose.rotation[None], pose.translation[None], 50, args=(links[4][None],)
        )
        assert (iterations[0], converged[0], messages[0]) == (1, True, "")
        assert rotation_error_deg(rot[0], pose.rotation) < 1e-9
        assert np.abs(trans[0] - pose.translation).max() < 1e-12

    def test_step_accepted_after_a_rejection_never_converges(self):
        # The cost callback rejects the first try of every iteration, then
        # accepts a second try that leaves the cost exactly where it was.
        costs = iter([1.0] + [4.0, 1.0] * 3)
        jac = np.eye(6)[None]

        def residuals(rot, trans, jacobian):
            if jacobian:
                return np.full((1, 6), 1.0 / np.sqrt(6.0)), jac, None
            return np.full((1, 6), np.sqrt(next(costs) / 6.0)), None, None

        *_, iterations, converged, messages = pose_gauss_newton(
            residuals, np.eye(3)[None], np.zeros((1, 3)), 3
        )
        assert (iterations[0], converged[0]) == (3, False)
        assert messages[0] == "cost change above relative 1e-12 after 3 iterations"

    def test_max_iters_reports_the_missed_test(self):
        pose = random_pose(np.random.default_rng(43))
        links = cube_range_links(pose)
        start = pose.rotation @ so3_exp([0.4, 0.3, -0.2])
        *_, iterations, converged, messages = pose_gauss_newton(
            range_fit, start[None], (pose.translation - 0.2)[None], 2, args=(links[4][None],)
        )
        assert (iterations[0], converged[0]) == (2, False)
        assert messages[0] == "cost change above relative 1e-12 after 2 iterations"

    @pytest.mark.parametrize("curvature_sign, newton", [(-2.0, False), (1.0, True)])
    def test_step_uses_curvature_only_when_positive_definite(self, curvature_sign, newton):
        # Residuals A [so3_log(rot), trans] - b have rows A at the identity.
        # With curvature -2 A^T A the sum A^T A + S is not positive definite,
        # so the first step must be the damped Gauss-Newton one; with +A^T A
        # it is, and the step solves with the sum.
        rng = np.random.default_rng(44)
        a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        b = rng.uniform(-0.3, 0.3, 6)
        gn = a.T @ a

        def residuals(rot, trans, jacobian):
            res = (a @ np.concatenate([so3_log(rot[0]), trans[0]]) - b)[None]
            return (res, a[None], curvature_sign * gn[None]) if jacobian else (res, None, None)

        rot, trans, *_ = pose_gauss_newton(residuals, np.eye(3)[None], np.zeros((1, 3)), 1)
        hess = gn + curvature_sign * gn if newton else gn
        step = np.linalg.solve(hess + 1e-6 * np.diag(np.diag(gn)), a.T @ b)
        assert np.abs(trans[0] - step[3:]).max() < 1e-12
        assert np.abs(so3_log(rot[0]) - step[:3]).max() < 1e-12

    def test_stack_items_equal_their_single_fits(self):
        # Lockstep fits over a stack return, per item, exactly what the item
        # gets alone: damping, cost and band are per fit and finished fits
        # leave the stack. The stack holds fits that converge, one that hits
        # the cap and one whose damping schedule runs out.
        rng = np.random.default_rng(45)
        starts_rot, starts_trans, ranges, flip = [], [], [], []
        cases = [(0.01, 0.1), (1.0, 0.3), (0.3, 1.2), (0.0, 0.2), (0.05, 0.1)]
        for i, (sigma, spread) in enumerate(cases):
            pose = random_pose(rng)
            exact = cube_range_links(pose)[4]
            ranges.append(exact + sigma * rng.standard_normal(exact.size))
            starts_rot.append(pose.rotation @ so3_exp(rng.normal(0.0, spread, 3)))
            starts_trans.append(pose.translation + rng.normal(0.0, spread, 3))
            flip.append(-1.0 if i == 4 else 1.0)
        args = (np.array(ranges), np.array(flip))
        stacked = pose_gauss_newton(
            flipped_range_fit, np.array(starts_rot), np.array(starts_trans), 4, args=args
        )
        messages = stacked[4]
        assert "" in messages
        assert "cost change above relative 1e-12 after 4 iterations" in messages
        assert messages[4] == "damping schedule exhausted without cost decrease"
        for i in range(len(flip)):
            single = pose_gauss_newton(
                flipped_range_fit, starts_rot[i][None], starts_trans[i][None], 4,
                args=tuple(arg[i : i + 1] for arg in args),
            )
            for stack_out, single_out in zip(stacked[:4], single[:4]):
                assert np.array_equal(stack_out[i], single_out[0])
            assert single[4][0] == messages[i]


def masked_preset_links(name, seed, p_keep, sigma):
    """Bernoulli-masked range links of a preset's body and anchors, with noisy
    ranges at a random pose, and a second random pose to evaluate at."""
    scenario, _ = preset(name)
    nodes, anchors = scenario.conformation.nodes, scenario.anchors.anchors
    rng = np.random.default_rng(seed)
    mask = rng.random((len(anchors), len(nodes))) < p_keep
    mask[0, 0] = True
    jj, kk = np.nonzero(mask)
    truth = scenario.sample_pose(rng)
    unmeasured = range_links(nodes, kk, anchors[jj], None)
    exact = range_residuals(truth.rotation, truth.translation, unmeasured, False)[4]
    links = range_links(nodes, kk, anchors[jj], exact + sigma * rng.standard_normal(exact.size))
    rot = truth.rotation @ so3_exp(rng.normal(0.0, 0.3, 3))
    return links, rot, truth.translation + rng.normal(0.0, 0.5, 3)


class TestRangeCurvature:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["fig4", "fig5"]),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 1.0),
        st.sampled_from([0.01, 0.3, 1.0]),
    )
    def test_newton_hessian_matches_central_differences(self, name, seed, p_keep, sigma):
        # rows^T rows + curvature is the Hessian of |r|^2 / 2 in the kernel's
        # chart (rot expm([d_theta]x), trans + d_t).
        links, rot, trans = masked_preset_links(name, seed, p_keep, sigma)
        _, rows, curv, _, _ = range_residuals(rot, trans, links, True)

        def half_cost(x):
            res = range_residuals(rot @ so3_exp(x[:3]), trans + x[3:], links, False)[0]
            return 0.5 * float(res @ res)

        h = 1e-4
        e = h * np.eye(6)
        numeric = np.array(
            [
                [
                    half_cost(e[i] + e[j]) - half_cost(e[i] - e[j])
                    - half_cost(e[j] - e[i]) + half_cost(-e[i] - e[j])
                    for j in range(6)
                ]
                for i in range(6)
            ]
        ) / (4.0 * h * h)
        assert np.abs(rows.T @ rows + curv - numeric).max() <= 1e-5 * np.abs(numeric).max()


class TestNodeVelocities:
    def test_pure_translation(self):
        v = np.array([0.3, -0.2, 1.0])
        state = RigidBodyState(unit_cube(), Pose.identity(), Twist(np.zeros(3), v))
        vel = node_velocities(state)
        assert np.allclose(vel, np.tile(v, (8, 1)))

    def test_omega_cross_c(self):
        conf = Conformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        state = RigidBodyState(conf, Pose.identity(), Twist([0, 0, 1], [0, 0, 0]))
        vel = node_velocities(state)
        assert np.allclose(vel[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_missing_twist_raises(self):
        state = RigidBodyState(unit_cube(), Pose.identity())
        with pytest.raises(MissingTwistError):
            node_velocities(state)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_state(rng)
            fd = central_diff_positions(state, 1e-6)
            assert np.abs(node_velocities(state) - fd).max() < 1e-5


class TestSo3:
    def test_exp_zero_is_identity(self):
        assert np.allclose(so3_exp([0, 0, 0]), np.eye(3))

    def test_exp_quarter_turn(self):
        r = so3_exp([0, 0, np.pi / 2])
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_exp_output_in_so3(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = so3_exp(rng.uniform(-3, 3, size=3))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = axis * rng.uniform(1e-8, np.pi - 1e-7)
            assert np.abs(so3_log(so3_exp(v)) - v).max() < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
            lambda a: np.linalg.norm(a) > 1e-3
        ),
        st.floats(0.0, np.pi - 1e-6),
    )
    def test_log_exp_round_trip_property(self, axis, angle):
        v = axis / np.linalg.norm(axis) * angle
        assert np.abs(so3_log(so3_exp(v)) - v).max() < 1e-9

    def test_project_fixed_point(self):
        rng = np.random.default_rng(33)
        r = random_rotation(rng)
        assert np.abs(so3_project(r) - r).max() < 1e-12

    def test_project_removes_scaling(self):
        assert np.allclose(so3_project(1.1 * np.eye(3)), np.eye(3), atol=1e-12)

    def test_project_rank_deficient_raises(self):
        m = np.outer([1.0, 0, 0], [1.0, 0, 0]) + np.outer([0, 1.0, 0], [0, 1.0, 0])
        with pytest.raises(DegenerateProjectionError):
            so3_project(m)

    def test_project_beats_random_search(self):
        rng = np.random.default_rng(34)
        m = random_rotation(rng) + 0.2 * rng.standard_normal((3, 3))
        best = so3_project(m)
        best_cost = np.linalg.norm(best - m)
        samples = [random_rotation(rng) for _ in range(10_000)]
        costs = np.array([np.linalg.norm(s - m) for s in samples])
        assert best_cost <= costs.min() + 1e-12


class TestRotationError:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(41)
        r = random_rotation(rng)
        assert rotation_error_deg(r, r) == pytest.approx(0.0, abs=1e-6)

    def test_quarter_turn_is_90(self):
        rng = np.random.default_rng(42)
        a = random_rotation(rng)
        b = a @ RZ90
        assert rotation_error_deg(a, b) == pytest.approx(90.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_error_deg(a, b) - rotation_error_deg(b, a)) < 1e-12

    def test_matches_clamped_arccos_form(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            cos = np.clip((np.trace(a @ b.T) - 1.0) / 2.0, -1.0, 1.0)
            assert rotation_error_deg(a, b) == pytest.approx(
                np.degrees(np.arccos(cos)), abs=1e-6
            )

    def test_exact_recovery_resolves_below_nanodegree(self):
        rng = np.random.default_rng(45)
        r = random_rotation(rng)
        assert rotation_error_deg(r, r.copy()) < 1e-9


class TestPropagateState:
    def test_zero_dt_unchanged(self):
        rng = np.random.default_rng(51)
        state = random_state(rng)
        out = propagate_state(state, 0.0)
        assert np.allclose(out.pose.rotation, state.pose.rotation)
        assert np.allclose(out.pose.translation, state.pose.translation)

    def test_zero_omega_shifts_translation(self):
        rng = np.random.default_rng(52)
        pose = random_pose(rng)
        v = np.array([1.0, -2.0, 0.5])
        state = RigidBodyState(unit_cube(), pose, Twist(np.zeros(3), v))
        out = propagate_state(state, 0.25)
        assert np.allclose(out.pose.rotation, pose.rotation)
        assert np.allclose(out.pose.translation, pose.translation + 0.25 * v)

    def test_negative_dt_raises(self):
        rng = np.random.default_rng(53)
        with pytest.raises(InvalidIntervalError):
            propagate_state(random_state(rng), -0.1)

    def test_first_order_taylor(self):
        rng = np.random.default_rng(54)
        state = random_state(rng)
        vel = node_velocities(state)
        p0 = state.world_nodes()
        w = np.linalg.norm(state.twist.angular)
        lever = np.abs(np.linalg.norm(state.conformation.nodes, axis=1)).max()
        for dt in (1e-3, 1e-4):
            err = np.abs(propagate_state(state, dt).world_nodes() - (p0 + vel * dt)).max()
            assert err <= 2.0 * w * w * lever * dt * dt + 1e-12


class TestPointTable:
    def test_parse_with_comments(self):
        text = "# corner nodes\n0.0 0.0 0.0\n1.0 0.0 0.0  # inline note\n\n0.0 1.0 0.0\n"
        pts = parse_points(text)
        assert pts.shape == (3, 3)
        assert np.allclose(pts[1], [1, 0, 0])

    def test_bad_column_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points("0 0 0\n1 2\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_points("# nothing here\n")
