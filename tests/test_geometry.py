import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rblkit.completion
import rblkit.geometry
from rblkit.errors import (
    DegenerateConformationError,
    InvalidIntervalError,
    InvalidPoseError,
    MissingTwistError,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    _lapack,
    _quat_from_matrix,
    _take,
    apply_pose,
    by_value,
    fit_ranges,
    fit_terms,
    grid_links,
    haar_rotations,
    matrix_from_quat,
    node_velocities,
    pairwise_distances,
    parse_points,
    pose_gauss_newton,
    pose_jacobian_rows,
    propagate_state,
    random_rotation,
    range_curvature,
    range_residuals,
    range_rows,
    rotation_error_deg,
    so3_exp,
    so3_log,
)
from rblkit.estimators import chain_batch
from rblkit.harness import _draw, preset

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
        assert np.array_equal(conf.nodes, [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2]])

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["rotation", "translation"])
    def test_rejects_non_finite_entries(self, entry, value):
        rot, trans = RZ90.copy(), np.array([0.5, -1.0, 2.0])
        if entry == "rotation":
            rot[2, 1] = value
        else:
            trans[1] = value
        with pytest.raises(InvalidPoseError, match="^pose entries must be finite$"):
            Pose(rot, trans)

    @pytest.mark.parametrize("deviation, refused", [(2e-9, True), (5e-10, False)])
    def test_orthonormality_tolerance(self, deviation, refused):
        # sqrt(1 + d) R has (sqrt(1 + d) R)^T (sqrt(1 + d) R) = (1 + d) I, so it is d off
        # orthonormal, with determinant (1 + d)^1.5 (within 1e-9 of 1 at d = 5e-10).
        rot = np.sqrt(1.0 + deviation) * RZ90
        if refused:
            message = r"^rotation is not orthonormal \(max deviation 2.000e-09\)$"
            with pytest.raises(InvalidPoseError, match=message):
                Pose(rot, np.zeros(3))
        else:
            pose = Pose(rot, np.zeros(3))
            assert pose.rotation.tobytes() == rot.tobytes()

    def test_rejects_determinant_minus_one_by_value(self):
        message = r"^rotation determinant is -1.000000000000, expected \+1$"
        with pytest.raises(InvalidPoseError, match=message):
            Pose(RZ90 @ np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("rot, trans, message", [
        (np.eye(2), np.zeros(3), r"rotation must be 3x3, got \(2, 2\)"),
        (np.eye(3)[None], np.zeros(3), r"rotation must be 3x3, got \(1, 3, 3\)"),
        (np.eye(3), np.zeros(2), r"translation must be length 3, got \(2,\)"),
        (np.eye(3), np.zeros((1, 3)), r"translation must be length 3, got \(1, 3\)"),
    ])
    def test_rejects_wrong_shapes(self, rot, trans, message):
        with pytest.raises(InvalidPoseError, match=f"^{message}$"):
            Pose(rot, trans)

    def test_copies_and_freezes_its_arrays(self):
        rot, trans = RZ90.copy(), np.array([1, 2, 3])  # integer entries are stored as float
        pose = Pose(rot, trans)
        rot[0, 0] = 9.0
        assert pose.rotation.tobytes() == RZ90.tobytes() and pose.translation.dtype == float
        for a in (pose.rotation, pose.translation):
            assert not a.flags.writeable and a.flags.owndata


class TestTwist:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["angular", "linear"])
    def test_rejects_non_finite_entries(self, entry, value):
        parts = {"angular": np.array([0.1, 0.2, 0.3]), "linear": np.array([1.0, 2.0, 3.0])}
        parts[entry][2] = value
        with pytest.raises(ValueError, match="^twist components must be finite$"):
            Twist(**parts)

    @pytest.mark.parametrize("angular, linear", [
        (np.zeros(2), np.zeros(3)),
        (np.zeros(3), np.zeros((1, 3))),
        (np.zeros((3, 1)), np.zeros(3)),
    ])
    def test_rejects_wrong_shapes(self, angular, linear):
        message = "^angular and linear velocities must be length-3 vectors$"
        with pytest.raises(ValueError, match=message):
            Twist(angular, linear)

    def test_copies_and_freezes_its_arrays(self):
        angular = np.array([0.1, 0.2, 0.3])
        twist = Twist(angular, [1, 2, 3])
        angular[0] = 9.0
        assert twist.angular[0] == 0.1 and twist.linear.dtype == float
        for a in (twist.angular, twist.linear):
            assert not a.flags.writeable and a.flags.owndata


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


def cube_range_links(pose):
    """Range links of the unit cube ranged from the 8 corners of a side-3
    cube, with the exact ranges at `pose`."""
    nodes, anchors, mask = unit_cube().nodes, 3.0 * unit_cube().nodes, np.ones((8, 8), dtype=bool)
    links = grid_links(anchors, nodes, None, mask)
    dist = range_residuals(pose.rotation, pose.translation, links, False)[3]
    return grid_links(anchors, nodes, dist, mask)


def range_fit(rot, trans, ranges, jacobian, geometry):
    """pose_gauss_newton's callback for cube range fits, one range row per item."""
    links = cube_range_links(Pose.identity())
    ones = np.ones((len(ranges), 1))  # unit weights: the unweighted range terms, bit for bit
    links = links[:4] + (ranges,) + links[5:]
    return fit_terms(rot, trans, links, ones, ones[..., None], None, None, jacobian, geometry)


def flipped_range_fit(rot, trans, ranges, flip, jacobian, geometry):
    """range_fit whose rows are negated where flip is -1: every step such an
    item tries goes uphill, so its damping schedule runs out."""
    res, rows, curv, geometry = range_fit(rot, trans, ranges, jacobian, geometry)
    if not jacobian:
        return res, None, None, geometry
    return res, rows * flip[:, None, None], curv * (flip > 0)[:, None, None], geometry


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

    def test_exact_minimum_costs_one_jacobian_and_one_trial(self):
        # The starting cost comes from the first Jacobian evaluation, so a fit
        # started at its minimum evaluates the callback exactly twice.
        pose = random_pose(np.random.default_rng(45))
        links = cube_range_links(pose)
        calls = []

        def counting(rot, trans, ranges, jacobian, geometry):
            calls.append(jacobian)
            return range_fit(rot, trans, ranges, jacobian, geometry)

        *_, iterations, converged, _ = pose_gauss_newton(
            counting, pose.rotation[None], pose.translation[None], 50, args=(links[4][None],)
        )
        assert (iterations[0], converged[0]) == (1, True)
        assert calls == [True, False]

    def test_accepted_trial_geometry_is_the_next_linearization(self):
        # A fit that accepts every first damping try hands each trial's
        # geometry back to the next iteration's rows: I iterations evaluate
        # the geometry I + 1 times, not 2 I.
        pose = random_pose(np.random.default_rng(46))
        links = cube_range_links(pose)
        trials, evaluations = [], []

        def counting(rot, trans, ranges, jacobian, geometry):
            trials.append(not jacobian)
            evaluations.append(geometry is None)
            return range_fit(rot, trans, ranges, jacobian, geometry)

        start = pose.rotation @ so3_exp([0.2, -0.1, 0.15])
        rot, trans, iterations, converged, _ = pose_gauss_newton(
            counting, start[None], (pose.translation + 0.1)[None], 50, args=(links[4][None],)
        )
        assert converged[0] and iterations[0] >= 3
        assert sum(trials) == iterations[0]  # one damping try per iteration
        assert sum(evaluations) == iterations[0] + 1

        def recomputing(rot, trans, ranges, jacobian, geometry):
            return range_fit(rot, trans, ranges, jacobian, None)

        # The reused geometry is the recomputed one, bit for bit.
        fresh = pose_gauss_newton(
            recomputing, start[None], (pose.translation + 0.1)[None], 50, args=(links[4][None],)
        )
        assert np.array_equal(fresh[0], rot) and np.array_equal(fresh[1], trans)

    def test_step_accepted_after_a_rejection_never_converges(self):
        # The cost callback rejects the first try of every iteration, then
        # accepts a second try that leaves the cost (1, from the rows'
        # residuals) exactly where it was.
        costs = iter([4.0, 1.0] * 3)
        jac = np.eye(6)[None]

        def residuals(rot, trans, jacobian, geometry):
            if jacobian:
                return np.full((1, 6), 1.0 / np.sqrt(6.0)), jac, None, None
            return np.full((1, 6), np.sqrt(next(costs) / 6.0)), None, None, None

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

        def residuals(rot, trans, jacobian, geometry):
            res = (a @ np.concatenate([so3_log(rot[0]), trans[0]]) - b)[None]
            curv = curvature_sign * gn[None] if jacobian else None
            return res, a[None] if jacobian else None, curv, None

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
        # Handing a trial's geometry back changes no bit against recomputing
        # it, across rejected tries and fits that leave the stack too.
        fresh = pose_gauss_newton(
            lambda *fit: flipped_range_fit(*fit[:-1], None),
            np.array(starts_rot), np.array(starts_trans), 4, args=args,
        )
        for fresh_out, stack_out in zip(fresh, stacked):
            assert np.array_equal(fresh_out, stack_out)
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


def serial_damping_kernel(residuals, rot, trans, max_iters, args=()):
    """pose_gauss_newton as it was with a serial damping schedule: a fit whose
    first try is rejected climbs one stacked try per level, and one rejecting
    fit makes the whole stack recompute its geometry. The oracle of the ladder."""
    rot, trans = np.array(rot, dtype=float), np.array(trans, dtype=float)
    n = len(rot)
    iterations, converged = np.full(n, max_iters), np.zeros(n, dtype=bool)
    messages = [f"cost change above relative 1e-12 after {max_iters} iterations"] * n

    def attempt(r, t, hess, descent, lam, scale, ceiling, a):
        damped = hess.copy()
        diagonal = damped.reshape(-1, 36)[:, ::7]
        diagonal += lam[:, None] * scale
        step = _lapack(_umath_linalg.solve, damped, descent)
        r_try, t_try = r @ so3_exp(step[:, :3, 0]), t + step[:, 3:, 0]
        res, _, _, geometry = residuals(r_try, t_try, *a, False, None)
        c_try = np.vecdot(res, res)
        ok = (c_try <= ceiling) & (step[:, 0, 0] == step[:, 0, 0])
        return ok, r_try, t_try, c_try, geometry

    live = np.arange(n)
    r, t, geometry = rot, trans, None
    lam = np.full(n, 1e-6)
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        res, jac, curv, _ = residuals(r, t, *args, True, geometry)
        cost = np.vecdot(res, res)
        descent = -(jac.mT @ res[..., None])
        hess = jac.mT @ jac
        diag = hess.diagonal(axis1=-2, axis2=-1)
        largest = np.maximum.reduce(diag, axis=-1, keepdims=True, initial=1e-300)
        scale = np.maximum(diag, 1e-12 * largest)
        if curv is not None:
            newton = hess + curv
            corner = _lapack(_umath_linalg.cholesky_lo, newton)[:, 0, 0]
            hess = np.where((corner == corner)[:, None, None], newton, hess)
        band = cost * 1e-12 + 1e-18
        ceiling = cost + band
        first, r_new, t_new, c_new, geometry = attempt(
            r, t, hess, descent, lam, scale, ceiling, args
        )
        conv = np.abs(cost - c_new) <= band
        accepted = first
        if np.count_nonzero(first) < len(first):
            conv &= first
            accepted, geometry = first.copy(), None
            lam[~first] *= 10.0
            todo = np.flatnonzero(~first & (lam <= 1e8))
            while todo.size:
                ok, r_try, t_try, _, _ = attempt(
                    r[todo], t[todo], hess[todo], descent[todo], lam[todo], scale[todo],
                    ceiling[todo], _take(args, todo),
                )
                win, lose = todo[ok], todo[~ok]
                r_new[win], t_new[win] = r_try[ok], t_try[ok]
                accepted[win] = True
                lam[lose] *= 10.0
                todo = lose[lam[lose] <= 1e8]
            r_new[~accepted], t_new[~accepted] = r[~accepted], t[~accepted]
        r, t = r_new, t_new
        lam = np.maximum(lam / 3.0, 1e-12)
        done = conv if accepted is first else conv | ~accepted
        finished = np.count_nonzero(done)
        if finished:
            last = finished == len(live)
            ids, sel = (live, slice(None)) if last else (live[done], done)
            rot[ids], trans[ids], iterations[ids], converged[ids] = r[sel], t[sel], it, conv[sel]
            for i, ok in zip(ids.tolist(), accepted[sel].tolist()):
                messages[i] = "" if ok else "damping schedule exhausted without cost decrease"
            if last:
                return rot, trans, iterations, converged, messages
            keep = ~done
            live, r, t, lam = live[keep], r[keep], t[keep], lam[keep]
            args, geometry = _take(args, keep), _take(geometry, keep)
    rot[live], trans[live] = r, t
    return rot, trans, iterations, converged, messages


def damped_range_fit(rot, trans, ranges, flip, shrink, jacobian, geometry):
    """flipped_range_fit with the rows also scaled by shrink and, where shrink
    is not 1, no curvature: such an item's undamped step is 1 / shrink times
    too long, so its first tries are rejected and a higher level accepted."""
    res, rows, curv, geometry = flipped_range_fit(rot, trans, ranges, flip, jacobian, geometry)
    if not jacobian:
        return res, None, None, geometry
    return res, rows * shrink[:, None, None], curv * (shrink == 1.0)[:, None, None], geometry


def damped_stack(rng):
    """Starts and args of damped_range_fit fits: converging ones, two whose
    damping must grow and one whose schedule runs out."""
    starts_rot, starts_trans, ranges = [], [], []
    cases = [(0.01, 0.1), (0.3, 0.6), (0.01, 0.3), (0.05, 0.2), (0.02, 0.4), (0.0, 0.1)]
    for sigma, spread in cases:
        pose = random_pose(rng)
        exact = cube_range_links(pose)[4]
        ranges.append(exact + sigma * rng.standard_normal(exact.size))
        starts_rot.append(pose.rotation @ so3_exp(rng.normal(0.0, spread, 3)))
        starts_trans.append(pose.translation + rng.normal(0.0, spread, 3))
    flip = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    shrink = np.array([1.0, 1.0, 0.05, 1.0, 0.02, 1.0])
    return np.array(starts_rot), np.array(starts_trans), (np.array(ranges), flip, shrink)


class TestDampingLadder:
    def test_ladder_equals_serial_schedule(self):
        # Each rejected fit tries its whole schedule in one stacked try; the
        # outcome is the serial climb's bit for bit, on a stack mixing first-try
        # accepts, accepts at later levels and an exhausted schedule.
        rot, trans, args = damped_stack(np.random.default_rng(49))
        tries = []

        def counting(*fit):
            tries.append(None if fit[-2] else len(fit[0]))
            return damped_range_fit(*fit)

        ladder = pose_gauss_newton(counting, rot, trans, 40, args=args)
        serial = serial_damping_kernel(damped_range_fit, rot, trans, 40, args=args)
        for ladder_out, serial_out in zip(ladder[:4], serial[:4]):
            assert np.array_equal(ladder_out, serial_out)
        assert ladder[4] == serial[4]
        assert ladder[4][5] == "damping schedule exhausted without cost decrease"
        assert ladder[4][2] == ladder[4][4] == "" and ladder[3][[0, 2, 4]].all()
        # A first try that is rejected is followed by one stacked try of every level.
        retries = [b for a, b in zip(tries, tries[1:]) if a is not None and b is not None]
        assert retries and max(retries) > len(rot)

    def test_one_retry_and_kept_geometry_per_iteration(self):
        # At most one retry per iteration, and after the first iteration every
        # Jacobian evaluation is handed the geometry of its poses: the one its
        # accepted try computed or, for an exhausted fit, its own.
        rot, trans, args = damped_stack(np.random.default_rng(51))
        calls = []

        def counting(*fit):
            calls.append((fit[-2], fit[-1] is None))
            return damped_range_fit(*fit)

        kept = pose_gauss_newton(counting, rot, trans, 40, args=args)
        jacobians = [i for i, (jacobian, _) in enumerate(calls) if jacobian]
        assert [calls[i][1] for i in jacobians] == [True] + [False] * (len(jacobians) - 1)
        for start, end in zip(jacobians, jacobians[1:] + [len(calls)]):
            assert 1 <= end - start - 1 <= 2
        assert any(end - start == 3 for start, end in zip(jacobians, jacobians[1:]))
        fresh = pose_gauss_newton(
            lambda *fit: damped_range_fit(*fit[:-1], None), rot, trans, 40, args=args
        )
        for kept_out, fresh_out in zip(kept, fresh):
            assert np.array_equal(kept_out, fresh_out)


class TestUnweightedFit:
    @pytest.mark.parametrize("b", [1, 5, 24])
    def test_equals_unit_weights(self, b, monkeypatch):
        # fit_ranges without weights multiplies by nothing, and with np.ones weights every
        # product is by 1.0: the same bits, on fig5's completion fits at sigma = 1, whose
        # damping ladders reject first tries.
        scenario, _ = preset("fig5")
        captured, tries = [], []
        monkeypatch.setattr(
            rblkit.completion, "fit_ranges", lambda *fit: captured.append(fit) or fit_ranges(*fit)
        )
        terms = rblkit.geometry.fit_terms

        def counting(rot, trans, links, *rest):
            tries.append(None if rest[-2] else len(rot))
            return terms(rot, trans, links, *rest)

        monkeypatch.setattr(rblkit.geometry, "fit_terms", counting)
        _, _, (mask, ranges, _, _) = _draw(scenario, np.full(b, 1.0), np.arange(b) + 300)
        chain_batch(scenario.anchors.anchors, scenario.conformation.nodes, ranges, mask)
        [(links, rot, trans, max_iters, w_range, aoa, w_angle)] = captured
        assert w_range is None and aoa is None and w_angle is None
        tries.clear()
        unweighted = fit_ranges(links, rot, trans, max_iters, None, None, None)
        retries = [n for m, n in zip(tries, tries[1:]) if m is not None and n is not None]
        weighted = fit_ranges(links, rot, trans, max_iters, np.ones(b), None, None)
        assert retries
        for plain, unit in zip(unweighted[:4], weighted[:4]):
            assert plain.tobytes() == unit.tobytes()
        assert unweighted[4] == weighted[4]


def lapack_stack(rng, b):
    """(B, 6, 6) matrices of mixed kinds: positive definite, symmetric
    indefinite, positive semidefinite of rank 4 (LAPACK may factor it or
    not), with two equal rows, or with a zero row."""
    stack = []
    for kind in rng.integers(0, 5, b):
        a = rng.standard_normal((6, 6))
        m = [a @ a.T + 0.1 * np.eye(6), a + a.T, a[:, :4] @ a[:, :4].T, a, a][kind]
        if kind == 3:
            m[4] = m[1]
        elif kind == 4:
            m[2] = 0.0
        stack.append(m)
    return np.array(stack)


class TestLapackDecisions:
    # The kernel calls numpy.linalg's private LAPACK gufuncs on whole stacks
    # and reads a failed item as NaN; these tests pin that to np.linalg's own
    # per-item behaviour, so a numpy upgrade that changes it shows here.

    def test_stacked_flags_equal_per_item_numpy_linalg(self):
        rng = np.random.default_rng(47)
        outcomes = set()
        for b in (1, 2, 5, 24):
            for _ in range(10):
                stack = lapack_stack(rng, b)
                rhs = rng.standard_normal((b, 6, 1))
                factors = _lapack(_umath_linalg.cholesky_lo, stack)
                steps = _lapack(_umath_linalg.solve, stack, rhs)
                for i in range(b):
                    try:
                        np.linalg.cholesky(stack[i])
                        factored = True
                    except np.linalg.LinAlgError:
                        factored = False
                    # The kernel reads a NaN corner as "not positive definite".
                    assert np.isnan(factors[i, 0, 0]) == (not factored)
                    assert np.isnan(factors[i]).all() or factored
                    try:
                        expected = np.linalg.solve(stack[i], rhs[i])
                    except np.linalg.LinAlgError:
                        assert np.isnan(steps[i]).all()
                        outcomes.add(("singular", factored))
                    else:
                        assert np.array_equal(steps[i], expected)
                        outcomes.add(("solved", factored))
        assert {o[0] for o in outcomes} == {"solved", "singular"}
        assert {o[1] for o in outcomes} == {True, False}

    def test_an_indefinite_item_keeps_the_stack_in_one_call(self, monkeypatch):
        # Items A [so3_log(rot), trans] - b, the middle one with an indefinite
        # Newton matrix: one stacked Cholesky and one stacked solve serve the
        # iteration, and np.linalg is never called item by item.
        rng = np.random.default_rng(48)
        a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        b = rng.uniform(-0.3, 0.3, (3, 6))
        signs = np.array([1.0, -2.0, 1.0])[:, None, None]
        newton = a.T @ a * (1.0 + signs)  # rows^T rows + curvature
        assert [bool(np.linalg.eigvalsh(m).min() > 0.0) for m in newton] == [True, False, True]
        calls = []

        def counted(name):
            gufunc = getattr(_umath_linalg, name)
            return lambda *stacks: calls.append((name, len(stacks[0]))) or gufunc(*stacks)

        def refuse(*_):
            raise AssertionError("per-item np.linalg call")

        monkeypatch.setattr(
            "rblkit.geometry._umath_linalg",
            SimpleNamespace(cholesky_lo=counted("cholesky_lo"), solve=counted("solve")),
        )
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)

        def residuals(rot, trans, b, signs, jacobian, geometry):
            x = np.array([np.concatenate([so3_log(r), t]) for r, t in zip(rot, trans)])
            res = x @ a.T - b
            if not jacobian:
                return res, None, None, None
            return res, np.broadcast_to(a, (len(b), 6, 6)), signs * (a.T @ a), None

        pose_gauss_newton(residuals, np.tile(np.eye(3), (3, 1, 1)), np.zeros((3, 3)), 1, (b, signs))
        assert calls == [("cholesky_lo", 3), ("solve", 3)]

    def test_a_failed_solve_is_never_accepted(self, monkeypatch):
        # The solve fails (comes back NaN) on the item whose residuals are 2;
        # the callback's cost ignores the pose, so only the failure flag can
        # reject that step, and that fit's damping schedule runs out.
        def failing(a, b):
            out = _umath_linalg.solve(a, b)
            out[b[:, 0, 0] == -2.0] = np.nan
            return out

        monkeypatch.setattr(
            "rblkit.geometry._umath_linalg",
            SimpleNamespace(cholesky_lo=_umath_linalg.cholesky_lo, solve=failing),
        )

        def residuals(rot, trans, level, jacobian, geometry):
            res = np.repeat(level, 6, axis=1)
            rows = np.broadcast_to(np.eye(6), (len(res), 6, 6)) if jacobian else None
            return res, rows, None, None

        levels = np.array([[1.0], [2.0]])
        rot, trans, _, converged, messages = pose_gauss_newton(
            residuals, np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)), 5, (levels,)
        )
        assert converged.tolist() == [True, False]
        assert messages[1] == "damping schedule exhausted without cost decrease"
        assert np.array_equal(rot[1], np.eye(3)) and np.array_equal(trans[1], np.zeros(3))


def masked_preset_links(name, seed, p_keep, sigma):
    """Bernoulli-masked range links of a preset's body and anchors, with noisy
    ranges at a random pose, and a second random pose to evaluate at."""
    scenario, _ = preset(name)
    nodes, anchors = scenario.conformation.nodes, scenario.anchors.anchors
    rng = np.random.default_rng(seed)
    mask = rng.random((len(anchors), len(nodes))) < p_keep
    mask[0, 0] = True
    truth = scenario.sample_pose(rng)
    unmeasured = grid_links(anchors, nodes, None, mask)
    ranges = range_residuals(truth.rotation, truth.translation, unmeasured, False)[3]
    ranges[mask.ravel()] += sigma * rng.standard_normal(np.count_nonzero(mask))
    links = grid_links(anchors, nodes, ranges, mask)
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
        res, _, delta, dist = range_residuals(rot, trans, links, False)
        rows, g = range_rows(rot, links, delta, dist)
        curv = range_curvature(rot, links, res, rows, g, dist)

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


def written_out_rotation(q):
    """matrix_from_quat as the written-out formula, column by column: the
    oracle of the gathered form."""
    w, x, y, z = np.asarray(q, dtype=float).T
    columns = [
        [1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)],
        [2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)],
        [2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.ascontiguousarray(np.array(columns).T)


class TestMatrixFromQuat:
    def test_equals_written_out_formula(self):
        # Random and unit quaternions, and every quaternion of zeros of both
        # signs, +-1 and 1/2: the formula's bits, stacked, in two stack
        # dimensions and one at a time.
        rng = np.random.default_rng(54)
        q = rng.standard_normal((20_000, 4))
        unit = q / np.sqrt(np.vecdot(q, q))[:, None]
        edges = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0, 0.5], repeat=4)))
        for stack in (q, unit, edges, unit[:6].reshape(2, 3, 4)):
            got = matrix_from_quat(stack)
            assert got.shape == stack.shape[:-1] + (3, 3) and got.flags.c_contiguous
            assert got.tobytes() == written_out_rotation(stack.reshape(-1, 4)).tobytes()
        for one in np.concatenate([unit[:20], edges]):
            got = matrix_from_quat(one)
            assert got.shape == (3, 3) and got.tobytes() == written_out_rotation(one).tobytes()


def shepperd_oracle(r):
    """_quat_from_matrix as it was, through np.stack and take_along_axis, and
    each matrix's pivot: the oracle of the lean form."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = np.moveaxis(r.reshape(r.shape[:-2] + (9,)), -1, 0)
    t = np.trace(r, axis1=-2, axis2=-1)
    pivot = np.where(
        (t > m00) & (t > m11) & (t > m22), 0,
        np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)),
    )
    candidates = np.stack(
        [t + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11], axis=-1
    )
    s = np.sqrt(np.take_along_axis(candidates, pivot[..., None], axis=-1)[..., 0]) * 2.0
    values = np.stack(
        [0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s,
         (m01 + m10) / s, (m02 + m20) / s, (m12 + m21) / s],
        axis=-1,
    )
    pick = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
    q = np.take_along_axis(values, pick[pivot], axis=-1)
    q = np.where(q[..., :1] < 0.0, -q, q)
    return q / np.sqrt(np.vecdot(q, q))[..., None], pivot


class TestQuatFromMatrix:
    def test_equals_oracle_on_every_pivot(self):
        # Random rotations, angles near 0 and 180 degrees (every axis), exact
        # half turns and ties between pivots: the same bits as the oracle.
        rng = np.random.default_rng(52)
        axes = rng.standard_normal((600, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        tiny = 10.0 ** rng.uniform(-12, -2, (600, 1))
        half_turns = np.pi * np.vstack([np.eye(3), axes[:20]])
        stack = np.concatenate([
            haar_rotations(rng.standard_normal((2000, 4))),
            so3_exp(axes * tiny), so3_exp(axes * (np.pi - tiny)), so3_exp(half_turns),
            so3_exp(np.pi / 2 * np.eye(3)), np.eye(3)[None],
        ])
        expected, pivot = shepperd_oracle(stack)
        assert set(pivot.tolist()) == {0, 1, 2, 3}
        assert _quat_from_matrix(stack).tobytes() == expected.tobytes()
        for r in stack[::50]:
            assert _quat_from_matrix(r).tobytes() == shepperd_oracle(r)[0].tobytes()
        assert _quat_from_matrix(stack[:0]).shape == (0, 4)


def test_by_value_keys_on_bytes_and_shape():
    # One entry per value and shape: the same bytes in another shape, or
    # another value, never reads an entry; a result is read-only.
    calls = []

    @by_value
    def column_sums(a):
        calls.append(a.shape)
        return a.sum(axis=0)

    a = np.arange(6.0)
    assert column_sums(a.reshape(2, 3)).tolist() == [3.0, 5.0, 7.0]
    assert column_sums(a.reshape(3, 2)).tolist() == [6.0, 9.0]
    assert column_sums(a.reshape(2, 3) + 1.0).tolist() == [5.0, 7.0, 9.0]
    again = column_sums(a.reshape(2, 3).copy())
    assert calls == [(2, 3), (3, 2), (2, 3)] and not again.flags.writeable


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
