import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

import rblkit
from rblkit.errors import (
    CoverageWarning,
    InsufficientAnchorsError,
    InvalidPolicyError,
    RangeClampWarning,
    UndefinedBearingError,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    pairwise_distances,
    propagate_state,
    random_rotation,
)
from rblkit.measurement import (
    AnchorSet,
    BernoulliBlockage,
    ConvexHullBlockage,
    Edm,
    ExplicitBlockage,
    MeasurementSet,
    NoiseModel,
    apply_blockage,
    assemble_edm,
    simulate_adoa,
    simulate_aoa,
    simulate_measurements,
    simulate_range_rates,
    simulate_ranges,
    wrap_angle,
)

QUIET = NoiseModel()


def unit_cube(center=(0.0, 0.0, 0.0)) -> Conformation:
    c = np.asarray(center, dtype=float)
    corners = np.array(
        [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    )
    return Conformation(corners + c)


def cube_anchors(side=3.0) -> AnchorSet:
    h = side / 2.0
    return AnchorSet(np.array([[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)]))


class TestAnchorSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AnchorSet([[0, 0, 0], [0, 0, 0]])

    def test_single_anchor_ok(self):
        assert AnchorSet([[1, 2, 3]]).num_anchors == 1


class TestSimulateRanges:
    def test_three_four_five(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        out = simulate_ranges(anchors, [[3.0, 4.0, 0.0]], QUIET)
        assert out[0, 0] == pytest.approx(5.0, abs=1e-15)

    def test_noiseless_matches_norms(self):
        rng = np.random.default_rng(7)
        anchors = cube_anchors()
        nodes = rng.uniform(-1, 1, size=(5, 3))
        out = simulate_ranges(anchors, nodes, QUIET)
        direct = np.array(
            [[np.sqrt(np.sum((n - a) ** 2)) for n in nodes] for a in anchors.anchors]
        )
        assert np.array_equal(out, direct)

    def test_noise_std_monte_carlo(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        node = [[10.0, 0.0, 0.0]]
        draws = np.array(
            [
                simulate_ranges(anchors, node, NoiseModel(range_sigma=0.1, seed=s))[0, 0]
                for s in range(100_000)
            ]
        )
        assert 0.098 <= draws.std() <= 0.102
        assert draws.mean() == pytest.approx(10.0, abs=0.005)

    def test_deterministic_under_seed(self):
        anchors = cube_anchors()
        nodes = unit_cube().nodes
        noise = NoiseModel(range_sigma=0.3, seed=123)
        a = simulate_ranges(anchors, nodes, noise)
        b = simulate_ranges(anchors, nodes, noise)
        assert np.array_equal(a, b)

    def test_negative_clamped_with_warning(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        node = [[0.01, 0.0, 0.0]]
        with pytest.warns(RangeClampWarning):
            out = simulate_ranges(anchors, node, NoiseModel(range_sigma=5.0, seed=1))
        assert np.all(out >= 0.0)


class TestSimulateAoa:
    def test_along_x(self):
        out = simulate_aoa(AnchorSet([[0, 0, 0]]), [[1.0, 0.0, 0.0]], QUIET)
        assert np.allclose(out[0, 0], [0.0, 0.0], atol=1e-15)

    def test_along_y(self):
        out = simulate_aoa(AnchorSet([[0, 0, 0]]), [[0.0, 1.0, 0.0]], QUIET)
        assert np.allclose(out[0, 0], [np.pi / 2, 0.0], atol=1e-12)

    def test_pole_convention(self):
        out = simulate_aoa(AnchorSet([[0, 0, 0]]), [[0.0, 0.0, 1.0]], QUIET)
        assert out[0, 0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert out[0, 0, 0] == 0.0

    def test_coincident_raises(self):
        with pytest.raises(UndefinedBearingError):
            simulate_aoa(AnchorSet([[1, 1, 1]]), [[1.0, 1.0, 1.0]], QUIET)


class TestSimulateAdoa:
    def test_identical_azimuths_zero(self):
        az = np.full((4, 3), 0.7)
        assert np.allclose(simulate_adoa(az), 0.0)

    def test_simple_difference(self):
        az = np.array([[0.0], [np.pi / 2]])
        out = simulate_adoa(az, reference_anchor=0)
        assert out[0, 0] == pytest.approx(np.pi / 2, abs=1e-15)

    def test_wrap_around(self):
        az = np.array([[-3.0], [3.0]])
        out = simulate_adoa(az, reference_anchor=0)
        assert out[0, 0] == pytest.approx(6.0 - 2.0 * np.pi, abs=1e-12)

    def test_single_anchor_raises(self):
        with pytest.raises(InsufficientAnchorsError):
            simulate_adoa(np.zeros((1, 2)))

    def test_wrap_angle_half_open(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)


class TestSimulateRangeRates:
    @staticmethod
    def state(twist: Twist) -> RigidBodyState:
        return RigidBodyState(unit_cube(), Pose.identity(), twist)

    def test_zero_twist_zero_rates(self):
        out = simulate_range_rates(cube_anchors(), self.state(Twist.zero()), QUIET)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_pure_radial_motion(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        conf = Conformation([[5.0, 0, 0], [5.0, 1, 0], [5.0, 0, 1]])
        state = RigidBodyState(conf, Pose.identity(), Twist(np.zeros(3), [2.0, 0.0, 0.0]))
        out = simulate_range_rates(anchors, state, QUIET)
        assert out[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_range_finite_difference(self):
        rng = np.random.default_rng(9)
        anchors = cube_anchors()
        twist = Twist(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
        pose = Pose(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
        state = RigidBodyState(unit_cube(), pose, twist)
        rates = simulate_range_rates(anchors, state, QUIET)
        delta = 1e-6
        fwd = simulate_ranges(anchors, propagate_state(state, delta).world_nodes(), QUIET)
        back_state = RigidBodyState(state.conformation, pose, Twist(-twist.angular, -twist.linear))
        bwd = simulate_ranges(anchors, propagate_state(back_state, delta).world_nodes(), QUIET)
        fd = (fwd - bwd) / (2 * delta)
        assert np.abs(rates - fd).max() < 1e-4


class TestBlockage:
    @staticmethod
    def full_measurements() -> MeasurementSet:
        state = RigidBodyState(unit_cube(), Pose.identity())
        return simulate_measurements(cube_anchors(), state, QUIET)

    def test_p_zero_unchanged(self):
        meas = self.full_measurements()
        out = apply_blockage(meas, BernoulliBlockage(p=0.0, seed=5))
        assert np.array_equal(out.mask, meas.mask)
        assert np.array_equal(out.ranges, meas.ranges)

    def test_p_one_all_absent_with_warning(self):
        meas = self.full_measurements()
        with pytest.warns(CoverageWarning):
            out = apply_blockage(meas, BernoulliBlockage(p=1.0, seed=5))
        assert not out.mask.any()
        assert np.all(np.isnan(out.ranges))

    def test_invalid_probability(self):
        with pytest.raises(InvalidPolicyError):
            BernoulliBlockage(p=1.5)

    def test_never_resurrects_absent(self):
        meas = self.full_measurements()
        half = np.ones(meas.shape, dtype=bool)
        half[::2, :] = False
        masked = apply_blockage(meas, ExplicitBlockage(half))
        out = apply_blockage(masked, BernoulliBlockage(p=0.0, seed=3))
        assert not (out.mask & ~masked.mask).any()

    def test_hull_occlusion_matches_sampling_oracle(self):
        # Anchor sits on the -x side; nodes on the far (+x) face are occluded.
        nodes = unit_cube().nodes
        anchors = AnchorSet([[-3.0, 0.1, 0.2]])
        state = RigidBodyState(unit_cube(), Pose.identity())
        meas = simulate_measurements(anchors, state, QUIET)
        out = apply_blockage(meas, ConvexHullBlockage(anchors, nodes, margin=1e-9))

        tri = Delaunay(nodes)
        for k in range(nodes.shape[0]):
            ts = np.linspace(0.0, 1.0, 4001)[1:-1]
            pts = anchors.anchors[0] + ts[:, None] * (nodes[k] - anchors.anchors[0])
            inside = tri.find_simplex(pts) >= 0
            depth = inside.mean() * np.linalg.norm(nodes[k] - anchors.anchors[0])
            oracle_blocked = depth > 1e-3
            assert out.mask[0, k] == (not oracle_blocked)
        near = nodes[:, 0] < 0
        assert out.mask[0, near].all()
        assert not out.mask[0, ~near].any()

    def test_hull_keep_mask_matches_per_link_oracle(self):
        rng = np.random.default_rng(21)
        blocked = visible = 0
        for trial in range(60):
            if trial % 2:
                nodes = rng.normal(size=(rng.integers(4, 13), 3)) * rng.uniform(0.5, 3.0)
            else:
                # Boxes: coplanar faces, so every node lies on several facets.
                pose = Pose(random_rotation(rng), rng.normal(size=3))
                nodes = unit_cube().nodes * rng.uniform(0.5, 4.0, 3) @ pose.rotation.T
                nodes = nodes + pose.translation
            anchors = AnchorSet(rng.normal(size=(rng.integers(1, 9), 3)) * 6.0)
            keep = ConvexHullBlockage(anchors, nodes).keep_mask((anchors.num_anchors, len(nodes)))
            assert np.array_equal(keep, hull_oracle_keep(anchors.anchors, nodes, 1e-9))
            blocked, visible = blocked + (~keep).sum(), visible + keep.sum()
        assert blocked > 100 and visible > 100

    def test_hull_keep_mask_facet_parallel_to_link(self):
        # The anchor lies in the plane of the cube's top face, so every link
        # to a top node runs parallel to the z facets (den exactly 0): the top
        # facets leave it visible (num < 0), the bottom ones bound nothing.
        nodes = unit_cube().nodes
        anchors = AnchorSet([[3.0, 0.1, 0.5], [-2.0, -3.0, 0.5], [0.2, 0.3, 4.0]])
        equations = ConvexHull(nodes).equations
        assert np.any(equations[:, :3] @ (nodes[1] - anchors.anchors[0]) == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = ConvexHullBlockage(anchors, nodes).keep_mask((3, 8))
        assert np.array_equal(keep, hull_oracle_keep(anchors.anchors, nodes, 1e-9))
        top = nodes[:, 2] > 0
        assert keep[:, top].all() and not keep[2, ~top].any()


def hull_oracle_keep(anchors, nodes, margin):
    """Per-link reference for ConvexHullBlockage.keep_mask: the scalar
    interval clipping the vectorised test replaced."""
    equations = ConvexHull(nodes).equations
    normals, offsets = equations[:, :3], equations[:, 3]
    keep = np.ones((len(anchors), len(nodes)), dtype=bool)
    for j, a in enumerate(anchors):
        for k in range(len(nodes)):
            keep[j, k] = not segment_hits_hull(a, nodes[k], normals, offsets, margin)
    return keep


def segment_hits_hull(start, end, normals, offsets, margin) -> bool:
    # Feasibility of n.(start + t (end-start)) + b <= -margin for all facets,
    # some t in [0, 1]: clip the parameter interval facet by facet.
    d = end - start
    lo, hi = 0.0, 1.0
    num = -(normals @ start + offsets + margin)
    den = normals @ d
    for i in range(normals.shape[0]):
        if abs(den[i]) < 1e-300:
            if num[i] < 0.0:
                return False
            continue
        bound = num[i] / den[i]
        if den[i] > 0.0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
        if lo > hi:
            return False
    return lo <= hi


class TestAssembleEdm:
    def test_full_mask_zero_noise_matches_truth(self):
        conf = unit_cube()
        anchors = cube_anchors()
        pose = Pose(random_rotation(np.random.default_rng(3)), [0.2, -0.1, 0.3])
        state = RigidBodyState(conf, pose)
        meas = simulate_measurements(anchors, state, QUIET)
        edm = assemble_edm(anchors, conf, meas)
        joint = np.vstack([anchors.anchors, state.world_nodes()])
        truth = pairwise_distances(joint) ** 2
        assert np.abs(edm.squared_distances - truth).max() < 1e-9
        # Double-centered Gram of an exact 3D EDM has rank 3.
        n = edm.size
        j = np.eye(n) - np.ones((n, n)) / n
        gram = -0.5 * j @ edm.squared_distances @ j
        eig = np.sort(np.linalg.eigvalsh(gram))
        assert np.sum(eig > 1e-6 * eig.max()) == 3

    def test_empty_cross_mask(self):
        conf = unit_cube()
        anchors = cube_anchors()
        state = RigidBodyState(conf, Pose.identity())
        meas = simulate_measurements(anchors, state, QUIET)
        with pytest.warns(CoverageWarning):
            meas = apply_blockage(meas, BernoulliBlockage(p=1.0, seed=2))
        edm = assemble_edm(anchors, conf, meas)
        a = anchors.num_anchors
        assert not edm.known_mask[:a, a:].any()
        assert edm.known_mask[:a, :a].all() and edm.known_mask[a:, a:].all()

    def test_single_anchor_single_node_like(self):
        # Smallest legal body has 3 nodes; single anchor gives a 4x4 EDM with
        # a 1x1 anchor block and one cross row.
        conf = Conformation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        anchors = AnchorSet([[5.0, 0.0, 0.0]])
        meas = simulate_measurements(anchors, RigidBodyState(conf, Pose.identity()), QUIET)
        edm = assemble_edm(anchors, conf, meas)
        assert edm.size == 4 and edm.n_anchors == 1
        assert edm.squared_distances[0, 1] == pytest.approx(16.0, abs=1e-12)
        assert np.allclose(np.diag(edm.squared_distances), 0.0)

    def test_hollow_symmetric_nonnegative_after_blockage(self):
        conf = unit_cube()
        anchors = cube_anchors()
        state = RigidBodyState(conf, Pose.identity())
        meas = simulate_measurements(anchors, state, NoiseModel(range_sigma=0.2, seed=8))
        meas = apply_blockage(meas, BernoulliBlockage(p=0.3, seed=8))
        edm = assemble_edm(anchors, conf, meas)
        d, known = edm.squared_distances, edm.known_mask
        assert np.array_equal(known, known.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d[known] >= 0.0)
        sym = np.where(known, d, 0.0)
        assert np.abs(sym - sym.T).max() == 0.0


class TestDeterminismAndJson:
    def test_measurement_set_bitwise_deterministic(self):
        anchors = cube_anchors()
        state = RigidBodyState(unit_cube(), Pose.identity(), Twist([0.1, 0, 0], [1, 0, 0]))
        noise = NoiseModel(range_sigma=0.1, angle_sigma=0.01, range_rate_sigma=0.05, seed=77)
        kinds = ("range", "aoa", "range_rate")
        a = simulate_measurements(anchors, state, noise, kinds)
        b = simulate_measurements(anchors, state, noise, kinds)
        assert np.array_equal(a.ranges, b.ranges)
        assert np.array_equal(a.aoa, b.aoa)
        assert np.array_equal(a.range_rates, b.range_rates)

    def test_measurement_json_round_trip(self):
        anchors = cube_anchors()
        state = RigidBodyState(unit_cube(), Pose.identity(), Twist([0.1, 0, 0], [1, 0, 0]))
        noise = NoiseModel(range_sigma=0.1, angle_sigma=0.01, range_rate_sigma=0.05, seed=5)
        meas = simulate_measurements(anchors, state, noise, ("range", "aoa", "range_rate"))
        meas = apply_blockage(meas, BernoulliBlockage(p=0.25, seed=5))
        back = MeasurementSet.from_json_dict(meas.to_json_dict())
        assert np.array_equal(back.mask, meas.mask)
        assert np.array_equal(back.ranges[back.mask], meas.ranges[meas.mask])
        assert np.array_equal(back.aoa[back.mask], meas.aoa[meas.mask])
        assert np.all(np.isnan(back.ranges[~back.mask]))

    def test_edm_json_round_trip(self):
        conf = unit_cube()
        anchors = cube_anchors()
        meas = simulate_measurements(anchors, RigidBodyState(conf, Pose.identity()), QUIET)
        meas = apply_blockage(meas, BernoulliBlockage(p=0.4, seed=11))
        edm = assemble_edm(anchors, conf, meas)
        back = Edm.from_json_dict(edm.to_json_dict())
        assert np.array_equal(back.known_mask, edm.known_mask)
        assert np.array_equal(
            back.squared_distances[back.known_mask], edm.squared_distances[edm.known_mask]
        )
        assert back.n_anchors == edm.n_anchors

    def test_masked_entries_are_nan_not_zero(self):
        meas = MeasurementSet(
            mask=np.array([[True, False], [False, True]]),
            ranges=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert np.isnan(meas.ranges[0, 1]) and np.isnan(meas.ranges[1, 0])
        assert meas.ranges[0, 0] == 1.0 and meas.ranges[1, 1] == 4.0


def test_package_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial is imported only when a hull blockage is evaluated.
    src = str(Path(rblkit.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import rblkit; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert "'scipy.spatial'" not in out.stdout
    assert "'rblkit'" in out.stdout
