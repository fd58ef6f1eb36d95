import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

import rblkit
from rblkit.errors import (
    ConfigError,
    CoverageWarning,
    InvalidPolicyError,
    RangeClampWarning,
    UndefinedBearingError,
)
from rblkit.geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    affine_rank,
    pairwise_distances,
    propagate_state,
    random_rotation,
    transform_points,
)
from rblkit.harness import BlockageSpec, preset
from rblkit.measurement import (
    STREAM_BLOCKAGE,
    UNKEYED,
    AnchorSet,
    Edm,
    MeasurementSet,
    NoiseModel,
    apply_blockage,
    assemble_edm,
    bernoulli_keep,
    hull_facets,
    hull_keep,
    noise_keys,
    simulate_batch,
    simulate_measurements,
    streams,
    wrap_angle,
)

QUIET = NoiseModel()


def simulate_ranges(anchors: AnchorSet, nodes, noise: NoiseModel) -> np.ndarray:
    """Noisy ranges (A, K) from the anchors to world points (K, 3)."""
    world = np.asarray(nodes, dtype=float)[None]
    rngs = streams(*noise_keys(noise.sigmas, [noise.seed], ("range",)))
    return simulate_batch(anchors.anchors, world, [noise.sigmas], rngs, ("range",))[0][0]


def simulate_aoa(anchors: AnchorSet, nodes, noise: NoiseModel) -> np.ndarray:
    """Noisy (azimuth, elevation) bearings (A, K, 2) to world points (K, 3)."""
    world = np.asarray(nodes, dtype=float)[None]
    rngs = streams(*noise_keys(noise.sigmas, [noise.seed], ("aoa",)))
    return simulate_batch(anchors.anchors, world, [noise.sigmas], rngs, ("aoa",))[1][0]


def simulate_range_rates(anchors: AnchorSet, state: RigidBodyState, noise) -> np.ndarray:
    """Noisy radial velocities (A, K) of the body's nodes."""
    return simulate_measurements(anchors, state, noise, ("range_rate",)).range_rates


def hull_mask(anchors: AnchorSet, nodes) -> np.ndarray:
    """The (A, K) links the hull of world points `nodes` leaves visible."""
    return BlockageSpec(kind="hull").policy(0, anchors, nodes)


def bernoulli_mask(p: float, seed: int, shape) -> np.ndarray:
    return bernoulli_keep(streams([seed], STREAM_BLOCKAGE), p, shape)[0]


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


class TestNoiseModel:
    @pytest.mark.parametrize(
        "seed, message",
        [(2.7, "'float' object cannot be interpreted as an integer"),
         (True, "refused bool True"),
         ("abc", "refused str 'abc'"),
         (-1, "must be an unsigned 64-bit integer, got -1")],
        ids=["float", "bool", "text", "negative"],
    )
    def test_seed_is_converted_strictly(self, seed, message):
        # As ExperimentConfig.master_seed: no float is truncated and no bool
        # read as a number.
        with pytest.raises(ConfigError) as caught:
            NoiseModel(seed=seed)
        assert caught.value.field == "noise.seed"
        assert str(caught.value) == f"noise.seed: {message}"

    def test_numpy_integer_seed(self):
        seed = NoiseModel(seed=np.uint64(2**63)).seed
        assert seed == 2**63 and type(seed) is int


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
        seeds = np.arange(100_000)
        world = np.tile([10.0, 0.0, 0.0], (len(seeds), 1, 1))
        sigmas = np.tile(NoiseModel(range_sigma=0.1).sigmas, (len(seeds), 1))
        rngs = streams(*noise_keys(sigmas, seeds, ("range",)))
        draws = simulate_batch(anchors.anchors, world, sigmas, rngs, ("range",))[0][:, 0, 0]
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


class TestWrapAngle:
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
        out = apply_blockage(meas, bernoulli_mask(0.0, 5, meas.shape))
        assert np.array_equal(out.mask, meas.mask)
        assert np.array_equal(out.ranges, meas.ranges)

    def test_p_one_all_absent_with_warning(self):
        meas = self.full_measurements()
        with pytest.warns(CoverageWarning):
            out = apply_blockage(meas, bernoulli_mask(1.0, 5, meas.shape))
        assert not out.mask.any()
        assert np.all(np.isnan(out.ranges))

    def test_wrong_shape_mask_rejected(self):
        meas = self.full_measurements()
        with pytest.raises(InvalidPolicyError, match="shape"):
            apply_blockage(meas, np.ones((meas.shape[0], meas.shape[1] - 1), dtype=bool))
        with pytest.raises(InvalidPolicyError, match="shape"):
            apply_blockage(meas, np.ones((1,) + meas.shape, dtype=bool))

    def test_never_resurrects_absent(self):
        meas = self.full_measurements()
        half = np.ones(meas.shape, dtype=bool)
        half[::2, :] = False
        masked = apply_blockage(meas, half)
        out = apply_blockage(masked, np.ones(meas.shape, dtype=bool))
        assert not (out.mask & ~masked.mask).any()

    def test_hull_occlusion_matches_sampling_oracle(self):
        # Anchor sits on the -x side; nodes on the far (+x) face are occluded.
        nodes = unit_cube().nodes
        anchors = AnchorSet([[-3.0, 0.1, 0.2]])
        state = RigidBodyState(unit_cube(), Pose.identity())
        meas = simulate_measurements(anchors, state, QUIET)
        out = apply_blockage(meas, hull_mask(anchors, nodes))

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
            keep = hull_mask(anchors, nodes)
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
            keep = hull_mask(anchors, nodes)
        assert np.array_equal(keep, hull_oracle_keep(anchors.anchors, nodes, 1e-9))
        top = nodes[:, 2] > 0
        assert keep[:, top].all() and not keep[2, ~top].any()


def hull_oracle_keep(anchors, nodes, margin):
    """Per-link reference for the hull clip of hull_keep: the scalar
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


def random_placement(rng, nodes, scale):
    """nodes under a random proper rotation and a translation of `scale`."""
    return nodes @ random_rotation(rng).T + rng.normal(size=3) * scale


class TestHullFacets:
    def test_cube_has_six_facets(self):
        facets = hull_facets(unit_cube().nodes)
        assert facets.shape == (6, 3)
        # Each facet is one face: its three nodes share one coordinate.
        corners = unit_cube().nodes[facets]
        assert all(np.ptp(c, axis=0).min() == 0.0 for c in corners)

    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_preset_bodies_match_qhull_oracle(self, name):
        scenario, _ = preset(name)
        rng = np.random.default_rng(17)
        rot, trans = scenario.sample_poses([rng] * 500)
        world = transform_points(scenario.conformation.nodes, rot, trans)
        blocked = 0
        for nodes in world:
            keep = hull_mask(scenario.anchors, nodes)
            assert np.array_equal(keep, hull_oracle_keep(scenario.anchors.anchors, nodes, 1e-9))
            blocked += (~keep).sum()
        assert 0.05 < blocked / (~keep).size / len(world) < 0.5

    def test_clouds_with_interior_nodes_match_qhull_oracle(self):
        rng = np.random.default_rng(23)
        interior = blocked = 0
        for _ in range(60):
            shell = rng.normal(size=(rng.integers(4, 9), 3))
            inner = rng.uniform(-0.2, 0.2, size=(rng.integers(1, 5), 3)) + shell.mean(axis=0)
            nodes = random_placement(rng, np.vstack([shell, inner]), 3.0)
            anchors = AnchorSet(rng.normal(size=(rng.integers(1, 9), 3)) * 6.0)
            keep = hull_mask(anchors, nodes)
            assert np.array_equal(keep, hull_oracle_keep(anchors.anchors, nodes, 1e-9))
            interior += len(nodes) - len(ConvexHull(nodes).vertices)
            blocked += (~keep).sum()
        assert interior > 60 and blocked > 100

    @pytest.mark.parametrize("thickness", [1.5e-9, 3e-9])
    def test_slabs_just_above_rank_tolerance_match_qhull_oracle(self, thickness):
        # Boxes and random clouds whose thinnest side is `thickness` of their
        # extent, just above the 1e-9 at which Conformation calls a body flat.
        rng = np.random.default_rng(29)
        blocked = 0
        for trial in range(60):
            size = rng.uniform(1.0, 50.0)
            if trial % 2:
                body = rng.uniform(-0.5, 0.5, size=(rng.integers(5, 13), 3))
            else:
                body = unit_cube().nodes * [1.0, rng.uniform(0.3, 1.0), 1.0]
            nodes = random_placement(rng, body * [size, size, size * thickness], size)
            if affine_rank(nodes) < 3:
                continue
            anchors = AnchorSet(rng.normal(size=(6, 3)) * 2 * size + nodes.mean(axis=0))
            keep = hull_mask(anchors, nodes)
            assert np.array_equal(keep, hull_oracle_keep(anchors.anchors, nodes, 1e-9))
            blocked += (~keep).sum()
        assert blocked > 100

    @pytest.mark.parametrize(
        "spec", [BlockageSpec(kind="bernoulli", p=0.2), BlockageSpec(kind="hull")],
        ids=["bernoulli", "hull"],
    )
    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_stacked_clip_equals_single_policies(self, name, spec):
        # _observe masks a stack, clipping the hull with the body-frame facets;
        # the bench replay asks policy for one placement at a time, whose hull
        # facets come from its world nodes. Both must keep the same links; for
        # the hull they find the same triples, hence the same planes and bits.
        scenario, _ = preset(name)
        nodes = scenario.conformation.nodes
        rng = np.random.default_rng(31)
        rot, trans = scenario.sample_poses([rng] * 200)
        world = transform_points(nodes, rot, trans)
        rngs = streams(*spec.keys(range(len(world))))
        stacked = spec.keep_batch(rngs, scenario.anchors, nodes, world)
        assert stacked.shape == (len(world), scenario.anchors.num_anchors, len(nodes))
        assert 0.05 < 1.0 - stacked.mean() < 0.5
        for i, w in enumerate(world):
            assert np.array_equal(stacked[i], spec.policy(i, scenario.anchors, w))
        if spec.kind == "hull":
            facets = hull_facets(nodes)
            assert all(np.array_equal(hull_facets(w), facets) for w in world)
            assert np.array_equal(stacked, hull_keep(scenario.anchors.anchors, world, facets))

    def test_facets_memoized_by_value(self):
        # One entry per body, read-only, and equal bit for bit to the facets
        # found without the cache; another body, or the body at another
        # placement, never reads the entry.
        cube, car = unit_cube().nodes, preset("fig5")[0].conformation.nodes
        placed = transform_points(cube, random_rotation(np.random.default_rng(9)), np.ones(3))
        for nodes in (cube, car, placed, cube[::-1]):
            facets = hull_facets(nodes)
            assert not facets.flags.writeable
            assert hull_facets(np.array(nodes)) is facets
            uncached = hull_facets.__wrapped__(np.asarray(nodes, dtype=float))
            assert facets.dtype == uncached.dtype and facets.tobytes() == uncached.tobytes()
        assert len({id(hull_facets(n)) for n in (cube, car, placed, cube[::-1])}) == 4

    @pytest.mark.parametrize(
        "nodes, cause",
        [
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]], "coplanar"),
            ([[0, 0, 0], [1, 1, 1], [2, 2, 2.0]], "collinear"),
        ],
    )
    def test_flat_node_set_rejected(self, nodes, cause):
        nodes = random_placement(np.random.default_rng(3), np.asarray(nodes, dtype=float), 1.0)
        with pytest.raises(InvalidPolicyError, match=cause):
            hull_facets(nodes)


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
            meas = apply_blockage(meas, bernoulli_mask(1.0, 2, meas.shape))
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
        meas = apply_blockage(meas, bernoulli_mask(0.3, 8, meas.shape))
        edm = assemble_edm(anchors, conf, meas)
        d, known = edm.squared_distances, edm.known_mask
        assert np.array_equal(known, known.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d[known] >= 0.0)
        sym = np.where(known, d, 0.0)
        assert np.abs(sym - sym.T).max() == 0.0


class TestFrozenCopies:
    def test_measurement_set_copies_once_and_freezes(self):
        mask = np.array([[True, False], [True, True]])
        ranges, rates = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, -0.5], [0.0, 1.0]])
        meas = MeasurementSet(mask, ranges, range_rates=rates)
        assert ranges[0, 1] == 2.0 and rates[0, 1] == -0.5  # the inputs are left as they were
        for m in (meas.mask, meas.ranges, meas.range_rates):
            assert not m.flags.writeable and m.flags.owndata
        assert np.isnan(meas.ranges[0, 1]) and np.isnan(meas.range_rates[0, 1])
        with pytest.raises(ValueError, match="observed ranges must be nonnegative"):
            MeasurementSet(mask, -ranges)
        with pytest.raises(ValueError, match=r"aoa must have shape \(2, 2, 2\), got \(2, 2\)"):
            MeasurementSet(mask, aoa=ranges)

    def test_measurement_set_refusals_and_fill(self):
        mask = np.array([[True, False], [True, True]])
        ranges = np.array([[1.0, -2.0], [3.0, 4.0]])  # the negative one is unobserved
        rates, aoa = -ranges, np.arange(8.0).reshape(2, 2, 2) - 4.0
        meas = MeasurementSet(mask, ranges, aoa, rates)
        for m in (meas.ranges, meas.range_rates, meas.aoa):
            assert np.isnan(m[0, 1]).all() and np.isfinite(m[mask]).all()
        assert meas.range_rates[1, 0] == -3.0 and meas.aoa[1, 1].tolist() == [2.0, 3.0]
        for observed in ([0, 0], [1, 0], [1, 1]):
            bad = ranges.copy()
            bad[tuple(observed)] = -1e-300
            with pytest.raises(ValueError, match="^observed ranges must be nonnegative$"):
                MeasurementSet(mask, bad)
        assert MeasurementSet(mask, np.where(mask, -0.0, 1.0)).ranges[0, 0] == 0.0
        with pytest.raises(ValueError, match=r"^range_rates must have shape \(2, 2\), got \(2,\)$"):
            MeasurementSet(mask, ranges, range_rates=np.ones(2))
        with pytest.raises(ValueError, match=r"^mask must be \(A, K\)$"):
            MeasurementSet(np.ones(4, dtype=bool), np.ones(4))
        with pytest.raises(ValueError, match="^measurement set is empty$"):
            MeasurementSet(mask)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name, at", [("ranges", (1, 0)), ("aoa", (1, 0, 1))], ids=["ranges", "aoa"]
    )
    def test_non_finite_observed_values_refused(self, name, at, value):
        # NaN and inf pass the nonnegative check: observed, they are refused;
        # unobserved, they are absent and stored as NaN like any other entry.
        mask = np.array([[True, False], [True, True]])
        values = {"ranges": np.ones((2, 2)), "aoa": np.zeros((2, 2, 2))}
        values[name][at] = value
        with pytest.raises(ValueError, match=f"^observed {name} must be finite$"):
            MeasurementSet(mask, **values)
        hidden = mask.copy()
        hidden[1, 0] = False
        stored = getattr(MeasurementSet(hidden, **values), name)
        assert np.isnan(stored[1, 0]).all() and np.isfinite(stored[hidden]).all()
        # Range rates keep theirs: estimate_twist skips a non-finite rate.
        rates = np.ones((2, 2))
        rates[at[:2]] = value
        kept = MeasurementSet(mask, range_rates=rates).range_rates[1, 0]
        assert np.array_equal(kept, value, equal_nan=True)

    def test_measurement_set_from_read_only_arrays(self):
        # A set built from another's frozen arrays (as apply_blockage builds one)
        # gets its own frozen copies.
        mask = np.array([[True, True], [False, True]])
        source = MeasurementSet(mask, np.ones((2, 2)), range_rates=np.full((2, 2), 0.5))
        keep = source.mask & np.array([[True, False], [True, True]])
        meas = MeasurementSet(keep, source.ranges, range_rates=source.range_rates)
        for own, src in ((meas.ranges, source.ranges), (meas.range_rates, source.range_rates)):
            assert not own.flags.writeable and own.flags.owndata
            assert not np.shares_memory(own, src)
            assert np.isnan(own[0, 1]) and np.isnan(own[1, 0]) and not np.isnan(src[0, 1])
        assert not meas.mask.flags.writeable and not np.shares_memory(meas.mask, keep)

    @pytest.mark.parametrize("diagonal, hollow", [
        (1e-8, True), (-0.0, True), (1.5e-8, False), (-1.5e-8, False), (np.nan, False),
    ])
    def test_edm_hollow_diagonal_as_allclose(self, diagonal, hollow):
        # The diagonal test reads as np.allclose(diagonal, 0.0) read it.
        d = pairwise_distances(unit_cube().nodes) ** 2
        known = np.ones(d.shape, dtype=bool)
        d[3, 3] = diagonal
        assert hollow == np.allclose(np.diag(d), 0.0)
        if hollow:
            source = d.copy()
            edm = Edm(source, known, 2)
            source[0, 1] = 99.0
            assert edm.squared_distances[0, 1] == 1.0  # a copy, not a view of the input
            assert not edm.squared_distances.flags.writeable
            assert edm.squared_distances.flags.owndata
        else:
            with pytest.raises(ValueError, match="EDM must be hollow with a known diagonal"):
                Edm(d, known, 2)
        known[3, 3] = False
        with pytest.raises(ValueError, match="EDM must be hollow with a known diagonal"):
            Edm(np.where(known, d, 0.0), known, 2)


    @pytest.mark.parametrize(
        "n_anchors, message",
        [(2.5, "'float' object cannot be interpreted as an integer"), (True, "refused bool True")],
        ids=["fraction", "bool"],
    )
    def test_edm_reads_n_anchors_exactly(self, n_anchors, message):
        # Built in code as read from a document: 2.5 is not read as 2 anchors.
        d = pairwise_distances(unit_cube().nodes) ** 2
        known = np.ones(d.shape, dtype=bool)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Edm(d, known, n_anchors)
        doc = Edm(d, known, 2).to_json_dict() | {"n_anchors": n_anchors}
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Edm.from_json_dict(doc)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_edm_refuses_non_finite_known_entries(self, value):
        # A symmetric inf or a NaN off the diagonal is refused by name, before
        # the symmetry test could subtract it (inf - inf warns).
        d = pairwise_distances(unit_cube().nodes) ** 2
        d[1, 5] = d[5, 1] = value
        known = np.ones(d.shape, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^known squared distances must be finite$"):
                Edm(d, known, 2)
            known[1, 5] = known[5, 1] = False
            assert np.isnan(Edm(d, known, 2).squared_distances[1, 5])  # unknown: any value


class TestStreams:
    """streams hashes a whole stack of seeds as numpy's SeedSequence hashes
    each one, so every generator is the one default_rng builds."""

    EDGE = [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1]

    @staticmethod
    def reference(seed, which):
        key = () if which is None else (which,)
        return np.random.SeedSequence(int(seed), spawn_key=key)

    @pytest.mark.parametrize("which", [None, 0, 1, 2, 3])
    def test_words_equal_seed_sequence(self, which):
        rand = np.random.default_rng(23).integers(0, 2**64 - 1, 200, np.uint64, endpoint=True)
        seeds = np.concatenate([np.array(self.EDGE, dtype=np.uint64), rand])
        got = [g.bit_generator.seed_seq.generate_state(4, np.uint64) for g in streams(seeds, which)]
        want = [self.reference(s, which).generate_state(4, np.uint64) for s in seeds]
        np.testing.assert_array_equal(got, want)
        assert all(w.dtype.isnative and w.flags.c_contiguous for w in got)

    @pytest.mark.parametrize("which", [None, 3])
    @pytest.mark.parametrize("b", [1, 5, 24])
    def test_draws_equal_default_rng(self, b, which):
        seeds = np.random.default_rng(b).integers(0, 2**64 - 1, b, np.uint64, endpoint=True)
        for rng, seed in zip(streams(seeds, which), seeds, strict=True):
            ref = np.random.default_rng(self.reference(seed, which))
            np.testing.assert_array_equal(rng.standard_normal((3, 4)), ref.standard_normal((3, 4)))
            np.testing.assert_array_equal(rng.random(7), ref.random(7))

    @pytest.mark.parametrize("n", [0, 1, 5, 24, 41])
    def test_one_hash_of_mixed_pairs(self, n):
        # A draw hashes its pose (no spawn key), range, aoa, range-rate and
        # blockage streams together: each pair's words and draws are its own
        # SeedSequence's, whatever stands beside it in the stack.
        rng = np.random.default_rng(n + 60)
        seeds = rng.integers(0, 2**64 - 1, n, np.uint64, endpoint=True)
        seeds[: len(self.EDGE)] = self.EDGE[:n]
        which = rng.permutation(np.resize([UNKEYED, 0, 1, 2, STREAM_BLOCKAGE], n))
        got = streams(seeds, which)
        assert len(got) == n
        for g, seed, kind in zip(got, seeds, which.tolist()):
            ref = self.reference(seed, None if kind == UNKEYED else kind)
            words = g.bit_generator.seed_seq.generate_state(4, np.uint64)
            np.testing.assert_array_equal(words, ref.generate_state(4, np.uint64))
            ref = np.random.default_rng(ref)
            np.testing.assert_array_equal(g.standard_normal((2, 3)), ref.standard_normal((2, 3)))
            np.testing.assert_array_equal(g.random(4), ref.random(4))

    def test_python_int_seeds(self):
        words = [g.bit_generator.seed_seq.generate_state(4, np.uint64) for g in streams(self.EDGE)]
        want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in self.EDGE]
        np.testing.assert_array_equal(words, want)
        assert streams(np.array([], dtype=np.uint64), 0) == []

    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (4, np.uint32), (2, np.uint64)])
    def test_other_state_requests_refused(self, n_words, dtype):
        seq = streams([7], 1)[0].bit_generator.seed_seq
        with pytest.raises(ValueError, match="only the 4 uint64 words"):
            seq.generate_state(n_words, dtype)


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
        meas = apply_blockage(meas, bernoulli_mask(0.25, 5, meas.shape))
        back = MeasurementSet.from_json_dict(meas.to_json_dict())
        assert np.array_equal(back.mask, meas.mask)
        assert np.array_equal(back.ranges[back.mask], meas.ranges[meas.mask])
        assert np.array_equal(back.aoa[back.mask], meas.aoa[meas.mask])
        assert np.all(np.isnan(back.ranges[~back.mask]))

    def test_edm_json_round_trip(self):
        conf = unit_cube()
        anchors = cube_anchors()
        meas = simulate_measurements(anchors, RigidBodyState(conf, Pose.identity()), QUIET)
        meas = apply_blockage(meas, bernoulli_mask(0.4, 11, meas.shape))
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
    # rblkit needs only numpy at runtime; scipy.spatial serves the tests' oracles.
    src = str(Path(rblkit.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import rblkit; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert "'scipy.spatial'" not in out.stdout
    assert "'rblkit'" in out.stdout
