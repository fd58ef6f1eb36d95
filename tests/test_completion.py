import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblkit.completion import (
    block_embedding,
    centered_gram,
    complete_batch,
    complete_edm,
    edm_from_points,
    embed_from_gram,
    zero_imputed,
)
from rblkit.errors import CompletionInfeasibleError
from rblkit.estimators import mds_from_ranges
from rblkit.geometry import Conformation, Pose, RigidBodyState, random_rotation, so3_exp
from rblkit.harness import derive_seed, draw_trial, preset
from rblkit.measurement import (
    AnchorSet,
    Edm,
    NoiseModel,
    assemble_edm,
    simulate_measurements,
)


def unit_cube() -> Conformation:
    return Conformation(
        np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    )


def cube_anchors(side=3.0) -> AnchorSet:
    h = side / 2.0
    return AnchorSet(np.array([[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)]))


def cube_edm(sigma=0.0, seed=0, pose=None) -> tuple[Edm, np.ndarray]:
    conf, anchors = unit_cube(), cube_anchors()
    pose = pose or Pose(random_rotation(np.random.default_rng(seed)), [0.3, -0.2, 0.1])
    state = RigidBodyState(conf, pose)
    meas = simulate_measurements(anchors, state, NoiseModel(range_sigma=sigma, seed=seed))
    truth = assemble_edm(
        anchors, conf, simulate_measurements(anchors, state, NoiseModel())
    ).squared_distances
    return assemble_edm(anchors, conf, meas), truth


def drop_cross_entries(edm: Edm, fraction: float, seed: int) -> Edm:
    """Remove a random fraction of cross entries, keeping >= 1 per node."""
    rng = np.random.default_rng(seed)
    while True:
        keep = rng.random((edm.n_anchors, edm.n_nodes)) >= fraction
        if keep.any(axis=0).all():
            return mask_cross_entries(edm, keep)


def mask_cross_entries(edm: Edm, keep: np.ndarray) -> Edm:
    """Keep only the cross entries where `keep` (anchors x nodes) is True."""
    a = edm.n_anchors
    d = edm.squared_distances.copy()
    known = edm.known_mask.copy()
    known[:a, a:] = keep
    known[a:, :a] = keep.T
    d[~known] = np.nan
    return Edm(d, known, a)


class TestGram:
    def test_two_points_analytic_eigenvalues(self):
        d = 2.5
        eig = np.sort(np.linalg.eigvalsh(centered_gram(np.array([[0.0, d * d], [d * d, 0.0]]))))
        assert eig[1] == pytest.approx(d * d / 2.0, abs=1e-12)
        assert eig[0] == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_zero_gram(self):
        assert np.allclose(centered_gram(np.zeros((4, 4))), 0.0)

    def test_embedding_round_trip(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-2, 2, size=(10, 3))
        d = edm_from_points(points)
        gram = centered_gram(d)
        embedded, eigvals = embed_from_gram(gram)
        assert np.abs(edm_from_points(embedded) - d).max() < 1e-9
        assert np.sum(eigvals > 1e-9 * eigvals[0]) == 3


class TestCompleteEdm:
    def test_already_complete_returns_input(self):
        edm, _ = cube_edm()
        report = complete_edm(edm)
        assert report.iterations == 0
        assert report.converged
        assert np.array_equal(report.completed.squared_distances, edm.squared_distances)

    def test_noiseless_cube_30pct_removed(self):
        edm, truth = cube_edm(sigma=0.0, seed=42)
        masked = drop_cross_entries(edm, 0.3, seed=42)
        report = complete_edm(masked, max_iters=200)
        assert report.converged
        assert report.iterations <= 200
        removed = ~masked.known_mask
        rel = np.abs(report.completed.squared_distances[removed] - truth[removed]) / truth[removed]
        assert rel.max() < 1e-6

    def test_known_entries_bit_identical(self):
        edm, _ = cube_edm(sigma=0.15, seed=3)
        masked = drop_cross_entries(edm, 0.25, seed=3)
        report = complete_edm(masked)
        known = masked.known_mask
        assert np.array_equal(
            report.completed.squared_distances[known], masked.squared_distances[known]
        )
        # A noisy fit converges: sigma 0.05 with 30% of the links dropped.
        edm, _ = cube_edm(sigma=0.05, seed=10)
        assert complete_edm(drop_cross_entries(edm, 0.3, seed=10)).converged

    def test_completed_is_hollow_symmetric_nonnegative(self):
        edm, _ = cube_edm(sigma=0.1, seed=6)
        masked = drop_cross_entries(edm, 0.2, seed=6)
        out = complete_edm(masked).completed
        d = out.squared_distances
        assert out.is_complete()
        assert np.allclose(np.diag(d), 0.0)
        assert np.abs(d - d.T).max() == 0.0
        assert np.all(d >= 0.0)

    def test_orphaned_node_raises_with_indices(self):
        edm, _ = cube_edm()
        a = edm.n_anchors
        known = edm.known_mask.copy()
        known[:a, a + 2] = False
        known[a + 2, :a] = False
        d = edm.squared_distances.copy()
        d[~known] = np.nan
        with pytest.raises(CompletionInfeasibleError) as exc:
            complete_edm(Edm(d, known, a))
        assert exc.value.nodes == (2,)

    def test_noiseless_mismatch_nonexpansive(self):
        edm, _ = cube_edm(sigma=0.0, seed=9)
        masked = drop_cross_entries(edm, 0.3, seed=9)
        first = complete_edm(masked, max_iters=1)
        full = complete_edm(masked)
        assert full.final_mismatch <= first.final_mismatch + 1e-15

    def test_report_json(self):
        edm, _ = cube_edm(sigma=0.0, seed=12)
        masked = drop_cross_entries(edm, 0.2, seed=12)
        doc = complete_edm(masked).to_json_dict()
        assert set(doc) == {"completed", "iterations", "final_mismatch", "converged"}
        assert doc["converged"] is True


class TestCompletionBenefit:
    def test_beats_zero_imputation_downstream(self):
        # Paired trials: same noisy masked EDM through completion vs zero
        # fill, compared on translation MSE of the MDS pose downstream.
        from conftest import cube_anchors as build_anchors
        from conftest import random_pose, unit_cube as build_cube
        from rblkit.estimators import estimate_pose_mds
        from rblkit.geometry import RigidBodyState
        from rblkit.measurement import simulate_measurements

        conf, anchors = build_cube(), build_anchors()
        sq_completed, sq_zero = 0.0, 0.0
        trials = 500
        for trial in range(trials):
            rng = np.random.default_rng(200_000 + trial)
            truth = random_pose(rng)
            meas = simulate_measurements(
                anchors,
                RigidBodyState(conf, truth),
                NoiseModel(range_sigma=0.1, seed=300_000 + trial),
            )
            edm = assemble_edm(anchors, conf, meas)
            masked = drop_cross_entries(edm, 0.2, seed=400_000 + trial)
            est_c = estimate_pose_mds(complete_edm(masked).completed, anchors, conf)
            est_z = estimate_pose_mds(zero_imputed(masked), anchors, conf)
            sq_completed += np.linalg.norm(est_c.pose.translation - truth.translation) ** 2
            sq_zero += np.linalg.norm(est_z.pose.translation - truth.translation) ** 2
        assert sq_completed / trials < sq_zero / trials


def affine_rank(points) -> int:
    return int(np.linalg.matrix_rank(points - points.mean(axis=0), tol=1e-9))


@st.composite
def posed_masks(draw, flat_anchors, flat_body):
    """A preset geometry (fig4 cube or fig5 car) with its anchors and/or
    body optionally cut to their top faces (coplanar anchors, a planar
    body), a pose, and a random cross mask in which every node is ranged by
    anchors spanning the anchors' affine hull: four non-coplanar ones, or
    three non-collinear ones when the anchors are coplanar."""
    scenario, _ = preset(draw(st.sampled_from(["fig4", "fig5"])))
    anchors, nodes = scenario.anchors.anchors, scenario.conformation.nodes
    if flat_anchors:
        anchors = anchors[anchors[:, 2] > 0.0]
    if flat_body:
        nodes = nodes[nodes[:, 2] > 0.0]
    a, k = anchors.shape[0], nodes.shape[0]
    axis_angle = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    box = scenario.pose_distribution
    trans = [draw(st.floats(lo, hi)) for lo, hi in zip(box.translation_low, box.translation_high)]
    keep = np.array(draw(st.lists(st.booleans(), min_size=a * k, max_size=a * k))).reshape(a, k)
    for node in range(k):
        spanning = []
        for j in draw(st.permutations(range(a))):
            if affine_rank(anchors[spanning + [j]]) == len(spanning):
                spanning.append(j)
        keep[spanning, node] = True
    return AnchorSet(anchors), Conformation(nodes), Pose(so3_exp(axis_angle), trans), keep


class TestCompletionRecovery:
    @pytest.mark.parametrize(
        "flat_anchors, flat_body",
        [(False, False), (False, True), (True, False), (True, True)],
        ids=["solid", "planar-body", "coplanar-anchors", "both-planar"],
    )
    @settings(deadline=None)
    @given(data=st.data())
    def test_noiseless_completion_is_exact(self, flat_anchors, flat_body, data):
        anchors, conf, pose, keep = data.draw(posed_masks(flat_anchors, flat_body))
        meas = simulate_measurements(anchors, RigidBodyState(conf, pose), NoiseModel())
        edm = assemble_edm(anchors, conf, meas)
        masked = mask_cross_entries(edm, keep)
        out = complete_edm(masked).completed.squared_distances
        truth, known = edm.squared_distances, masked.known_mask
        rel = np.abs(out[~known] - truth[~known]) / truth[~known]
        assert rel.max(initial=0.0) < 1e-9
        assert np.array_equal(out[known], masked.squared_distances[known])

    def test_fig5_mds_tail(self):
        # Rank alternation left 26 of these 200 draws more than 0.1 m off
        # (max 6.1 m) at a spurious fixed point.
        scenario, _ = preset("fig5")
        errors = []
        for trial in range(200):
            truth, meas = draw_trial(scenario, 0.01, derive_seed(606, 1, 0, trial))
            estimate, _ = mds_from_ranges(meas, scenario.anchors, scenario.conformation)
            errors.append(np.linalg.norm(estimate.pose.translation - truth.translation))
        assert max(errors) < 0.1

    def test_fig5_sigma_one_fits_converge(self):
        # An absolute step-norm test left 10 of these 200 fits at the
        # 500-iteration cap (64.5 iterations on average); Gauss-Newton under
        # the relative test still left 1 there (26.65 on average), creeping
        # linearly on a large-residual fit. Newton steps on the range
        # curvature converge every one, in 6.6 iterations on average.
        scenario, _ = preset("fig5")
        reports = []
        for trial in range(200):
            _, meas = draw_trial(scenario, 1.0, derive_seed(606, 1, 0, trial))
            edm = assemble_edm(scenario.anchors, scenario.conformation, meas)
            reports.append(complete_edm(edm))
        assert sum(not r.converged for r in reports) == 0
        assert np.mean([r.iterations for r in reports]) < 10


class TestCompleteBatch:
    @pytest.mark.parametrize("sigma, max_iters", [(0.01, 500), (1.0, 500), (1.0, 3)])
    def test_stack_items_equal_complete_edm(self, sigma, max_iters):
        # The stack shares its anchor and node blocks, which embed once per
        # call; every item still completes as complete_edm completes it
        # alone, bit for bit, capped fits included.
        scenario, _ = preset("fig5")
        anchors, conf = scenario.anchors, scenario.conformation
        edms = []
        for trial in range(40):
            _, meas = draw_trial(scenario, sigma, derive_seed(607, 1, 0, trial))
            edms.append(assemble_edm(anchors, conf, meas))
        edms = [edm for edm in edms if not edm.is_complete()]
        d = np.array([edm.squared_distances for edm in edms])
        known = np.array([edm.known_mask for edm in edms])
        batch = complete_batch(d, known, anchors.num_anchors, max_iters)
        assert len(edms) > 20 and (max_iters == 500) == batch.converged.all()
        for i, edm in enumerate(edms):
            alone, stacked = complete_edm(edm, max_iters), batch.report(i)
            assert np.array_equal(
                stacked.completed.squared_distances, alone.completed.squared_distances
            )
            assert stacked.final_mismatch == alone.final_mismatch
            assert (stacked.iterations, stacked.converged) == (alone.iterations, alone.converged)


class TestBlockEmbedding:
    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_memoized_block_equals_uncached(self, name):
        # A scenario's anchor and node blocks embed once: the cached points are
        # read-only and have the uncached points' bits and layout, and the two
        # blocks, or two bodies, never share an entry.
        scenario, _ = preset(name)
        anchors, nodes = scenario.anchors.anchors, scenario.conformation.nodes
        a, n = len(anchors), len(anchors) + len(nodes)
        d = np.zeros((2, n, n))  # a stack, as complete_batch slices it
        d[0, :a, :a], d[0, a:, a:] = edm_from_points(anchors), edm_from_points(nodes)
        for block in (d[0, :a, :a], d[0, a:, a:]):
            points = block_embedding(block)
            uncached = embed_from_gram(centered_gram(block))[0]
            assert not points.flags.writeable
            assert points.strides == uncached.strides
            assert points.tobytes() == uncached.tobytes()
            assert block_embedding(block.copy()) is points
        assert block_embedding(d[0, :a, :a]) is not block_embedding(d[0, a:, a:])
        cube = unit_cube().nodes
        assert block_embedding(edm_from_points(2.0 * cube)) is not block_embedding(
            edm_from_points(cube)
        )


class TestZeroImputed:
    def test_fills_unknown_with_zero(self):
        edm, _ = cube_edm()
        masked = drop_cross_entries(edm, 0.4, seed=5)
        filled = zero_imputed(masked)
        assert filled.is_complete()
        removed = ~masked.known_mask
        assert np.all(filled.squared_distances[removed] == 0.0)
        assert np.array_equal(
            filled.squared_distances[masked.known_mask],
            masked.squared_distances[masked.known_mask],
        )
