import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import cube_anchors, random_pose, unit_cube

from rblkit.bounds import (
    crlb_sweep,
    fim_batch,
    fim_ranges,
    frame_potential,
    placement_score,
    range_jacobian,
    sweep_to_csv,
)
from rblkit.errors import RblError
from rblkit.geometry import (
    Conformation,
    Pose,
    angle_residuals,
    grid_links,
    random_rotation,
    range_residuals,
    so3_exp,
    wrap_angle,
)
from rblkit.harness import preset, run_benchmark
from rblkit.measurement import AnchorSet, NoiseModel


def fd_range_jacobian(anchors, conf, pose, mask, delta=1e-6):
    """Central finite differences of the observed ranges in the 6-parameter
    right-perturbation chart."""
    jj, kk = np.nonzero(mask)
    cols = []
    for i in range(6):
        e = np.zeros(6)
        e[i] = delta

        def ranges(sign):
            rot = pose.rotation @ so3_exp(sign * e[:3])
            trans = pose.translation + sign * e[3:]
            world = conf.nodes @ rot.T + trans
            return np.linalg.norm(world[kk] - anchors.anchors[jj], axis=1)

        cols.append((ranges(+1.0) - ranges(-1.0)) / (2.0 * delta))
    return np.stack(cols, axis=1)


class TestFimRanges:
    def test_sigma_scaling_exact(self):
        rng = np.random.default_rng(1)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        r1 = fim_ranges(anchors, conf, pose, sigma=0.05)
        r2 = fim_ranges(anchors, conf, pose, sigma=0.10)
        assert np.allclose(r1.fim, 4.0 * r2.fim, rtol=1e-12)
        assert r2.translation_bound == pytest.approx(4.0 * r1.translation_bound, rel=1e-9)
        assert r2.rotation_bound == pytest.approx(4.0 * r1.rotation_bound, rel=1e-9)

    def test_jacobian_matches_finite_differences(self):
        conf, anchors = unit_cube(), cube_anchors()
        for trial in range(100):
            rng = np.random.default_rng(100 + trial)
            pose = random_pose(rng)
            mask = np.ones((anchors.num_anchors, conf.num_nodes), dtype=bool)
            analytic = range_jacobian(anchors, conf, pose, mask)
            fd = fd_range_jacobian(anchors, conf, pose, mask)
            assert np.abs(analytic - fd).max() < 1e-5

    def test_single_node_rotation_null_space(self):
        rng = np.random.default_rng(3)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        mask = np.zeros((anchors.num_anchors, conf.num_nodes), dtype=bool)
        mask[:, 2] = True
        report = fim_ranges(anchors, conf, pose, mask, sigma=0.1)
        assert report.singular
        assert report.crlb is None
        assert not np.isfinite(report.translation_bound)
        lever = conf.nodes[2] / np.linalg.norm(conf.nodes[2])
        direction = np.concatenate([lever, np.zeros(3)])
        basis = report.null_space
        projected = basis @ (basis.T @ direction)
        assert np.linalg.norm(projected - direction) < 1e-6

    def test_additivity_over_disjoint_masks(self):
        rng = np.random.default_rng(4)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        full = np.ones((8, 8), dtype=bool)
        part = rng.random((8, 8)) < 0.5
        f_a = fim_ranges(anchors, conf, pose, part, sigma=1.0).fim
        f_b = fim_ranges(anchors, conf, pose, full & ~part, sigma=1.0).fim
        f_union = fim_ranges(anchors, conf, pose, full, sigma=1.0).fim
        assert np.abs((f_a + f_b) - f_union).max() < 1e-12

    def test_invalid_sigma_rejected(self):
        conf, anchors = unit_cube(), cube_anchors()
        with pytest.raises(ValueError):
            fim_ranges(anchors, conf, Pose.identity(), sigma=0.0)

    def test_empty_mask_rejected(self):
        conf, anchors = unit_cube(), cube_anchors()
        mask = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ValueError):
            fim_ranges(anchors, conf, Pose.identity(), mask, sigma=0.1)


class TestCrlbSweep:
    def test_bound_ratios_follow_sigma_squared(self):
        rng = np.random.default_rng(5)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        reports = crlb_sweep(anchors, conf, pose, [0.01, 0.1, 1.0])
        t = [r.translation_bound for r in reports]
        assert t[1] / t[0] == pytest.approx(100.0, rel=1e-9)
        assert t[2] / t[0] == pytest.approx(10_000.0, rel=1e-9)

    def test_loglog_slope_two_within_one_percent(self):
        rng = np.random.default_rng(6)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        sigmas = np.logspace(-3, 0, 6)
        reports = crlb_sweep(anchors, conf, pose, sigmas)
        for field in ("translation_bound", "rotation_bound"):
            values = np.array([getattr(r, field) for r in reports])
            slope = np.polyfit(np.log(sigmas), np.log(values), 1)[0]
            assert abs(slope - 2.0) < 0.02

    def test_masking_never_improves_bound(self):
        rng = np.random.default_rng(7)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        full = np.ones((8, 8), dtype=bool)
        masked = rng.random((8, 8)) >= 0.3
        r_full = fim_ranges(anchors, conf, pose, full, sigma=0.1)
        r_masked = fim_ranges(anchors, conf, pose, masked, sigma=0.1)
        assert r_masked.translation_bound >= r_full.translation_bound - 1e-15
        assert r_masked.rotation_bound >= r_full.rotation_bound - 1e-15

    def test_csv_emission(self):
        conf, anchors = unit_cube(), cube_anchors()
        text = sweep_to_csv(crlb_sweep(anchors, conf, Pose.identity(), [0.1, 0.2]))
        lines = text.strip().split("\n")
        assert lines[0] == "sigma,crlb_translation_m2,crlb_rotation_rad2,condition_number"
        assert len(lines) == 3


class TestPlacementScore:
    @staticmethod
    def prior(n=5, seed=8):
        rng = np.random.default_rng(seed)
        return [random_pose(rng, translation_scale=0.3) for _ in range(n)]

    def test_duplicated_layout_halves_score(self):
        conf, anchors = unit_cube(), cube_anchors()
        prior = self.prior()
        base = placement_score(anchors, conf, prior, sigma=0.1)
        doubled = AnchorSet(np.vstack([anchors.anchors, anchors.anchors + 1e-9]))
        dup = placement_score(doubled, conf, prior, sigma=0.1)
        assert dup.score < base.score
        assert dup.score == pytest.approx(base.score / 2.0, rel=1e-4)

    def test_collapsed_anchors_flag_singularity(self):
        conf = unit_cube()
        cluster = AnchorSet([[3.0, 0, 0], [3.0 + 1e-9, 0, 0], [3.0, 1e-9, 0], [3.0, 0, 1e-9]])
        result = placement_score(cluster, conf, self.prior(3), sigma=0.1)
        assert len(result.excluded) == 3
        assert result.score == float("inf")

    def test_surrounding_beats_one_sided_layouts(self):
        conf = unit_cube()
        tetra = AnchorSet(
            1.5 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
        )
        prior = self.prior(4, seed=9)
        tetra_score = placement_score(tetra, conf, prior, sigma=0.1).score
        rng = np.random.default_rng(10)
        for _ in range(20):
            one_side = AnchorSet(
                np.column_stack(
                    [rng.uniform(2.5, 3.5, 4), rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)]
                )
            )
            assert tetra_score < placement_score(one_side, conf, prior, sigma=0.1).score

    def test_frame_potential_tight_frame_is_lower(self):
        axes = np.eye(3)
        clustered = np.array([[1, 0, 0], [0.999, 0.0447, 0], [0.999, -0.0447, 0]])
        clustered /= np.linalg.norm(clustered, axis=1)[:, None]
        assert frame_potential(axes) < frame_potential(clustered)


def explicit_fim(anchors, conf, pose, mask, sigma):
    """sum over the observed links of row^T row / sigma^2, with each range
    row [c_k x R^T u, u] written out link by link."""
    fim = np.zeros((6, 6))
    for j, k in zip(*np.nonzero(mask)):
        offset = pose.rotation @ conf.nodes[k] + pose.translation - anchors.anchors[j]
        u = offset / np.linalg.norm(offset)
        row = np.concatenate([np.cross(conf.nodes[k], pose.rotation.T @ u), u])
        fim += np.outer(row, row)
    return fim / sigma**2


class TestZeroLengthLinks:
    """An anchor placed on a node: node 0 of the unit cube at the identity pose."""

    @staticmethod
    def coincident_anchors():
        anchors = cube_anchors().anchors.copy()
        anchors[0] = unit_cube().nodes[0]
        return AnchorSet(anchors)

    def test_observed_link_raises_before_dividing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RblError, match="coincides"):
                fim_ranges(self.coincident_anchors(), unit_cube(), Pose.identity(), sigma=0.1)

    def test_unobserved_link_leaves_fim_finite(self):
        anchors, conf = self.coincident_anchors(), unit_cube()
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fim_ranges(anchors, conf, Pose.identity(), mask, sigma=0.1)
        assert np.all(np.isfinite(report.fim)) and not report.singular
        expected = explicit_fim(anchors, conf, Pose.identity(), mask, 0.1)
        assert np.allclose(report.fim, expected, rtol=1e-12, atol=1e-9)


def fd_angles(anchors, conf, pose, jj, kk, delta=1e-6):
    """Central finite differences of the links' azimuths and elevations in
    the right-perturbation chart, (2 M, 6), azimuths first."""
    cols = []
    for i in range(6):
        e = np.zeros(6)
        e[i] = delta

        def angles(sign):
            rot = pose.rotation @ so3_exp(sign * e[:3])
            offset = conf.nodes[kk] @ rot.T + pose.translation + sign * e[3:] - anchors[jj]
            az = np.arctan2(offset[:, 1], offset[:, 0])
            el = np.arcsin(offset[:, 2] / np.linalg.norm(offset, axis=1))
            return az, el

        (az_p, el_p), (az_m, el_m) = angles(+1.0), angles(-1.0)
        cols.append(np.concatenate([wrap_angle(az_p - az_m), el_p - el_m]) / (2.0 * delta))
    return np.stack(cols, axis=1)


class TestAngleBound:
    def test_angle_rows_match_finite_differences(self):
        # The rows behind the AoA information, checked as criterion 4 checks
        # the range rows; the FIM's angle part is their rows^T rows / sigma^2.
        rng = np.random.default_rng(404)
        worst_fd = worst_fim = 0.0
        for _ in range(100):
            anchors = rng.uniform(-3, 3, size=(6, 3))
            conf = Conformation(rng.uniform(-0.8, 0.8, size=(6, 3)))
            pose = Pose(random_rotation(rng), rng.uniform(-1, 1, 3))
            mask = rng.random((6, 6)) < 0.8
            mask[0, :] = True
            jj, kk = np.nonzero(mask)
            links = grid_links(anchors, conf.nodes, None, mask)
            _, _, delta, dist = range_residuals(pose.rotation, pose.translation, links, False)
            rows = angle_residuals(pose.rotation, links, delta, dist, None)[1]
            # The observed links' azimuth rows, then their elevation rows, as fd_angles orders them.
            rows = rows.reshape(2, -1, 6)[:, mask.ravel()].reshape(-1, 6)
            fd = fd_angles(anchors, conf, pose, jj, kk)
            worst_fd = max(worst_fd, float(np.abs(rows - fd).max()))

            args = (anchors, conf.nodes, pose.rotation[None], pose.translation[None], mask[None])
            with_angles = fim_batch(*args, [0.1], [0.02]).fim[0]
            ranges_only = fim_batch(*args, [0.1]).fim[0]
            expected = fd.T @ fd / 0.02**2
            gap = np.abs(with_angles - ranges_only - expected).max() / np.abs(expected).max()
            worst_fim = max(worst_fim, float(gap))
        assert worst_fd < 1e-5
        assert worst_fim < 1e-6

    def test_sweep_equals_batch_at_the_same_pose(self):
        rng = np.random.default_rng(12)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        mask = rng.random((8, 8)) >= 0.3
        sigmas = np.logspace(-3, 0, 6)
        reports = crlb_sweep(anchors, conf, pose, sigmas, mask, angle_sigma=0.01)
        n = len(sigmas)
        batch = fim_batch(
            anchors.anchors, conf.nodes, np.tile(pose.rotation, (n, 1, 1)),
            np.tile(pose.translation, (n, 1)), np.tile(mask, (n, 1, 1)), sigmas,
            np.full(n, 0.01),
        )
        for i, report in enumerate(reports):
            assert np.array_equal(report.fim, batch.fim[i])
            assert report.translation_bound == batch.translation_bound[i]
            assert report.rotation_bound == batch.rotation_bound[i]
        ranges_only = crlb_sweep(anchors, conf, pose, sigmas, mask)
        assert all(a.fim[0, 0] > r.fim[0, 0] for a, r in zip(reports, ranges_only))

    def test_angle_sigma_must_be_positive(self):
        conf, anchors = unit_cube(), cube_anchors()
        args = (anchors.anchors, conf.nodes, np.eye(3)[None], np.zeros((1, 3)))
        with pytest.raises(ValueError, match="angle_sigma"):
            fim_batch(*args, np.ones((1, 8, 8), dtype=bool), [0.1], [0.0])
        with pytest.raises(ValueError, match="angle_sigma"):
            crlb_sweep(anchors, conf, Pose.identity(), [0.1], angle_sigma=0.0)

    def test_nls_attains_the_aoa_bound(self):
        # fig4 with AoA: NLS fits ranges and angles and is efficient at every
        # sigma <= 0.1, so its 1000-trial MSE sits at the bound, within
        # criterion 3's one-sided 5% Monte Carlo slack.
        scenario, experiment = preset("fig4")
        scenario = replace(
            scenario, measurement_kinds=("range", "aoa"), noise=NoiseModel(angle_sigma=0.01)
        )
        experiment = replace(
            experiment, sigma_grid=tuple(s for s in experiment.sigma_grid if s <= 0.1),
            trials=1000, master_seed=7, estimators=("nls",),
        )
        rows = run_benchmark(scenario, experiment)
        assert len(rows) == 4
        for row in rows:
            assert row.failures == 0
            assert row.rmse_translation_m**2 >= 0.95 * row.crlb_translation_m**2, row
            assert row.rmse_rotation_deg**2 >= 0.95 * row.crlb_rotation_deg**2, row
