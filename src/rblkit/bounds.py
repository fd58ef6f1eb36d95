"""Fisher information and Cramer-Rao lower bounds for pose estimation from
ranges and, where measured, angles of arrival; plus anchor-placement scoring.

The information is built from the residual rows the iterative estimator
fits (geometry.range_residuals and angle_residuals), in the chart it steps
in: 6 pose parameters (rotation 3, translation 3), the rotation perturbed on
the right, R -> R expm([d_theta]x). Bound traces therefore compare directly
against estimator mean squared errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RblError, UndefinedBearingError
from .geometry import (
    Conformation,
    Pose,
    angle_residuals,
    apply_pose,
    eigh,
    grid_links,
    range_residuals,
)
from .measurement import AnchorSet

_SINGULAR_RCOND = 1e-12


@dataclass(frozen=True)
class CrlbReport:
    """Fisher information and its inverse for one scenario and noise level.

    translation_bound (m^2) and rotation_bound (rad^2) are the traces of
    the corresponding 3x3 blocks of the inverse; both are infinite when
    the information matrix is singular, in which case `null_space` holds
    an orthonormal basis of the unobservable parameter directions.
    """

    fim: np.ndarray
    crlb: np.ndarray | None
    translation_bound: float
    rotation_bound: float
    sigma: float
    condition_number: float
    singular: bool
    null_space: np.ndarray | None = None


def range_jacobian(anchors: AnchorSet, conf: Conformation, pose: Pose, mask=None) -> np.ndarray:
    """Rows d range(j,k) / d (d_theta, d_t) for the observed anchor-node pairs.

    With u the unit line-of-sight vector from anchor to node, the row is
    [ (c_k x R^T u)^T , u^T ].
    """
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    rows = _unit_rows(anchors.anchors, conf.nodes, pose.rotation, pose.translation, mask, False)
    return rows[0][mask.ravel()]


def _unit_rows(anchor_xyz, nodes, rot, trans, mask, angles: bool):
    """The unit-weight rows NLS fits at poses (..., 3, 3), (..., 3) with masks
    (..., A, K): range rows (..., A K, 6) and, with `angles`, azimuth and
    elevation rows (..., 2 A K, 6), else None; zero on unobserved links."""
    links = grid_links(anchor_xyz, nodes, None, mask)
    observed = mask.reshape(mask.shape[:-2] + (-1,))
    _, rows, delta, dist = range_residuals(rot, trans, links)
    if np.any(observed & (dist <= 0.0)):
        raise RblError("anchor coincides with a node; range gradient undefined")
    if not angles:
        return rows, None
    if np.any(observed & (delta[..., 0] == 0.0) & (delta[..., 1] == 0.0)):
        raise UndefinedBearingError("vertical line of sight; azimuth gradient undefined")
    return rows, angle_residuals(rot, links, delta, dist, None)[1]


def _full_mask(anchors: AnchorSet, conf: Conformation) -> np.ndarray:
    return np.ones((anchors.num_anchors, conf.num_nodes), dtype=bool)


def _problem_mask(anchors: AnchorSet, conf: Conformation, mask) -> np.ndarray:
    """The (A, K) mask of one bound, every link when None; refused when empty."""
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask is empty; no measurements to bound")
    return mask


def fim_ranges(
    anchors: AnchorSet,
    conf: Conformation,
    true_pose: Pose,
    mask=None,
    sigma: float = 1.0,
) -> CrlbReport:
    """Fisher information of the observed ranges under i.i.d. Gaussian noise.

    FIM = (1/sigma^2) sum over observed pairs of J^T J with J the range
    Jacobian row at the true pose. A singular FIM is reported (with its
    null-space basis), not raised: some scenarios are legitimately
    unobservable and callers decide what that means.
    """
    return crlb_sweep(anchors, conf, true_pose, [sigma], mask)[0]


@dataclass(frozen=True)
class CrlbBatch:
    """fim_ranges' outcomes for a stack of poses, as arrays: FIMs (B, 6, 6),
    their eigenvectors, inverses (placeholders where singular), bound traces
    and condition numbers (infinite where singular), the singular flags and
    which eigenvalues count as zero."""

    fim: np.ndarray
    eigvec: np.ndarray
    crlb: np.ndarray
    translation_bound: np.ndarray
    rotation_bound: np.ndarray
    condition_number: np.ndarray
    singular: np.ndarray
    near_zero: np.ndarray
    sigma: np.ndarray

    def report(self, i: int) -> CrlbReport:
        """Item i as fim_ranges reports it."""
        singular = bool(self.singular[i])
        return CrlbReport(
            fim=self.fim[i],
            crlb=None if singular else self.crlb[i],
            translation_bound=float(self.translation_bound[i]),
            rotation_bound=float(self.rotation_bound[i]),
            sigma=float(self.sigma[i]),
            condition_number=float(self.condition_number[i]),
            singular=singular,
            null_space=self.eigvec[i][:, self.near_zero[i]] if singular else None,
        )


def fim_batch(anchor_xyz, nodes, rot, trans, mask, sigma, angle_sigma=None) -> CrlbBatch:
    """Fisher information at a stack of true poses (B, 3, 3) and (B, 3),
    with masks (B, A, K) and range noise levels (B,).

    FIM = sum over the measured kinds of rows^T rows / sigma_kind^2, with
    the unit-weight rows of the residuals NLS fits: the observed ranges',
    and with angle noise levels `angle_sigma` (B,) their links' azimuths'
    and elevations'. Without angle_sigma the bound is range-only. An item
    that observes no link has a zero, singular FIM.
    """
    sigma = np.asarray(sigma, dtype=float)
    angle_sigma = None if angle_sigma is None else np.asarray(angle_sigma, dtype=float)
    for name, level in (("sigma", sigma), ("angle_sigma", angle_sigma)):
        bad = np.zeros(0) if level is None else level[level <= 0.0]
        if bad.size:
            raise ValueError(f"{name} must be > 0, got {float(bad[0])}")
    rows, angle_rows = _unit_rows(anchor_xyz, nodes, rot, trans, mask, angle_sigma is not None)
    fim = (rows.mT @ rows) / sigma[:, None, None] ** 2
    if angle_rows is not None:
        fim += (angle_rows.mT @ angle_rows) / angle_sigma[:, None, None] ** 2
    eigval, eigvec = eigh(fim)
    largest = np.maximum(eigval[:, -1], 0.0)
    near_zero = eigval <= _SINGULAR_RCOND * np.maximum(largest, 1e-300)[:, None]
    singular = near_zero.any(axis=-1)
    safe = np.where(singular[:, None], 1.0, eigval)
    crlb = (eigvec * (1.0 / safe)[:, None, :]) @ eigvec.mT  # eigvec diag(1 / safe) eigvec^T
    return CrlbBatch(
        fim=fim,
        eigvec=eigvec,
        crlb=crlb,
        translation_bound=np.where(singular, np.inf, np.trace(crlb[:, 3:, 3:], axis1=1, axis2=2)),
        rotation_bound=np.where(singular, np.inf, np.trace(crlb[:, :3, :3], axis1=1, axis2=2)),
        condition_number=np.where(singular, np.inf, eigval[:, -1] / safe[:, 0]),
        singular=singular,
        near_zero=near_zero,
        sigma=sigma,
    )


def crlb_sweep(
    anchors: AnchorSet,
    conf: Conformation,
    true_pose: Pose,
    sigma_grid,
    mask=None,
    angle_sigma: float | None = None,
) -> list[CrlbReport]:
    """One CrlbReport per range noise level, as fim_batch bounds it, with
    azimuths and elevations measured at angle_sigma when it is given.
    Range-only bounds scale exactly as sigma^2."""
    mask = _problem_mask(anchors, conf, mask)
    sigma = np.array([float(s) for s in sigma_grid])
    n = len(sigma)
    batch = fim_batch(
        anchors.anchors, conf.nodes, np.broadcast_to(true_pose.rotation, (n, 3, 3)),
        np.broadcast_to(true_pose.translation, (n, 3)), np.broadcast_to(mask, (n,) + mask.shape),
        sigma, None if angle_sigma is None else np.full(n, float(angle_sigma)),
    )
    return [batch.report(i) for i in range(n)]


def sweep_to_csv(reports) -> str:
    """CSV rows: sigma, crlb_translation_m2, crlb_rotation_rad2, condition_number."""
    lines = ["sigma,crlb_translation_m2,crlb_rotation_rad2,condition_number"]
    for r in reports:
        lines.append(
            f"{r.sigma:.12g},{r.translation_bound:.12g},"
            f"{r.rotation_bound:.12g},{r.condition_number:.12g}"
        )
    return "\n".join(lines) + "\n"


def frame_potential(unit_vectors) -> float:
    """Sum of squared pairwise inner products of a set of unit vectors.

    Lower values mean the directions are spread more like a tight frame.
    """
    u = np.asarray(unit_vectors, dtype=float)
    gram = u @ u.T
    return float(np.sum(gram**2))


@dataclass(frozen=True)
class PlacementScore:
    """Placement quality of an anchor layout against a pose prior.

    score is the mean over non-singular prior poses of
    translation_bound + rotation_bound; smaller is better.
    Poses with a singular FIM are excluded and listed in `excluded`.
    mean_frame_potential is a diagnostic on the anchor-to-centroid
    direction set, for comparison against frame-theoretic placement rules.
    """

    score: float
    per_pose: tuple[CrlbReport, ...]
    excluded: tuple[int, ...]
    mean_frame_potential: float


def placement_score(
    anchors: AnchorSet, conf: Conformation, pose_prior, sigma: float
) -> PlacementScore:
    """Score an anchor layout by the average CRLB over a prior set of poses."""
    poses = list(pose_prior)
    if not poses:
        raise ValueError("pose prior must contain at least one pose")
    mask = _full_mask(anchors, conf)
    batch = fim_batch(
        anchors.anchors, conf.nodes, np.array([p.rotation for p in poses]),
        np.array([p.translation for p in poses]), np.broadcast_to(mask, (len(poses),) + mask.shape),
        np.full(len(poses), float(sigma)),
    )
    reports = [batch.report(i) for i in range(len(poses))]
    excluded = tuple(i for i, r in enumerate(reports) if r.singular)
    totals = [r.translation_bound + r.rotation_bound for r in reports if not r.singular]
    score = float(np.mean(totals)) if totals else float("inf")
    diffs = [apply_pose(conf, pose).mean(axis=0) - anchors.anchors for pose in poses]
    potentials = [frame_potential(d / np.linalg.norm(d, axis=1)[:, None]) for d in diffs]
    return PlacementScore(
        score=score,
        per_pose=tuple(reports),
        excluded=excluded,
        mean_frame_potential=float(np.mean(potentials)),
    )
