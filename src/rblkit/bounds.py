"""Fisher information and Cramer-Rao lower bounds for range-based pose
estimation, plus anchor-placement scoring.

The 6 pose parameters are ordered (rotation 3, translation 3), with the
rotation parameterized by a right perturbation R -> R expm([d_theta]x) at
the evaluated pose: the same minimal chart the iterative estimator steps
in, so bound traces compare directly against estimator mean squared
errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RblError
from .geometry import (
    Conformation,
    Pose,
    apply_pose,
    diag_stack,
    link_grid,
    pose_jacobian_rows,
    range_links,
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

    def rotation_bound_deg2(self) -> float:
        """Rotation bound converted to squared degrees for report tables."""
        return self.rotation_bound * (180.0 / np.pi) ** 2


def range_jacobian(anchors: AnchorSet, conf: Conformation, pose: Pose, mask=None) -> np.ndarray:
    """Rows d range(j,k) / d (d_theta, d_t) for the observed anchor-node pairs.

    With u the unit line-of-sight vector from anchor to node, the row is
    [ (c_k x R^T u)^T , u^T ].
    """
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    rows = _grid_rows(anchors.anchors, conf.nodes, pose.rotation, pose.translation, mask)
    return rows[mask.ravel()]


def _grid_rows(anchor_xyz, nodes, rot, trans, mask) -> np.ndarray:
    """range_jacobian's rows on the full anchor x node grid of each pose of a
    stack, (..., A K, 6), with zero rows for the links `mask` leaves out."""
    a, k = mask.shape[-2:]
    jj, kk = link_grid(a, k)
    links = range_links(nodes, kk, anchor_xyz[jj], None)
    _, _, _, delta, dist = range_residuals(rot, trans, links, False)
    observed = mask.reshape(mask.shape[:-2] + (a * k,))
    if np.any(observed & (dist <= 0.0)):
        raise RblError("anchor coincides with a node; range gradient undefined")
    units = delta / np.where(dist > 0.0, dist, 1.0)[..., None]
    return np.where(observed[..., None], pose_jacobian_rows(links[2], units, rot), 0.0)


def _full_mask(anchors: AnchorSet, conf: Conformation) -> np.ndarray:
    return np.ones((anchors.num_anchors, conf.num_nodes), dtype=bool)


def _check_bound_inputs(mask, sigma) -> None:
    bad = sigma[sigma <= 0.0]
    if bad.size:
        raise ValueError(f"sigma must be > 0, got {float(bad[0])}")
    if not mask.any(axis=(-2, -1)).all():
        raise ValueError("mask is empty; no measurements to bound")


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
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    batch = fim_batch(
        anchors.anchors, conf.nodes, true_pose.rotation[None], true_pose.translation[None],
        mask[None], np.array([sigma], dtype=float),
    )
    return batch.report(0)


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
        if self.singular[i]:
            return CrlbReport(
                fim=self.fim[i],
                crlb=None,
                translation_bound=float("inf"),
                rotation_bound=float("inf"),
                sigma=float(self.sigma[i]),
                condition_number=float("inf"),
                singular=True,
                null_space=self.eigvec[i][:, self.near_zero[i]],
            )
        return CrlbReport(
            fim=self.fim[i],
            crlb=self.crlb[i],
            translation_bound=float(self.translation_bound[i]),
            rotation_bound=float(self.rotation_bound[i]),
            sigma=float(self.sigma[i]),
            condition_number=float(self.condition_number[i]),
            singular=False,
        )


def fim_batch(anchor_xyz, nodes, rot, trans, mask, sigma) -> CrlbBatch:
    """fim_ranges at a stack of true poses (B, 3, 3) and (B, 3), with masks
    (B, A, K) and noise levels (B,)."""
    sigma = np.asarray(sigma, dtype=float)
    _check_bound_inputs(mask, sigma)
    return _crlb_batch(_grid_rows(anchor_xyz, nodes, rot, trans, mask), sigma)


def _crlb_batch(rows, sigma) -> CrlbBatch:
    fim = (rows.mT @ rows) / sigma[:, None, None] ** 2
    eigval, eigvec = np.linalg.eigh(fim)
    largest = np.maximum(eigval[:, -1], 0.0)
    near_zero = eigval <= _SINGULAR_RCOND * np.maximum(largest, 1e-300)[:, None]
    singular = near_zero.any(axis=-1)
    safe = np.where(singular[:, None], 1.0, eigval)
    crlb = eigvec @ diag_stack(1.0 / safe) @ eigvec.mT
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
) -> list[CrlbReport]:
    """One CrlbReport per noise level; bounds scale exactly as sigma^2.
    The Jacobian rows are built once and shared by every level."""
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    sigma = np.array([float(s) for s in sigma_grid])
    _check_bound_inputs(mask, sigma)
    rows = _grid_rows(anchors.anchors, conf.nodes, true_pose.rotation, true_pose.translation, mask)
    batch = _crlb_batch(np.broadcast_to(rows, sigma.shape + rows.shape), sigma)
    return [batch.report(i) for i in range(len(sigma))]


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
    translation_bound + trade_off * rotation_bound; smaller is better.
    Poses with a singular FIM are excluded and listed in `excluded`.
    mean_frame_potential is a diagnostic on the anchor-to-centroid
    direction set, for comparison against frame-theoretic placement rules.
    """

    score: float
    per_pose: tuple[CrlbReport, ...]
    excluded: tuple[int, ...]
    mean_frame_potential: float
    trade_off: float


def placement_score(
    anchors: AnchorSet,
    conf: Conformation,
    pose_prior,
    sigma: float,
    trade_off: float = 1.0,
    mask=None,
) -> PlacementScore:
    """Score an anchor layout by the average CRLB over a prior set of poses."""
    poses = list(pose_prior)
    if not poses:
        raise ValueError("pose prior must contain at least one pose")
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    batch = fim_batch(
        anchors.anchors, conf.nodes, np.array([p.rotation for p in poses]),
        np.array([p.translation for p in poses]), np.broadcast_to(mask, (len(poses),) + mask.shape),
        np.full(len(poses), float(sigma)),
    )
    reports = [batch.report(i) for i in range(len(poses))]
    usable = [r for r in reports if not r.singular]
    excluded = tuple(i for i, r in enumerate(reports) if r.singular)
    if usable:
        score = float(
            np.mean([r.translation_bound + trade_off * r.rotation_bound for r in usable])
        )
    else:
        score = float("inf")
    potentials = []
    for pose in poses:
        centroid = apply_pose(conf, pose).mean(axis=0)
        diff = centroid - anchors.anchors
        norms = np.linalg.norm(diff, axis=1)
        potentials.append(frame_potential(diff / norms[:, None]))
    return PlacementScore(
        score=score,
        per_pose=tuple(reports),
        excluded=excluded,
        mean_frame_potential=float(np.mean(potentials)),
        trade_off=trade_off,
    )
