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
from .geometry import Conformation, Pose, apply_pose, pose_jacobian_rows, range_residuals
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
    jj, kk = np.nonzero(mask)
    links = (conf.nodes, kk, conf.nodes[kk], anchors.anchors[jj], None, None)
    _, _, _, delta, dist = range_residuals(pose.rotation, pose.translation, links, False)
    if np.any(dist <= 0.0):
        raise RblError("anchor coincides with a node; range gradient undefined")
    return pose_jacobian_rows(links[2], delta / dist[:, None], pose.rotation)


def _full_mask(anchors: AnchorSet, conf: Conformation) -> np.ndarray:
    return np.ones((anchors.num_anchors, conf.num_nodes), dtype=bool)


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
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    mask = _full_mask(anchors, conf) if mask is None else np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask is empty; no measurements to bound")
    rows = range_jacobian(anchors, conf, true_pose, mask)
    fim = (rows.T @ rows) / sigma**2
    eigval, eigvec = np.linalg.eigh(fim)
    largest = max(eigval[-1], 0.0)
    near_zero = eigval <= _SINGULAR_RCOND * max(largest, 1e-300)
    if near_zero.any():
        return CrlbReport(
            fim=fim,
            crlb=None,
            translation_bound=float("inf"),
            rotation_bound=float("inf"),
            sigma=sigma,
            condition_number=float("inf"),
            singular=True,
            null_space=eigvec[:, near_zero],
        )
    crlb = eigvec @ np.diag(1.0 / eigval) @ eigvec.T
    return CrlbReport(
        fim=fim,
        crlb=crlb,
        translation_bound=float(np.trace(crlb[3:, 3:])),
        rotation_bound=float(np.trace(crlb[:3, :3])),
        sigma=sigma,
        condition_number=float(eigval[-1] / eigval[0]),
        singular=False,
    )


def crlb_sweep(
    anchors: AnchorSet,
    conf: Conformation,
    true_pose: Pose,
    sigma_grid,
    mask=None,
) -> list[CrlbReport]:
    """One CrlbReport per noise level; bounds scale exactly as sigma^2."""
    return [fim_ranges(anchors, conf, true_pose, mask, float(s)) for s in sigma_grid]


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
    reports = [fim_ranges(anchors, conf, pose, mask, sigma) for pose in poses]
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
