"""Pose estimators: algebraic (MDS), iterative least squares, and Gaussian
belief propagation, plus anchorless relative localization and semantic
heading transforms.

All estimators return a PoseEstimate whose rotation satisfies the Pose
invariants; iterative methods report convergence honestly instead of
raising on a missed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .completion import (
    CompletionReport,
    complete_edm,
    embed_from_gram,
    gram_from_edm,
    zero_imputed,
)
from .errors import (
    AmbiguousAlignmentError,
    DegenerateEmbeddingError,
    IncompleteEdmError,
    InvalidHeadingError,
    UnderdeterminedError,
)
from .geometry import (
    Conformation,
    Pose,
    apply_pose,
    fit_alignment,
    pose_gauss_newton,
    pose_jacobian_rows,
    range_links,
    range_residuals,
    so3_project,
)
from .measurement import AnchorSet, Edm, MeasurementSet, NoiseModel, assemble_edm, wrap_angle

ESTIMATOR_TAGS = ("mds", "nls", "gabp")
NLS_MAX_ITERS = 100


@dataclass(frozen=True)
class PoseEstimate:
    """Estimated pose with solver diagnostics.

    per_node_positions holds the intermediate per-node world estimate for
    two-stage methods; node_variances the per-coordinate belief variances
    when the method produces them (GaBP's soft output). residual_rms is the
    RMS of observed-range residuals at the returned pose, in meters.
    """

    pose: Pose
    method_tag: str
    residual_rms: float = float("nan")
    iterations: int = 0
    per_node_positions: np.ndarray | None = None
    node_variances: np.ndarray | None = None
    converged: bool = True
    projection_distance: float = 0.0
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(v) for v in self.pose.rotation.ravel()],
            "axis_angle": [float(v) for v in self.pose.axis_angle()],
            "translation": [float(v) for v in self.pose.translation],
            "method_tag": self.method_tag,
            "residual_rms": float(self.residual_rms),
            "iterations": self.iterations,
            "converged": self.converged,
            "projection_distance": float(self.projection_distance),
            "message": self.message,
        }


@dataclass(frozen=True)
class NodeFix:
    """Single-node multilateration result.

    covariance is the unit-noise proxy inv(J^T J) of the range Jacobian at
    the solution; `ambiguous` flags mirror solutions (three anchors, or
    coplanar anchor geometry).
    """

    position: np.ndarray
    covariance: np.ndarray
    residual_rms: float
    ambiguous: bool


@dataclass(frozen=True)
class SemanticHeading:
    """Unit heading vector of a body plus its anchor point.

    body_vector is fixed in the body frame; world_vector is its image under
    the body's pose (defaults to the body vector for an unposed heading).
    """

    body_vector: np.ndarray
    world_vector: np.ndarray | None = None
    anchor_point: np.ndarray | None = None

    def __post_init__(self):
        body = np.asarray(self.body_vector, dtype=float)
        world = body.copy() if self.world_vector is None else np.asarray(self.world_vector, float)
        anchor = np.zeros(3) if self.anchor_point is None else np.asarray(self.anchor_point, float)
        for name, v in (("body_vector", body), ("world_vector", world)):
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise InvalidHeadingError(f"{name} must be a unit 3-vector")
        for arr in (body, world, anchor):
            arr.setflags(write=False)
        object.__setattr__(self, "body_vector", body)
        object.__setattr__(self, "world_vector", world)
        object.__setattr__(self, "anchor_point", anchor)


def procrustes(source, target, weights=None) -> Pose:
    """Best-fit rigid transform mapping `source` points onto `target` points.

    Minimizes the weighted sum of squared distances over rotations and
    translations; closed form via the SVD of the weighted cross-covariance.
    Raises AmbiguousAlignmentError for collinear (or smaller) source sets,
    where the rotation about the line is unobservable.
    """
    s = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if s.shape != y.shape or s.ndim != 2 or s.shape[1] != 3:
        raise ValueError(f"source and target must both be (K, 3), got {s.shape} vs {y.shape}")
    if s.shape[0] < 3:
        raise AmbiguousAlignmentError("alignment needs at least 3 corresponded points")
    q, t, _, s_c, w = fit_alignment(s, y, weights, proper=True)
    spread = np.linalg.svd(s_c * np.sqrt(w)[:, None], compute_uv=False)
    if spread[1] <= 1e-12 * max(spread[0], 1e-300):
        raise AmbiguousAlignmentError("source points are collinear; rotation ambiguous")
    return Pose(q, t)


def _differenced_rows(ref_a, ref_r, a_j, r_j):
    """The squared-range equations of one node differenced against a
    reference anchor, exactly linear in the position x: rows @ x = rhs.

    Broadcasts over leading axes: a_j is (..., M, 3), r_j is (..., M), and
    ref_a, ref_r broadcast against them.
    """
    rows = 2.0 * (a_j - ref_a)
    rhs = (ref_r**2 - r_j**2) + (a_j**2).sum(axis=-1) - (ref_a**2).sum(axis=-1)
    return rows, rhs


def multilaterate_node(anchors: AnchorSet, ranges, mask=None) -> NodeFix:
    """Locate a single node from ranges to known anchors.

    Solves the reference-differenced squared-range system (exactly linear
    in the position), then applies one Gauss-Newton correction on the true
    range residuals. Three observed anchors, or coplanar anchor geometry,
    leave a mirror solution; the fix is then flagged ambiguous.
    """
    r = np.asarray(ranges, dtype=float).reshape(-1)
    pts = anchors.anchors
    if r.shape[0] != pts.shape[0]:
        raise ValueError("one range per anchor expected")
    obs = np.isfinite(r) if mask is None else (np.asarray(mask, bool) & np.isfinite(r))
    idx = np.flatnonzero(obs)
    if idx.size < 3:
        raise UnderdeterminedError(
            f"multilateration needs >= 3 observed anchors, got {idx.size}"
        )
    a_obs = pts[idx]
    r_obs = r[idx]
    rows, rhs = _differenced_rows(a_obs[0], r_obs[0], a_obs[1:], r_obs[1:])
    x, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    ambiguous = idx.size == 3 or rank < 3

    # One Gauss-Newton step on true (non-squared) residuals.
    delta = x - a_obs
    dist = np.linalg.norm(delta, axis=1)
    unit = delta / np.where(dist > 0, dist, 1.0)[:, None]
    step, *_ = np.linalg.lstsq(unit, -(dist - r_obs), rcond=None)
    x = x + step

    delta = x - a_obs
    dist = np.linalg.norm(delta, axis=1)
    unit = delta / np.where(dist > 0, dist, 1.0)[:, None]
    resid = dist - r_obs
    jtj = unit.T @ unit
    cov = np.linalg.pinv(jtj)
    return NodeFix(
        position=x,
        covariance=cov,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        ambiguous=bool(ambiguous),
    )


def estimate_pose_mds(edm: Edm, anchors: AnchorSet, conf: Conformation) -> PoseEstimate:
    """Pose from a classical MDS embedding of the joint anchor+node EDM.

    The joint point set is recovered from the top-3 eigenpairs of the
    centered Gram matrix, pinned to the world frame by aligning the
    embedded anchors to the true anchor positions (allowing a reflection,
    since the embedding has arbitrary chirality), and the pose is read off
    the aligned node positions with a final Procrustes fit.
    """
    if not edm.is_complete():
        raise IncompleteEdmError("MDS needs a fully known EDM; run complete_edm first")
    a = edm.n_anchors
    if a != anchors.num_anchors or edm.n_nodes != conf.num_nodes:
        raise ValueError("EDM block sizes do not match anchors/conformation")
    gram = gram_from_edm(edm)
    points, eigvals = embed_from_gram(gram, dim=3)
    if eigvals[2] <= 1e-9 * max(eigvals[0], 1e-300):
        raise DegenerateEmbeddingError(
            f"Gram matrix has fewer than 3 significantly positive eigenvalues: {eigvals[:4]}"
        )
    q, shift, _, _, _ = fit_alignment(points[:a], anchors.anchors, None, proper=False)
    node_positions = points[a:] @ q.T + shift
    pose = procrustes(conf.nodes, node_positions)
    fitted = apply_pose(conf, pose)
    cross = np.sqrt(edm.squared_distances[:a, a:])
    dist = np.linalg.norm(fitted[None, :, :] - anchors.anchors[:, None, :], axis=-1)
    residual = float(np.sqrt(np.mean((dist - cross) ** 2)))
    return PoseEstimate(
        pose=pose,
        method_tag="mds",
        residual_rms=residual,
        per_node_positions=node_positions,
    )


def mds_from_ranges(
    meas: MeasurementSet, anchors: AnchorSet, conf: Conformation, completion: bool = True
) -> tuple[PoseEstimate, CompletionReport | None]:
    """The EDM pipeline: assemble the joint EDM from the observed ranges,
    complete it when links are missing, and embed it with MDS.

    With completion=False a masked EDM is zero-filled instead (the
    baseline completion is measured against). Returns the MDS estimate and
    the completion report, which is None when nothing was completed.
    """
    edm = assemble_edm(anchors, conf, meas)
    report = None
    if not edm.is_complete():
        if completion:
            report = complete_edm(edm)
            edm = report.completed
        else:
            edm = zero_imputed(edm)
    return estimate_pose_mds(edm, anchors, conf), report


def _nls_weights(noise: NoiseModel | None) -> tuple[float, float]:
    if noise is None:
        return 1.0, 1.0
    w_range = 1.0 / noise.range_sigma**2 if noise.range_sigma > 0 else 1.0
    w_angle = 1.0 / noise.angle_sigma**2 if noise.angle_sigma > 0 else 1.0
    return w_range, w_angle


def _adoa_indices(jj, kk):
    """Flat index pairs for azimuth differencing: per node, every observed
    entry against that node's first observed anchor. Returns (entries, refs)."""
    sel, refs = [], []
    for node in np.unique(kk):
        pos = np.flatnonzero(kk == node)
        if pos.size < 2:
            continue
        sel.extend(pos[1:])
        refs.extend([pos[0]] * (pos.size - 1))
    return np.asarray(sel, dtype=int), np.asarray(refs, dtype=int)


def _nls_residuals(rot, trans, obs, w_range, w_angle, adoa_idx, jacobian=True):
    """Stacked weighted residuals, Jacobian rows and curvature at (rot, trans).

    `obs` holds the geometry.range_links of the observed entries, then their
    AoA pairs, gathered once per solve (ranges or AoA are None when not
    measured). Rows are ordered ranges first, then azimuths (absolute, or
    reference-differenced when adoa_idx is given) and elevations, each
    scaled by the square root of its type weight, for a right perturbation
    (rot -> rot expm(d_theta), trans -> trans + d_t). The curvature is the
    range block's alone; jacobian=False gives None for rows and curvature.
    """
    nodes, aoa = obs[2], obs[6]
    range_res, range_rows, curv, delta, dist = range_residuals(rot, trans, obs[:6], jacobian)
    curv = None if curv is None else w_range * curv
    sw = np.sqrt(w_range)
    if aoa is None:
        return sw * range_res, (sw * range_rows if jacobian else None), curv
    res_parts, jac_parts = [], []
    if range_res is not None:
        res_parts.append(sw * range_res)
        if jacobian:
            jac_parts.append(sw * range_rows)
    dx, dy, dz = delta[:, 0], delta[:, 1], delta[:, 2]
    az = np.arctan2(dy, dx)
    el = np.arcsin(np.clip(dz / dist, -1.0, 1.0))
    if adoa_idx is not None:
        sel, refs = adoa_idx
        meas_diff = wrap_angle(aoa[sel, 0] - aoa[refs, 0])
        res_parts.append(np.sqrt(w_angle) * wrap_angle(az[sel] - az[refs] - meas_diff))
    else:
        res_parts.append(np.sqrt(w_angle) * wrap_angle(az - aoa[:, 0]))
    res_parts.append(np.sqrt(w_angle) * (el - aoa[:, 1]))
    if jacobian:
        rho2 = dx**2 + dy**2
        rho = np.sqrt(rho2)
        az_rows = np.stack([-dy / rho2, dx / rho2, np.zeros_like(dx)], axis=1)
        el_rows = np.stack(
            [-dx * dz / (dist**2 * rho), -dy * dz / (dist**2 * rho), rho / dist**2], axis=1
        )
        az_jac = pose_jacobian_rows(nodes, az_rows, rot)
        if adoa_idx is not None:
            az_jac = az_jac[sel] - az_jac[refs]
        jac_parts.append(np.sqrt(w_angle) * az_jac)
        jac_parts.append(np.sqrt(w_angle) * pose_jacobian_rows(nodes, el_rows, rot))
    return np.concatenate(res_parts), (np.vstack(jac_parts) if jacobian else None), curv


def estimate_pose_nls(
    meas: MeasurementSet,
    anchors: AnchorSet,
    conf: Conformation,
    init: Pose | None = None,
    noise: NoiseModel | None = None,
    use_adoa: bool = False,
) -> PoseEstimate:
    """Damped Newton fit of the pose to all observed measurements.

    Residual types are weighted by their inverse noise variances (weight 1
    where the noise level is zero or unknown); angle residuals are wrapped
    before squaring. With use_adoa=True the absolute azimuths are replaced
    by per-node differences against a reference anchor, for setups where
    anchor headings share an unknown offset. The default starting point is
    the MDS estimate on the (completed, if necessary) EDM. The solver is
    geometry.pose_gauss_newton, Newton on the range terms, converged once a
    step accepted on the first damping try moves the cost by at most 1e-12
    relative; missing that in NLS_MAX_ITERS iterations, or an exhausted
    damping schedule, is reported via `converged`/`message`, never silently.
    """
    jj, kk = np.nonzero(meas.mask)
    adoa_idx = None
    if use_adoa and meas.aoa is not None:
        adoa_idx = _adoa_indices(jj, kk)
    n_res = 0
    if meas.ranges is not None:
        n_res += jj.size
    if meas.aoa is not None:
        n_res += (adoa_idx[0].size if adoa_idx is not None else jj.size) + jj.size
    if n_res < 6:
        raise UnderdeterminedError(f"pose has 6 degrees of freedom; got {n_res} residuals")

    if init is None:
        if meas.ranges is None:
            init = Pose.identity()
        else:
            init = mds_from_ranges(meas, anchors, conf)[0].pose

    w_range, w_angle = _nls_weights(noise)
    ranges, aoa = (None if m is None else m[jj, kk] for m in (meas.ranges, meas.aoa))
    obs = range_links(conf.nodes, kk, anchors.anchors[jj], ranges) + (aoa,)
    rot, trans, iterations, converged, message = pose_gauss_newton(
        _nls_residuals, np.array(init.rotation), np.array(init.translation), NLS_MAX_ITERS,
        args=(obs, w_range, w_angle, adoa_idx),
    )
    projected = so3_project(rot)
    projection_distance = float(np.linalg.norm(projected - rot))
    pose = Pose(projected, trans)
    res = range_residuals(pose.rotation, pose.translation, obs[:6], jacobian=False)[0]
    if res is None:
        res = _nls_residuals(pose.rotation, trans, obs, 1.0, 1.0, adoa_idx, jacobian=False)[0]
    residual_rms = float(np.sqrt(np.mean(res**2)))
    return PoseEstimate(
        pose=pose,
        method_tag="nls",
        residual_rms=residual_rms,
        iterations=iterations,
        converged=converged,
        projection_distance=projection_distance,
        message=message,
    )


_GABP_PRIOR_PRECISION = 1e-12


def _gabp_node_beliefs(anchor_xyz, ranges, mask, sigma):
    """Stage 1 of the message-passing estimator: per-node Gaussian beliefs.

    Each node's reference-differenced squared-range equations (against its
    first observed anchor), weighted by their inverse linearized noise
    variances, plus a vanishingly weak zero-mean prior, define a Gaussian
    over its 3 coordinates with information matrix J and vector h. Gaussian
    belief propagation converges to the means J^-1 h (Weiss & Freeman
    2001); they are solved for directly, all nodes as one (K, 3, 3) stack,
    with the exact marginal variances diag(J^-1). Returns means, variances
    (NaN for nodes with fewer than 3 observed anchors) and the usable mask.
    """
    usable = mask.sum(axis=0) >= 3
    obs = mask.T
    r = np.where(obs, ranges.T, 0.0)
    ref = obs.argmax(axis=1)
    ref_r = np.take_along_axis(r, ref[:, None], axis=1)
    # The reference's own row is identically zero; unobserved rows get weight 0.
    rows, rhs = _differenced_rows(anchor_xyz[ref][:, None, :], ref_r, anchor_xyz, r)
    weight = obs.astype(float)
    if sigma > 0.0:
        weight /= np.maximum(4.0 * sigma**2 * (r**2 + ref_r**2), 1e-12)
    weighted = rows * weight[:, :, None]
    info = _GABP_PRIOR_PRECISION * np.eye(3) + weighted.transpose(0, 2, 1) @ rows
    # The prior bounds every eigenvalue of J below; clipping there only
    # undoes rounding on nodes whose equations leave a direction unobserved.
    lam, basis = np.linalg.eigh(info)
    cov = (basis / np.maximum(lam, _GABP_PRIOR_PRECISION)[:, None, :]) @ basis.transpose(0, 2, 1)
    means = np.einsum("kij,kaj,ka->ki", cov, weighted, rhs)
    variances = np.diagonal(cov, axis1=1, axis2=2)
    keep = usable[:, None]
    return np.where(keep, means, np.nan), np.where(keep, variances, np.nan), usable


def estimate_pose_gabp(
    meas: MeasurementSet,
    anchors: AnchorSet,
    conf: Conformation,
    noise: NoiseModel | None = None,
) -> PoseEstimate:
    """Two-stage message-passing pose estimate.

    Stage 1 localizes each node independently at the exact fixed point of
    Gaussian belief propagation, with exact marginal variances (see
    _gabp_node_beliefs); stage 2 fits the pose by Procrustes over the
    belief means, weighted by the belief precisions so poorly observed
    nodes contribute little. The per-node marginal variances are returned
    as the soft-decision output. A direct solve has nothing to converge, so
    the estimate reports 0 iterations.
    """
    if meas.ranges is None:
        raise UnderdeterminedError("the message-passing estimator needs range measurements")
    sigma = noise.range_sigma if noise is not None else 0.0
    means, variances, usable = _gabp_node_beliefs(anchors.anchors, meas.ranges, meas.mask, sigma)
    if usable.sum() < 3:
        raise UnderdeterminedError(
            f"only {int(usable.sum())} nodes have >= 3 observed anchors; need 3"
        )
    weights = np.where(usable, (1.0 / variances).min(axis=1), 0.0)
    pose = procrustes(conf.nodes, np.where(usable[:, None], means, 0.0), weights)

    jj, kk = np.nonzero(meas.mask)
    world = apply_pose(conf, pose)
    d = np.linalg.norm(world[kk] - anchors.anchors[jj], axis=1)
    residual_rms = float(np.sqrt(np.mean((d - meas.ranges[jj, kk]) ** 2)))
    return PoseEstimate(
        pose=pose,
        method_tag="gabp",
        residual_rms=residual_rms,
        per_node_positions=means,
        node_variances=variances,
    )


def estimate_relative_pose(
    ego_conf: Conformation,
    cross_distances,
    target_conf: Conformation,
    mask=None,
    noise: NoiseModel | None = None,
    refine: bool = False,
) -> PoseEstimate:
    """Pose of a target body relative to an ego body, from cross distances.

    The ego nodes play the anchor role (their body-frame coordinates are
    the anchor positions), so the anchored pipeline applies unchanged:
    assemble the joint EDM, complete it when links are missing, embed via
    MDS, and optionally refine with the iterative estimator.
    """
    cross = np.asarray(cross_distances, dtype=float)
    ego = AnchorSet(ego_conf.nodes)
    if mask is None:
        mask = np.isfinite(cross)
    meas = MeasurementSet(mask=np.asarray(mask, bool), ranges=cross)
    estimate, _ = mds_from_ranges(meas, ego, target_conf)
    tag = "relative-mds"
    if refine:
        estimate = estimate_pose_nls(meas, ego, target_conf, init=estimate.pose, noise=noise)
        tag = "relative-nls"
    return replace(estimate, method_tag=tag)


def semantic_transform(heading: SemanticHeading, pose: Pose) -> SemanticHeading:
    """Carry a body-frame heading through a pose: v_world = R v_body, anchored at t."""
    world = pose.rotation @ heading.body_vector
    return SemanticHeading(
        body_vector=heading.body_vector,
        world_vector=world,
        anchor_point=pose.translation,
    )


def semantic_error(a: SemanticHeading, b: SemanticHeading) -> tuple[float, float]:
    """(angle between world vectors in degrees, distance between anchor points in m)."""
    cos = float(np.clip(a.world_vector @ b.world_vector, -1.0, 1.0))
    return math.degrees(math.acos(cos)), float(
        np.linalg.norm(a.anchor_point - b.anchor_point)
    )
