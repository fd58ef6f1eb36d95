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
    CompletionBatch,
    CompletionReport,
    centered_gram,
    complete_batch,
    embed_from_gram,
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
    fit_alignment,
    link_grid,
    pose_gauss_newton,
    pose_jacobian_rows,
    project_batch,
    range_links,
    range_residuals,
    transform_points,
)
from .measurement import AnchorSet, Edm, MeasurementSet, NoiseModel, assemble_batch, wrap_angle

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
class PoseBatch:
    """One method's pose estimates for a stack of B problems, as arrays.

    errors[i] is the RblError item i raised, or None; a failed item's
    numbers are placeholders. Iterative methods fill iterations, converged,
    messages and projection_distance; two-stage methods per_node_positions,
    and GaBP node_variances.
    """

    method_tag: str
    rotation: np.ndarray
    translation: np.ndarray
    residual_rms: np.ndarray
    errors: list
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None
    messages: list | None = None
    projection_distance: np.ndarray | None = None
    per_node_positions: np.ndarray | None = None
    node_variances: np.ndarray | None = None

    def estimate(self, i: int) -> PoseEstimate:
        """Item i as the single-problem estimator returns it, or its error raised."""
        if self.errors[i] is not None:
            raise self.errors[i]
        iterative = self.iterations is not None
        return PoseEstimate(
            pose=Pose(self.rotation[i], self.translation[i]),
            method_tag=self.method_tag,
            residual_rms=float(self.residual_rms[i]),
            iterations=int(self.iterations[i]) if iterative else 0,
            per_node_positions=_item(self.per_node_positions, i),
            node_variances=_item(self.node_variances, i),
            converged=bool(self.converged[i]) if iterative else True,
            projection_distance=float(self.projection_distance[i]) if iterative else 0.0,
            message=self.messages[i] if iterative else "",
        )

    def failure(self, i: int) -> str | None:
        """Why item i has no estimate to score: its error, or a missed convergence."""
        error = self.errors[i]
        if error is not None:
            return f"{type(error).__name__}: {error}"
        if self.converged is not None and not self.converged[i]:
            return f"not converged: {self.messages[i]}"
        return None


def _item(stack, i):
    return None if stack is None else stack[i]


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
    q, t, collinear = _procrustes(s, y, weights)
    if collinear:
        raise AmbiguousAlignmentError(_COLLINEAR)
    return Pose(q, t)


_COLLINEAR = "source points are collinear; rotation ambiguous"


def _procrustes(source, target, weights):
    """procrustes over leading axes: (rotations, translations, flags of
    collinear weighted sources, whose rotation is ambiguous)."""
    q, t, _, s_c, w = fit_alignment(source, target, weights, proper=True)
    spread = np.linalg.svd(s_c * np.sqrt(w)[..., None], compute_uv=False)
    return q, t, spread[..., 1] <= 1e-12 * np.maximum(spread[..., 0], 1e-300)


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
    if edm.n_anchors != anchors.num_anchors or edm.n_nodes != conf.num_nodes:
        raise ValueError("EDM block sizes do not match anchors/conformation")
    return mds_batch(edm.squared_distances[None], anchors.anchors, conf.nodes).estimate(0)


def mds_batch(d, anchor_xyz, nodes, errors=None) -> PoseBatch:
    """estimate_pose_mds of a stack of complete squared EDMs (B, n, n),
    anchors first; items failed upstream (`errors`) keep their error."""
    a = len(anchor_xyz)
    points, eigvals = embed_from_gram(centered_gram(d), dim=3)
    q, shift, _, _, _ = fit_alignment(points[:, :a], anchor_xyz, None, proper=False)
    node_positions = points[:, a:] @ q.mT + shift[:, None, :]
    rot, trans, collinear = _procrustes(nodes, node_positions, None)
    fitted = transform_points(nodes, rot, trans)
    cross = np.sqrt(d[:, :a, a:])
    dist = np.linalg.norm(fitted[:, None, :, :] - anchor_xyz[:, None, :], axis=-1)
    residual = np.sqrt(np.mean(((dist - cross) ** 2).reshape(len(d), -1), axis=-1))
    degenerate = eigvals[:, 2] <= 1e-9 * np.maximum(eigvals[:, 0], 1e-300)
    errors = [None] * len(d) if errors is None else list(errors)
    for i, error in enumerate(errors):
        if error is None and degenerate[i]:
            errors[i] = DegenerateEmbeddingError(
                "Gram matrix has fewer than 3 significantly positive eigenvalues:"
                f" {eigvals[i, :4]}"
            )
        elif error is None and collinear:
            errors[i] = AmbiguousAlignmentError(_COLLINEAR)
    return PoseBatch("mds", rot, trans, residual, errors, per_node_positions=node_positions)


def mds_from_ranges(
    meas: MeasurementSet, anchors: AnchorSet, conf: Conformation, completion: bool = True
) -> tuple[PoseEstimate, CompletionReport | None]:
    """The EDM pipeline: assemble the joint EDM from the observed ranges,
    complete it when links are missing, and embed it with MDS.

    With completion=False a masked EDM is zero-filled instead (the
    baseline completion is measured against). Returns the MDS estimate and
    the completion report, which is None when nothing was completed.
    """
    ranges = None if meas.ranges is None else meas.ranges[None]
    chain = chain_batch(anchors.anchors, conf.nodes, ranges, meas.mask[None], completion)
    return chain.mds.estimate(0), chain.report(0)


@dataclass(frozen=True)
class ChainBatch:
    """mds_from_ranges' outcomes for a stack: the MDS estimates and the
    completion of the items that needed one (`completed_items` holds their
    indices into the stack)."""

    mds: PoseBatch
    completion: CompletionBatch | None
    completed_items: np.ndarray

    def report(self, i: int) -> CompletionReport | None:
        """Item i's completion report, None when it needed none."""
        pos = np.flatnonzero(self.completed_items == i)
        return self.completion.report(int(pos[0])) if pos.size else None


def chain_batch(anchor_xyz, nodes, ranges, mask, completion: bool = True) -> ChainBatch:
    """mds_from_ranges of stacked (B, A, K) ranges and masks."""
    d, known = assemble_batch(anchor_xyz, nodes, ranges, mask)
    errors = [None] * len(d)
    completed, batch = np.flatnonzero(~known.all(axis=(-2, -1))), None
    if completion:
        batch = complete_batch(d[completed], known[completed], len(anchor_xyz))
        d[completed] = batch.completed
        for i, error in zip(completed, batch.errors):
            errors[i] = error
    else:
        completed = completed[:0]
        d = np.where(known, d, 0.0)  # the zero fill completion is measured against
    return ChainBatch(mds_batch(d, anchor_xyz, nodes, errors), batch, completed)


def nls_weights(range_sigma, angle_sigma) -> tuple[np.ndarray, np.ndarray]:
    """Inverse noise variances of range and angle residuals, elementwise;
    weight 1 where a noise level is zero or unknown."""

    def weight(sigma):
        sigma = np.asarray(sigma, dtype=float)
        return np.where(sigma > 0.0, 1.0 / np.where(sigma > 0.0, sigma, 1.0) ** 2, 1.0)

    return np.broadcast_arrays(weight(range_sigma), weight(angle_sigma))


def _nls_residuals(
    rot, trans, links, observed, w_range, aoa, w_angle, refs, az_weight, jacobian=True
):
    """Stacked weighted residuals, Jacobian rows and curvature of poses (B, 3, 3), (B, 3).

    `links` are the geometry.range_links of every anchor-node pair (ranges
    None when not measured) and `observed` (B, M) weighs the measured ones
    1, the others 0; aoa (B, M, 2) holds the links' (azimuth, elevation) or
    is None. Residuals are ordered ranges first, then azimuths (absolute,
    or differenced against the reference link refs[i] when refs is given,
    weighted by az_weight) and elevations, each scaled by the square root of
    its type weight (B,), for a right perturbation (rot -> rot
    expm(d_theta), trans -> trans + d_t). The curvature is the range
    block's alone; jacobian=False gives None for rows and curvature.
    """
    range_res, range_rows, curv, delta, dist = range_residuals(rot, trans, links, jacobian)
    w_range = w_range.reshape(-1, 1, 1)
    sw = np.sqrt(w_range)
    if aoa is None and not jacobian:
        return sw[:, 0] * range_res, None, None
    curv = None if curv is None else w_range * curv
    if aoa is None:
        return sw[:, 0] * range_res, sw * range_rows, curv
    nodes_k = links[2]
    res_parts, jac_parts = [], []
    if range_res is not None:
        res_parts.append(sw[:, 0] * range_res)
        if jacobian:
            jac_parts.append(sw * range_rows)
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    az = np.arctan2(dy, dx)
    el = np.arcsin(np.clip(dz / dist, -1.0, 1.0))
    sa = np.sqrt(w_angle)[:, None]
    if refs is not None:
        meas_diff = wrap_angle(aoa[..., 0] - np.take_along_axis(aoa[..., 0], refs, axis=-1))
        az_diff = az - np.take_along_axis(az, refs, axis=-1)
        res_parts.append(sa * wrap_angle(az_diff - meas_diff) * az_weight)
    else:
        res_parts.append(sa * wrap_angle(az - aoa[..., 0]) * az_weight)
    res_parts.append(sa * (el - aoa[..., 1]) * observed)
    if jacobian:
        rho2 = dx**2 + dy**2
        rho = np.sqrt(rho2)
        az_rows = np.stack([-dy / rho2, dx / rho2, np.zeros_like(dx)], axis=-1)
        el_rows = np.stack(
            [-dx * dz / (dist**2 * rho), -dy * dz / (dist**2 * rho), rho / dist**2], axis=-1
        )
        az_jac = pose_jacobian_rows(nodes_k, az_rows, rot)
        if refs is not None:
            az_jac = az_jac - np.take_along_axis(az_jac, refs[..., None], axis=-2)
        jac_parts.append(sa[..., None] * az_jac * az_weight[..., None])
        el_jac = pose_jacobian_rows(nodes_k, el_rows, rot)
        jac_parts.append(sa[..., None] * el_jac * observed[..., None])
    rows = np.concatenate(jac_parts, axis=-2) if jacobian else None
    return np.concatenate(res_parts, axis=-1), rows, curv


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
    sigmas = (0.0, 0.0) if noise is None else (noise.range_sigma, noise.angle_sigma)
    w_range, w_angle = nls_weights([sigmas[0]], [sigmas[1]])
    start = None if init is None else (init.rotation[None], init.translation[None], [None])
    stacks = [None if m is None else m[None] for m in (meas.ranges, meas.aoa)]
    return nls_batch(
        anchors.anchors, conf.nodes, meas.mask[None], *stacks, w_range, w_angle, start, use_adoa,
    ).estimate(0)


def nls_batch(
    anchor_xyz, nodes, mask, ranges, aoa, w_range, w_angle, init=None, use_adoa: bool = False
) -> PoseBatch:
    """estimate_pose_nls of stacked observations: masks and ranges (B, A, K),
    aoa (B, A, K, 2) (either None when not measured) and range and angle
    weights (B,), fitted in lockstep by geometry.pose_gauss_newton.

    init = (rotations, translations, errors) starts each item, and an item
    whose start failed keeps that error; by default the start is the MDS
    estimate (the identity without ranges). Each item solves on the full
    anchor x node link grid with its unobserved links weighted zero.
    """
    b, a, k = mask.shape
    jj, kk = link_grid(a, k)
    observed = mask.reshape(b, -1)
    n_obs = observed.sum(axis=-1)
    refs, az_weight = None, observed
    if use_adoa and aoa is not None:
        first = mask.argmax(axis=-2)[:, kk]  # each link's node's first observed anchor
        refs, az_weight = first * k + kk, observed & (jj != first)
    n_angles = 0 if aoa is None else az_weight.sum(axis=-1) + n_obs
    n_res = np.zeros(b, dtype=int) + (0 if ranges is None else n_obs) + n_angles
    errors = [
        UnderdeterminedError(f"pose has 6 degrees of freedom; got {n} residuals") if n < 6 else None
        for n in n_res
    ]
    if init is None and ranges is None:
        init = (np.broadcast_to(np.eye(3), (b, 3, 3)), np.zeros((b, 3)), [None] * b)
    elif init is None:
        mds = chain_batch(anchor_xyz, nodes, ranges, mask).mds
        init = (mds.rotation, mds.translation, [e or s for e, s in zip(errors, mds.errors)])
    errors = [s or e for e, s in zip(errors, init[2])]
    rot, trans = np.array(init[0], dtype=float), np.array(init[1], dtype=float)
    iterations, converged = np.zeros(b, dtype=int), np.zeros(b, dtype=bool)
    messages, projection, residual_rms = [""] * b, np.zeros(b), np.full(b, np.nan)
    fit = np.flatnonzero([e is None for e in errors])
    if fit.size:
        # Every item fits in the common case; the slice then copies nothing.
        fit = slice(None) if fit.size == b else fit
        weight = observed[fit].astype(float)
        grid_ranges = None if ranges is None else ranges.reshape(b, -1)[fit]
        links = range_links(nodes, kk, anchor_xyz[jj], grid_ranges, weight)
        aoa_f = None if aoa is None else np.where(mask[..., None], aoa, 0.0).reshape(b, -1, 2)[fit]
        refs_f = None if refs is None else refs[fit]
        az_w = weight if refs is None else az_weight[fit].astype(float)

        def residuals(r, t, ranges, weight, w_r, aoa, w_a, refs, az_w, jacobian):
            grid = links[:4] + (ranges, weight, links[6])
            return _nls_residuals(r, t, grid, weight, w_r, aoa, w_a, refs, az_w, jacobian)

        r_fit, t_fit, iterations[fit], converged[fit], fit_messages = pose_gauss_newton(
            residuals, rot[fit], trans[fit], NLS_MAX_ITERS,
            args=(links[4], weight, w_range[fit], aoa_f, w_angle[fit], refs_f, az_w),
        )
        projected, projection_errors = project_batch(r_fit)
        diff = (projected - r_fit).reshape(-1, 9)
        projection[fit] = np.sqrt(np.vecdot(diff, diff))  # np.linalg.norm of each difference
        if ranges is not None:
            final, count = range_residuals(projected, t_fit, links, jacobian=False)[0], n_obs[fit]
        else:
            ones = np.ones(len(weight))
            final = _nls_residuals(
                projected, t_fit, links, weight, ones, aoa_f, ones, refs_f, az_w, False
            )[0]
            count = n_angles[fit]
        residual_rms[fit] = np.sqrt(np.add.reduce(final**2, axis=-1) / count)
        rot[fit], trans[fit] = projected, t_fit
        for j, i in enumerate(np.arange(b)[fit]):
            messages[i], errors[i] = fit_messages[j], projection_errors[j]
    return PoseBatch(
        "nls", rot, trans, residual_rms, errors, iterations, converged, messages, projection
    )


_GABP_PRIOR_PRECISION = 1e-12


def _gabp_node_beliefs(anchor_xyz, ranges, mask, sigma):
    """Stage 1 of the message-passing estimator: per-node Gaussian beliefs.

    Each node's reference-differenced squared-range equations (against its
    first observed anchor), weighted by their inverse linearized noise
    variances, plus a vanishingly weak zero-mean prior, define a Gaussian
    over its 3 coordinates with information matrix J and vector h. Gaussian
    belief propagation converges to the means J^-1 h (Weiss & Freeman
    2001); they are solved for directly, all nodes as one (..., K, 3, 3)
    stack, with the exact marginal variances diag(J^-1). Ranges and masks
    are (..., A, K), sigma broadcasts over the leading axes. Returns means,
    variances (NaN for nodes with fewer than 3 observed anchors) and the
    usable mask.
    """
    usable = mask.sum(axis=-2) >= 3
    obs = mask.swapaxes(-1, -2)
    r = np.where(obs, ranges.swapaxes(-1, -2), 0.0)
    ref = obs.argmax(axis=-1)
    ref_r = np.take_along_axis(r, ref[..., None], axis=-1)
    # The reference's own row is identically zero; unobserved rows get weight 0.
    rows, rhs = _differenced_rows(anchor_xyz[ref][..., None, :], ref_r, anchor_xyz, r)
    sigma = np.asarray(sigma, dtype=float)[..., None, None]
    spread = np.maximum(4.0 * sigma**2 * (r**2 + ref_r**2), 1e-12)
    weight = obs / np.where(sigma > 0.0, spread, 1.0)
    weighted = rows * weight[..., None]
    info = _GABP_PRIOR_PRECISION * np.eye(3) + weighted.mT @ rows
    # The prior bounds every eigenvalue of J below; clipping there only
    # undoes rounding on nodes whose equations leave a direction unobserved.
    lam, basis = np.linalg.eigh(info)
    cov = (basis / np.maximum(lam, _GABP_PRIOR_PRECISION)[..., None, :]) @ basis.mT
    means = np.einsum("...kij,...kaj,...ka->...ki", cov, weighted, rhs)
    variances = np.diagonal(cov, axis1=-2, axis2=-1)
    keep = usable[..., None]
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
    batch = gabp_batch(anchors.anchors, conf.nodes, meas.mask[None], meas.ranges[None], [sigma])
    return batch.estimate(0)


def gabp_batch(anchor_xyz, nodes, mask, ranges, sigma) -> PoseBatch:
    """estimate_pose_gabp of stacked (B, A, K) masks and ranges with range
    noise levels (B,): one (B, K, 3, 3) belief solve and one stacked
    weighted Procrustes fit."""
    means, variances, usable = _gabp_node_beliefs(anchor_xyz, ranges, mask, sigma)
    n_usable = usable.sum(axis=-1)
    weights = np.where(usable, (1.0 / variances).min(axis=-1), 0.0)
    # Items with too few usable nodes fail; unit weights keep their placeholder fit defined.
    weights[n_usable < 3] = 1.0
    rot, trans, collinear = _procrustes(nodes, np.where(usable[..., None], means, 0.0), weights)
    errors = [
        UnderdeterminedError(f"only {int(n)} nodes have >= 3 observed anchors; need 3")
        if n < 3 else AmbiguousAlignmentError(_COLLINEAR) if bad else None
        for n, bad in zip(n_usable, collinear)
    ]
    b, a, k = mask.shape
    jj, kk = link_grid(a, k)
    d = np.linalg.norm(transform_points(nodes, rot, trans)[:, kk] - anchor_xyz[jj], axis=-1)
    observed = mask.reshape(b, -1)
    squares = np.where(observed, (d - ranges.reshape(b, -1)) ** 2, 0.0)
    residual_rms = np.sqrt(np.add.reduce(squares, axis=-1) / np.maximum(observed.sum(axis=-1), 1))
    return PoseBatch(
        "gabp", rot, trans, residual_rms, errors,
        per_node_positions=means, node_variances=variances,
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
