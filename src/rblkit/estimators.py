"""Pose estimators: algebraic (MDS), iterative least squares, and Gaussian
belief propagation, plus semantic heading transforms. The pose of a target
relative to an ego body is the anchored case with the ego's body-frame nodes
as the anchors.

All estimators return a PoseEstimate whose rotation satisfies the Pose
invariants; iterative methods report convergence honestly instead of
raising on a missed tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .completion import CompletionBatch, CompletionReport, anchored_embedding, complete_batch
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
    eigh,
    fit_alignment,
    fit_ranges,
    grid_links,
    observed_rms,
    svd,
)
from .measurement import AnchorSet, Edm, MeasurementSet, NoiseModel, assemble_batch

ESTIMATOR_TAGS = ("mds", "nls", "gabp")
NLS_MAX_ITERS = 100


@dataclass(frozen=True)
class PoseEstimate:
    """Estimated pose with solver diagnostics.

    per_node_positions holds the intermediate per-node world estimate for
    two-stage methods; node_variances the per-coordinate belief variances
    when the method produces them (GaBP's soft output). residual_rms is the
    RMS of the scored range residuals (see estimate_pose_mds), in meters.
    """

    pose: Pose
    method_tag: str
    residual_rms: float = float("nan")
    iterations: int = 0
    per_node_positions: np.ndarray | None = None
    node_variances: np.ndarray | None = None
    converged: bool = True
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
            "message": self.message,
        }


@dataclass(frozen=True)
class PoseBatch:
    """One method's pose estimates for a stack of B problems, as arrays.

    errors[i] is the RblError item i raised, or None; a failed item's
    numbers are placeholders. Iterative methods fill iterations, converged
    and messages; two-stage methods per_node_positions,
    and GaBP node_variances; the EDM chain's MDS converged and messages.
    `score` computes residual_rms, which is scored when first read: a sweep
    that never reads it never scores.
    """

    method_tag: str
    rotation: np.ndarray
    translation: np.ndarray
    score: Callable[[], np.ndarray]
    errors: list
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None
    messages: list | None = None
    per_node_positions: np.ndarray | None = None
    node_variances: np.ndarray | None = None

    @cached_property
    def residual_rms(self) -> np.ndarray:
        """Each item's RMS residual (see PoseEstimate), scored on first read."""
        return self.score()

    def estimate(self, i: int) -> PoseEstimate:
        """Item i as the single-problem estimator returns it, or its error raised."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return PoseEstimate(
            pose=Pose(self.rotation[i], self.translation[i]),
            method_tag=self.method_tag,
            residual_rms=self.residual_rms.item(i),  # .item: the Python float, int or bool
            iterations=0 if self.iterations is None else self.iterations.item(i),
            per_node_positions=_item(self.per_node_positions, i),
            node_variances=_item(self.node_variances, i),
            converged=True if self.converged is None else self.converged.item(i),
            message="" if self.messages is None else self.messages[i],
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


def procrustes(source, target, weights=None):
    """Best-fit rigid transforms mapping `source` points onto `target` points.

    Minimizes the weighted sum of squared distances over rotations and
    translations, in closed form (geometry.fit_alignment, kept proper).
    Broadcasts over leading axes: source and target (..., K, 3), weights
    (..., K) or None. Returns (rotations, translations, flags): a flag marks
    a collinear (or smaller) weighted source, whose rotation about the line
    is unobservable.
    """
    q, t, s_c, w = fit_alignment(source, target, weights, proper=True)
    spread = svd(s_c * np.sqrt(w)[..., None], compute_uv=False)
    return q, t, spread[..., 1] <= 1e-12 * np.maximum(spread[..., 0], 1e-300)


def estimate_pose_mds(edm: Edm, anchors: AnchorSet, conf: Conformation) -> PoseEstimate:
    """Pose from a classical MDS embedding of the joint anchor+node EDM.

    The joint point set is recovered from the top-3 eigenpairs of the
    centered Gram matrix, pinned to the world frame by aligning the
    embedded anchors to the true anchor positions (allowing a reflection,
    since the embedding has arbitrary chirality), and the pose is read off
    the aligned node positions with a final Procrustes fit.

    residual_rms is scored over every cross entry the EDM marks known. An
    EDM from complete_edm marks every entry known, so its score includes
    the filled entries; mds_from_ranges scores only the measured links. The
    stacked mds_batch scores residuals only when they are read.
    """
    if not edm.is_complete():
        raise IncompleteEdmError("MDS needs a fully known EDM; run complete_edm first")
    if edm.n_anchors != anchors.num_anchors or edm.n_nodes != conf.num_nodes:
        raise ValueError("EDM block sizes do not match anchors/conformation")
    d, known = edm.squared_distances[None], edm.known_mask[None]
    return mds_batch(d, known, anchors.anchors, conf.nodes).estimate(0)


def mds_batch(d, known, anchor_xyz, nodes, errors=None) -> PoseBatch:
    """estimate_pose_mds of a stack of complete squared EDMs (B, n, n),
    anchors first, scored on the cross entries their masks `known` mark as
    measured; items failed upstream (`errors`) keep their error."""
    a = len(anchor_xyz)
    node_positions, eigvals = anchored_embedding(d, anchor_xyz)
    # procrustes' fit; nodes of a Conformation span a plane (affine_rank), so no flag is needed.
    rot, trans = fit_alignment(nodes, node_positions, None, proper=True)[:2]
    degenerate = eigvals[:, 2] <= 1e-9 * np.maximum(eigvals[:, 0], 1e-300)
    errors = [None] * len(d) if errors is None else list(errors)
    for i, error in enumerate(errors):
        if error is None and degenerate[i]:
            errors[i] = DegenerateEmbeddingError(
                "Gram matrix has fewer than 3 significantly positive eigenvalues:"
                f" {eigvals[i, :4]}"
            )

    def score():
        links = grid_links(anchor_xyz, nodes, np.sqrt(d[:, :a, a:]), known[:, :a, a:])
        return observed_rms(rot, trans, links)

    return PoseBatch("mds", rot, trans, score, errors, per_node_positions=node_positions)


def mds_from_ranges(
    meas: MeasurementSet, anchors: AnchorSet, conf: Conformation
) -> tuple[PoseEstimate, CompletionReport | None]:
    """The EDM pipeline: assemble the joint EDM from the observed ranges,
    complete it when links are missing, and embed it with MDS.

    Returns the MDS estimate and the completion report, which is None when
    nothing was completed. chain_batch with completion=False zero-fills a
    masked EDM instead (the baseline completion is measured against).
    """
    ranges = None if meas.ranges is None else meas.ranges[None]
    chain = chain_batch(anchors.anchors, conf.nodes, ranges, meas.mask[None])
    return chain.mds.estimate(0), chain.report(0)


@dataclass(frozen=True)
class ChainBatch:
    """mds_from_ranges' outcomes for a stack: the MDS estimates and the
    completion of the items that needed one, None when none did
    (`completed_items` holds their indices into the stack)."""

    mds: PoseBatch
    completion: CompletionBatch | None
    completed_items: np.ndarray

    def report(self, i: int) -> CompletionReport | None:
        """Item i's completion report, None when it needed none."""
        pos = np.flatnonzero(self.completed_items == i)
        return self.completion.report(int(pos[0])) if pos.size else None


def chain_batch(anchor_xyz, nodes, ranges, mask, completion: bool = True) -> ChainBatch:
    """mds_from_ranges of stacked (B, A, K) ranges and masks. An MDS
    estimate built on an unconverged completion has not converged either;
    its message names the test the completion missed."""
    d, known = assemble_batch(anchor_xyz, nodes, ranges, mask)
    errors, converged, messages = [None] * len(d), np.ones(len(d), dtype=bool), [""] * len(d)
    completed, batch = np.flatnonzero(~known.all(axis=(-2, -1))), None
    if not completion:
        completed = completed[:0]
        d = np.where(known, d, 0.0)  # the zero fill completion is measured against
    elif completed.size:  # a fully observed stack has nothing to complete
        batch = complete_batch(d[completed], known[completed], len(anchor_xyz))
        d[completed] = batch.completed
        converged[completed] = batch.converged
        for i, error, message in zip(completed, batch.errors, batch.messages):
            errors[i], messages[i] = error, f"completion: {message}" if message else ""
    mds = mds_batch(d, known, anchor_xyz, nodes, errors)
    return ChainBatch(replace(mds, converged=converged, messages=messages), batch, completed)


def nls_weights(sigma) -> np.ndarray:
    """Inverse noise variances 1 / sigma^2, elementwise; weight 1 where a
    noise level is zero or unknown."""
    sigma = np.asarray(sigma, dtype=float)
    return 1.0 / np.where(sigma > 0.0, sigma, 1.0) ** 2


def estimate_pose_nls(
    meas: MeasurementSet,
    anchors: AnchorSet,
    conf: Conformation,
    init: Pose | None = None,
    noise: NoiseModel | None = None,
) -> PoseEstimate:
    """Damped Newton fit of the pose to all observed measurements.

    Residual types are weighted by their inverse noise variances (weight 1
    where the noise level is zero or unknown); angle residuals are wrapped
    before squaring. The default starting point is the MDS estimate on the
    (completed, if necessary) EDM. The solver is geometry.fit_ranges,
    Newton on the range terms, converged once a step accepted on the first
    damping try moves the cost by at most 1e-12 relative; missing that in
    NLS_MAX_ITERS iterations, or an exhausted damping schedule, is reported
    via `converged`/`message`, never silently.
    """
    if meas.ranges is None:
        raise UnderdeterminedError("the least-squares estimator needs range measurements")
    if noise is None:  # weight 1, as nls_weights gives an unknown level: an unweighted fit
        w_range = w_angle = None
    else:
        w_range, w_angle = nls_weights([[noise.range_sigma], [noise.angle_sigma]])
    start = None if init is None else (init.rotation[None], init.translation[None], [None])
    stacks = [None if m is None else m[None] for m in (meas.ranges, meas.aoa)]
    return nls_batch(
        anchors.anchors, conf.nodes, meas.mask[None], *stacks, w_range, w_angle, start
    ).estimate(0)


def nls_batch(anchor_xyz, nodes, mask, ranges, aoa, w_range, w_angle, init=None) -> PoseBatch:
    """estimate_pose_nls of stacked observations: masks and ranges (B, A, K),
    aoa (B, A, K, 2) (None when not measured) and range and angle weights
    (B,), or None for weight 1, fitted in lockstep by geometry.fit_ranges.

    init = (rotations, translations, errors) starts each item, and an item
    whose start failed keeps that error; by default the start is the MDS
    estimate. Each item solves on the full anchor x node link grid with its
    unobserved links weighted zero, and is scored on its observed ranges.
    """
    b = len(mask)
    per_link = 1 if aoa is None else 3  # a range, or a range and two angles
    errors = [
        UnderdeterminedError(f"pose has 6 degrees of freedom; got {n} residuals") if n < 6 else None
        for n in (per_link * m for m in mask.sum(axis=(-2, -1)).tolist())
    ]
    if init is None:
        mds = chain_batch(anchor_xyz, nodes, ranges, mask).mds
        init = (mds.rotation, mds.translation, [e or s for e, s in zip(errors, mds.errors)])
    errors = [s or e for e, s in zip(errors, init[2])]
    rot, trans = np.array(init[0], dtype=float), np.array(init[1], dtype=float)
    iterations, converged = np.zeros(b, dtype=int), np.zeros(b, dtype=bool)
    messages = [""] * b
    items = [i for i, e in enumerate(errors) if e is None]
    if items:
        # Every item fits in the common case; the slice then copies nothing.
        fit = slice(None) if len(items) == b else np.array(items)
        links = grid_links(anchor_xyz, nodes, ranges[fit], mask[fit])
        aoa_f = None if aoa is None else np.where(mask[..., None], aoa, 0.0).reshape(b, -1, 2)[fit]
        w_range, w_angle = (None if w is None else w[fit] for w in (w_range, w_angle))
        r_fit, t_fit, iterations[fit], converged[fit], fit_messages = fit_ranges(
            links, rot[fit], trans[fit], NLS_MAX_ITERS, w_range, aoa_f, w_angle
        )
        rot[fit], trans[fit] = r_fit, t_fit
        for i, message in zip(items, fit_messages):
            messages[i] = message

    def score():  # NaN for the items that failed before the fit
        residual_rms = np.full(b, np.nan)
        if items:
            residual_rms[fit] = observed_rms(r_fit, t_fit, links)
        return residual_rms

    return PoseBatch("nls", rot, trans, score, errors, iterations, converged, messages)


_GABP_PRIOR_PRECISION = 1e-12
_GABP_PRIOR = _GABP_PRIOR_PRECISION * np.eye(3)


def _gabp_node_beliefs(anchor_xyz, ranges, mask, sigma):
    """Stage 1 of the message-passing estimator: per-node Gaussian beliefs.

    Each node's reference-differenced squared-range equations (against its
    first observed anchor), weighted by their inverse linearized noise
    variances, plus a vanishingly weak zero-mean prior, define a Gaussian
    over its 3 coordinates with information matrix J and vector h. Gaussian
    belief propagation converges to the means J^-1 h (Weiss & Freeman
    2001); they are solved for directly, all nodes as one (..., K, 3, 3)
    stack, with the marginal variances diag(J^-1) of a model that treats the
    differenced rows as independent: they share the reference's noise, so
    these are not the nodes' error variances (ROADMAP item 10). Ranges and masks
    are (..., A, K), sigma broadcasts over the leading axes. Returns means,
    variances (NaN for nodes with fewer than 3 observed anchors) and the
    usable mask.
    """
    usable = mask.sum(axis=-2) >= 3
    obs = mask.swapaxes(-1, -2)
    r = np.where(obs, ranges.swapaxes(-1, -2), 0.0)
    ref = obs.argmax(axis=-1)
    ref_r = np.take_along_axis(r, ref[..., None], axis=-1)
    # Differenced, the equations are exactly linear in the position: rows @ x = rhs.
    # The reference's own row is identically zero; unobserved rows get weight 0.
    rows = 2.0 * (anchor_xyz - anchor_xyz[ref][..., None, :])
    r2, ref_r2, a2 = r**2, ref_r**2, (anchor_xyz**2).sum(axis=-1)  # a2[ref]: ref_a**2 summed
    rhs = (ref_r2 - r2) + a2 - a2[ref][..., None]
    sigma = np.asarray(sigma, dtype=float)[..., None, None]
    spread = np.maximum(4.0 * sigma**2 * (r2 + ref_r2), 1e-12)
    weight = obs / np.where(sigma > 0.0, spread, 1.0)
    weighted = rows * weight[..., None]
    info = _GABP_PRIOR + weighted.mT @ rows
    # The prior bounds every eigenvalue of J below; clipping there only
    # undoes rounding on nodes whose equations leave a direction unobserved.
    lam, basis = eigh(info)
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
    Gaussian belief propagation; stage 2 fits the pose by Procrustes over
    the belief means, weighted by the belief precisions so poorly observed
    nodes contribute little. node_variances, the soft-decision output, are
    the beliefs' marginal variances, not the nodes' error variances (see
    _gabp_node_beliefs). A direct solve has nothing to converge, so
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
    rot, trans, collinear = procrustes(nodes, np.where(usable[..., None], means, 0.0), weights)
    errors = [
        UnderdeterminedError(f"only {int(n)} nodes have >= 3 observed anchors; need 3")
        if n < 3 else AmbiguousAlignmentError("source points are collinear; rotation ambiguous")
        if bad else None
        for n, bad in zip(n_usable, collinear)
    ]

    def score():
        return observed_rms(rot, trans, grid_links(anchor_xyz, nodes, ranges, mask))

    return PoseBatch(
        "gabp", rot, trans, score, errors, per_node_positions=means, node_variances=variances
    )


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
