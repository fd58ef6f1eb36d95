"""Completion of partially observed squared-distance matrices.

Only anchor-node cross entries can be missing: the anchor-anchor and
node-node blocks are always fully known, so each embeds exactly by classical
MDS, and every missing entry is a function of the one rigid transform
between the two embeddings. complete_edm fits that transform to the observed
cross distances (started from the MDS of a linear least-squares fill) and
fills the missing entries from the fitted configuration.

Observed entries are never modified: denoising of measured data is the
estimators' job, not the completion's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletionInfeasibleError, IncompleteEdmError
from .geometry import (
    fit_alignment,
    link_grid,
    pose_gauss_newton,
    range_links,
    range_residuals,
    transform_points,
)
from .measurement import Edm


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of complete_edm.

    iterations counts the iterations of the rigid fit; final_mismatch is
    the fitted configuration's largest absolute misfit on a known entry
    (m^2).
    """

    completed: Edm
    iterations: int
    final_mismatch: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "completed": self.completed.to_json_dict(),
            "iterations": self.iterations,
            "final_mismatch": self.final_mismatch,
            "converged": self.converged,
        }


def centered_gram(squared_distances: np.ndarray) -> np.ndarray:
    """Double-center squared EDMs (..., n, n): G = -0.5 J D J with J = I - (1/n) 1 1^T."""
    d = np.asarray(squared_distances, dtype=float)
    n = d.shape[-1]
    j = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * (j @ d @ j)


def gram_from_edm(edm: Edm) -> np.ndarray:
    """Centered Gram matrix of a fully known EDM."""
    if not edm.is_complete():
        missing = int((~edm.known_mask).sum())
        raise IncompleteEdmError(f"EDM has {missing} unknown entries; complete it first")
    return centered_gram(edm.squared_distances)


def embed_from_gram(gram: np.ndarray, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (..., n, dim) from the top eigenpairs of centered Gram matrices.

    Returns (points, eigenvalues) with eigenvalues sorted descending.
    Eigenvalues at most 1e-9 of the largest count as zero before taking
    square roots, so a planar point set gets an exactly zero third coordinate.
    """
    eigval, eigvec = np.linalg.eigh(gram)
    descending = np.argsort(eigval, axis=-1)[..., ::-1]
    order = descending[..., :dim]
    top = np.take_along_axis(eigval, order, axis=-1)
    top = np.where(top > 1e-9 * np.maximum(top[..., :1], 0.0), top, 0.0)
    # Each item column-major, the layout eigvec[:, order] has: BLAS products
    # of other layouts can round differently.
    columns = np.take_along_axis(eigvec.mT, order[..., :, None], axis=-2)
    points = (columns * np.sqrt(top)[..., :, None]).mT
    return points, np.take_along_axis(eigval, descending, axis=-1)


def edm_from_points(points: np.ndarray) -> np.ndarray:
    diff = points[..., :, None, :] - points[..., None, :, :]
    d = np.einsum("...ijk,...ijk->...ij", diff, diff)
    n = d.shape[-1]
    d[..., np.arange(n), np.arange(n)] = 0.0
    return d


def zero_imputed(edm: Edm) -> Edm:
    """Fill unknown entries with zeros and mark them known.

    This is the failure mode completion exists to avoid (a zero distance
    claims the two points coincide); provided as the comparison baseline.
    """
    d = np.where(edm.known_mask, edm.squared_distances, 0.0)
    return Edm(d, np.ones_like(edm.known_mask), edm.n_anchors)


def complete_edm(edm: Edm, max_iters: int = 500) -> CompletionReport:
    """Fill unknown entries from the rigid fit of the node block's
    embedding to the anchor block's.

    Both diagonal blocks embed exactly by classical MDS (a planar block with
    a zero third coordinate). The linear least-squares fit of the observed
    squared cross distances fills the others; the MDS of that EDM, aligned
    to both blocks, starts geometry.pose_gauss_newton's Newton steps on the
    observed distances until a step accepted on the first damping try moves
    the cost by at most 1e-12 relative (`converged`), or for `max_iters`.
    Known entries of the output are identical to the input.

    Raises CompletionInfeasibleError when some node has no known cross
    entry at all, listing the node indices.
    """
    if edm.is_complete():
        return CompletionReport(edm, 0, 0.0, True)
    d, known = edm.squared_distances[None], edm.known_mask[None]
    report = complete_batch(d, known, edm.n_anchors, max_iters).report(0)
    # Exact reimposition, bit for bit.
    known = edm.known_mask
    assert np.array_equal(report.completed.squared_distances[known], edm.squared_distances[known])
    return report


@dataclass(frozen=True)
class CompletionBatch:
    """complete_edm's outcomes for a stack of EDMs, as arrays: the completed
    squared distances (B, n, n), iterations, final mismatches, converged
    flags, and per item the CompletionInfeasibleError it raised or None (a
    failed item's numbers are placeholders)."""

    completed: np.ndarray
    iterations: np.ndarray
    final_mismatch: np.ndarray
    converged: np.ndarray
    errors: list
    n_anchors: int

    def report(self, i: int) -> CompletionReport:
        """Item i as complete_edm reports it, or its error raised."""
        if self.errors[i] is not None:
            raise self.errors[i]
        completed = self.completed[i]
        edm = Edm(completed, np.ones(completed.shape, dtype=bool), self.n_anchors)
        return CompletionReport(
            edm, int(self.iterations[i]), float(self.final_mismatch[i]), bool(self.converged[i])
        )


def complete_batch(d, known, n_anchors: int, max_iters: int = 500) -> CompletionBatch:
    """complete_edm of a stack of incomplete EDMs: squared distances
    (B, n, n), NaN where unknown, their known masks, and n_anchors anchors
    first in each.

    Every item fits on the full anchor x node link grid, its unknown entries
    weighted zero, so its numbers never depend on the rest of the stack.
    """
    a, b = n_anchors, len(d)
    k = d.shape[-1] - a
    cross_known = known[:, :a, a:]
    orphaned = ~cross_known.any(axis=1)
    errors = [CompletionInfeasibleError(np.flatnonzero(o)) if o.any() else None for o in orphaned]
    observed = cross_known.reshape(b, a * k)

    anchors, _ = embed_from_gram(centered_gram(d[:, :a, :a]))
    nodes, _ = embed_from_gram(centered_gram(d[:, a:, a:]))
    ah = np.concatenate([anchors, np.ones((b, a, 1))], axis=-1)
    bh = np.concatenate([nodes, np.ones((b, k, 1))], axis=-1)
    norms = (anchors * anchors).sum(axis=-1)[:, :, None] + (nodes * nodes).sum(axis=-1)[:, None, :]
    # |a - (Q b + t)|^2 - |a|^2 - |b|^2 = [a 1] M [b 1]^T, M = [[-2Q, -2t], [2 t^T Q, |t|^2]];
    # unknown entries are zero rows of the least-squares problem.
    lifted = (ah[:, :, None, :, None] * bh[:, None, :, None, :]).reshape(b, a * k, 16)
    lifted = np.where(observed[..., None], lifted, 0.0)
    rhs = np.where(observed, (d[:, :a, a:] - norms).reshape(b, a * k), 0.0)
    rcond = np.finfo(float).eps * max(a * k, 16)  # np.linalg.lstsq's default cutoff
    m = (np.linalg.pinv(lifted, rcond=rcond) @ rhs[..., None]).reshape(b, 4, 4)
    fill = np.where(cross_known, d[:, :a, a:], norms + ah @ m @ bh.mT)
    top = np.concatenate([d[:, :a, :a], fill], axis=-1)
    joint = np.concatenate([top, np.concatenate([fill.mT, d[:, a:, a:]], axis=-1)], axis=-2)
    points, _ = embed_from_gram(centered_gram(joint))
    q, shift, _, _, _ = fit_alignment(points[:, :a], anchors, None, proper=False)
    # q is a reflection when the node embedding has the other chirality; the fit keeps it one.
    aligned = points[:, a:] @ q.mT + shift[:, None, :]
    q, trans, _, _, _ = fit_alignment(nodes, aligned, None, proper=False)

    jj, kk = link_grid(a, k)
    ranges = np.sqrt(d[:, :a, a:]).reshape(b, a * k)
    links = range_links(nodes, kk, anchors[:, jj], ranges, observed)

    def residuals(r, t, nodes, nodes_k, anchor_xyz, ranges, weight, levers, jacobian):
        grid = (nodes, kk, nodes_k, anchor_xyz, ranges, weight, levers)
        return range_residuals(r, t, grid, jacobian)[:3]

    rot, trans, iterations, converged, _ = pose_gauss_newton(
        residuals, q, trans, max_iters, args=links[:1] + links[2:]
    )
    fit = edm_from_points(np.concatenate([anchors, transform_points(nodes, rot, trans)], axis=-2))
    mismatch = np.where(known, np.abs(fit - d), 0.0).max(axis=(-2, -1))
    return CompletionBatch(np.where(known, d, fit), iterations, mismatch, converged, errors, a)
