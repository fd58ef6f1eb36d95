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
from .geometry import fit_alignment, pose_gauss_newton, range_links, range_residuals
from .measurement import Edm


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of complete_edm.

    iterations counts the iterations of the rigid fit; final_mismatch is
    the fitted configuration's largest absolute misfit on a known entry
    (m^2); change_history records the per-iteration maximum change on
    unknown entries.
    """

    completed: Edm
    iterations: int
    final_mismatch: float
    converged: bool
    change_history: tuple[float, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "completed": self.completed.to_json_dict(),
            "iterations": self.iterations,
            "final_mismatch": self.final_mismatch,
            "converged": self.converged,
        }


def centered_gram(squared_distances: np.ndarray) -> np.ndarray:
    """Double-center a squared EDM: G = -0.5 J D J with J = I - (1/n) 1 1^T."""
    d = np.asarray(squared_distances, dtype=float)
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * (j @ d @ j)


def gram_from_edm(edm: Edm) -> np.ndarray:
    """Centered Gram matrix of a fully known EDM."""
    if not edm.is_complete():
        missing = int((~edm.known_mask).sum())
        raise IncompleteEdmError(f"EDM has {missing} unknown entries; complete it first")
    return centered_gram(edm.squared_distances)


def embed_from_gram(gram: np.ndarray, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (n, dim) from the top eigenpairs of a centered Gram matrix.

    Returns (points, eigenvalues) with eigenvalues sorted descending.
    Eigenvalues at most 1e-9 of the largest count as zero before taking
    square roots, so a planar point set gets an exactly zero third coordinate.
    """
    eigval, eigvec = np.linalg.eigh(gram)
    order = np.argsort(eigval)[::-1][:dim]
    top = eigval[order]
    top = np.where(top > 1e-9 * max(top[0], 0.0), top, 0.0)
    points = eigvec[:, order] * np.sqrt(top)
    return points, eigval[np.argsort(eigval)[::-1]]


def edm_from_points(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    d = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d, 0.0)
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
    a, d, known = edm.n_anchors, edm.squared_distances, edm.known_mask
    cross_known = known[:a, a:]
    orphaned = np.flatnonzero(~cross_known.any(axis=0))
    if orphaned.size:
        raise CompletionInfeasibleError(orphaned)

    anchors, _ = embed_from_gram(centered_gram(d[:a, :a]))
    nodes, _ = embed_from_gram(centered_gram(d[a:, a:]))
    ah, bh = np.column_stack([anchors, np.ones(a)]), np.column_stack([nodes, np.ones(len(nodes))])
    norms = (anchors * anchors).sum(axis=1)[:, None] + (nodes * nodes).sum(axis=1)
    # |a - (Q b + t)|^2 - |a|^2 - |b|^2 = [a 1] M [b 1]^T, M = [[-2Q, -2t], [2 t^T Q, |t|^2]].
    lifted = (ah[:, None, :, None] * bh[None, :, None, :])[cross_known].reshape(-1, 16)
    m = np.linalg.lstsq(lifted, (d[:a, a:] - norms)[cross_known], rcond=None)[0].reshape(4, 4)
    fill = np.where(cross_known, d[:a, a:], norms + ah @ m @ bh.T)
    points, _ = embed_from_gram(centered_gram(np.block([[d[:a, :a], fill], [fill.T, d[a:, a:]]])))
    q, shift, _, _, _ = fit_alignment(points[:a], anchors, None, proper=False)
    # q is a reflection when the node embedding has the other chirality; the fit keeps it one.
    q, trans, _, _, _ = fit_alignment(nodes, points[a:] @ q.T + shift, None, proper=False)

    (jj, kk), (mj, mk) = np.nonzero(cross_known), np.nonzero(~cross_known)
    links = range_links(nodes, kk, anchors[jj], np.sqrt(d[:a, a:][cross_known]))
    missing = (nodes, mk, None, anchors[mj], None, None)
    fills = []  # the unknown entries at each iteration's starting pose, then at the fit

    def residuals(r, t, jacobian):
        if jacobian:
            fills.append(range_residuals(r, t, missing, False)[4] ** 2)
        return range_residuals(r, t, links, jacobian)[:3]

    rot, trans, iterations, converged, _ = pose_gauss_newton(residuals, q, trans, max_iters)
    fills.append(range_residuals(rot, trans, missing, False)[4] ** 2)
    history = tuple(float(np.abs(new - old).max()) for old, new in zip(fills, fills[1:]))
    fit = edm_from_points(np.vstack([anchors, nodes @ rot.T + trans]))
    mismatch = float(np.abs(fit[known] - d[known]).max())
    completed = Edm(np.where(known, d, fit), np.ones_like(known), a)
    # Exact reimposition, bit for bit.
    assert np.array_equal(completed.squared_distances[known], edm.squared_distances[known])
    return CompletionReport(completed, iterations, mismatch, converged, history)
