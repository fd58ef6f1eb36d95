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

from .errors import CompletionInfeasibleError
from .geometry import by_value, eigh, fit_alignment, fit_ranges, grid_links, svd, transform_points
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


def embed_from_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (..., n, 3) from the top three eigenpairs of centered Gram matrices.

    Returns (points, eigenvalues) with eigenvalues sorted descending.
    Eigenvalues at most 1e-9 of the largest count as zero before taking
    square roots, so a planar point set gets an exactly zero third coordinate.
    """
    eigval, eigvec = eigh(gram)
    eigval = eigval[..., ::-1]  # eigh sorts ascending
    top = eigval[..., :3]
    top = np.where(top > 1e-9 * np.maximum(top[..., :1], 0.0), top, 0.0)
    # Each item column-major (a contiguous copy of eigvec.mT's top rows,
    # transposed back): BLAS products of other layouts can round differently.
    columns = np.ascontiguousarray(eigvec.mT[..., :-4:-1, :])
    points = (columns * np.sqrt(top)[..., :, None]).mT
    return points, eigval


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
    to both blocks, starts geometry.fit_ranges' Newton steps on the
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
    failed item's numbers are placeholders) and the fit's message, which
    names the test an unconverged fit missed."""

    completed: np.ndarray
    iterations: np.ndarray
    final_mismatch: np.ndarray
    converged: np.ndarray
    errors: list
    n_anchors: int
    messages: list

    def report(self, i: int) -> CompletionReport:
        """Item i as complete_edm reports it, or its error raised."""
        if self.errors[i] is not None:
            raise self.errors[i]
        completed = self.completed[i]
        edm = Edm(completed, np.ones(completed.shape, dtype=bool), self.n_anchors)
        return CompletionReport(
            edm, int(self.iterations[i]), float(self.final_mismatch[i]), bool(self.converged[i])
        )


def anchored_embedding(d, anchor_xyz):
    """The classical MDS of squared EDMs (B, n, n), anchors first, mapped
    into the frame of the anchors (A, 3) by aligning their embedded copies
    to them, reflections allowed (an embedding's chirality is arbitrary).
    Returns the mapped node points (B, n - A, 3) and the eigenvalues."""
    a = len(anchor_xyz)
    points, eigvals = embed_from_gram(centered_gram(d))
    q, shift = fit_alignment(points[:, :a], anchor_xyz, None, proper=False)[:2]
    return points[:, a:] @ q.mT + shift[:, None, :], eigvals


@by_value
def block_embedding(block) -> np.ndarray:
    """Classical MDS points of a scenario's anchor or node block (n, n), memoized by value."""
    return embed_from_gram(centered_gram(block))[0]


def complete_batch(d, known, n_anchors: int, max_iters: int = 500) -> CompletionBatch:
    """complete_edm of a stack of incomplete EDMs: squared distances
    (B, n, n), NaN where unknown, their known masks, and n_anchors anchors
    first in each.

    The items share their anchor block and their node block (one scenario
    stacked, as chain_batch's and complete_edm's calls are), so both embed
    once, from the first item. Every item fits on the full anchor x node
    link grid, its unknown entries weighted zero, so its numbers never
    depend on the rest of the stack.
    """
    a, b = n_anchors, len(d)
    k = d.shape[-1] - a
    cross_known = known[:, :a, a:]
    orphaned = ~cross_known.any(axis=1)
    errors = [CompletionInfeasibleError(np.flatnonzero(o)) if o.any() else None for o in orphaned]
    observed = cross_known.reshape(b, a * k)

    anchors, nodes = block_embedding(d[0, :a, :a]), block_embedding(d[0, a:, a:])
    ah = np.concatenate([anchors, np.ones((a, 1))], axis=-1)
    bh = np.concatenate([nodes, np.ones((k, 1))], axis=-1)
    norms = (anchors * anchors).sum(axis=-1)[:, None] + (nodes * nodes).sum(axis=-1)
    # |a - (Q b + t)|^2 - |a|^2 - |b|^2 = [a 1] M [b 1]^T, M = [[-2Q, -2t], [2 t^T Q, |t|^2]];
    # unknown entries are zero rows of the least-squares problem.
    lifted = (ah[:, None, :, None] * bh[None, :, None, :]).reshape(a * k, 16)
    lifted = np.where(observed[..., None], lifted, 0.0)
    rhs = np.where(observed, (d[:, :a, a:] - norms).reshape(b, a * k), 0.0)
    # np.linalg.pinv(lifted, rcond) @ rhs, its formula: 1 / s above rcond * max(s), else 0,
    # then vt^T (s u^T), with np.linalg.lstsq's default cutoff for rcond.
    u, s, vt = svd(lifted)
    large = s > np.finfo(float).eps * max(a * k, 16) * s.max(axis=-1, keepdims=True)
    s = np.divide(1.0, s, where=large, out=s)
    s[~large] = 0.0
    m = ((vt.mT @ (s[..., None] * u.mT)) @ rhs[..., None]).reshape(b, 4, 4)
    fill = np.where(cross_known, d[:, :a, a:], norms + ah @ m @ bh.T)
    top = np.concatenate([d[:, :a, :a], fill], axis=-1)
    joint = np.concatenate([top, np.concatenate([fill.mT, d[:, a:, a:]], axis=-1)], axis=-2)
    aligned, _ = anchored_embedding(joint, anchors)
    # q is a reflection when the node embedding has the other chirality; the fit keeps it one.
    q, trans = fit_alignment(nodes, aligned, None, proper=False)[:2]

    links = grid_links(anchors, nodes, np.sqrt(d[:, :a, a:]), cross_known)
    rot, trans, iterations, converged, messages = fit_ranges(
        links, q, trans, max_iters, None, None, None
    )
    fitted = transform_points(nodes, rot, trans)
    fit = edm_from_points(np.concatenate([np.broadcast_to(anchors, (b, a, 3)), fitted], axis=-2))
    mismatch = np.where(known, np.abs(fit - d), 0.0).max(axis=(-2, -1))
    d = np.where(known, d, fit)
    return CompletionBatch(d, iterations, mismatch, converged, errors, a, messages)
