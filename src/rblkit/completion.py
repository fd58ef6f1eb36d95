"""Low-rank completion of partially observed squared-distance matrices.

Missing cross entries are reconstructed by alternating projections: fill
unknowns, double-center to a Gram matrix, truncate to the top nonnegative
eigenvalues (rank 3 for bodies in 3D space), map back to an EDM, and
reimpose the known entries exactly. The start point is a shortest-path
(Floyd-Warshall) fill over the known distances, which is always metrically
plausible.

Observed entries are never modified: denoising of measured data is the
estimators' job, not the completion's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletionInfeasibleError, IncompleteEdmError
from .measurement import Edm


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of complete_edm.

    final_mismatch is the largest absolute change the last rank projection
    applied to a known entry (m^2): how far the observed data sit from the
    rank-constrained set. change_history records the per-iteration maximum
    change on unknown entries.
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

    Returns (points, eigenvalues) with eigenvalues sorted descending; negative
    eigenvalues are clamped to zero before taking square roots.
    """
    eigval, eigvec = np.linalg.eigh(gram)
    order = np.argsort(eigval)[::-1][:dim]
    top = np.clip(eigval[order], 0.0, None)
    points = eigvec[:, order] * np.sqrt(top)
    return points, eigval[np.argsort(eigval)[::-1]]


def edm_from_points(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    d = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d, 0.0)
    return d


def _shortest_path_fill(edm: Edm) -> np.ndarray:
    """Initial guess: squared Floyd-Warshall shortest-path distances."""
    dist = np.sqrt(np.where(edm.known_mask, edm.squared_distances, np.inf))
    np.fill_diagonal(dist, 0.0)
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist**2


def zero_imputed(edm: Edm) -> Edm:
    """Fill unknown entries with zeros and mark them known.

    This is the failure mode completion exists to avoid (a zero distance
    claims the two points coincide); provided as the comparison baseline.
    """
    d = np.where(edm.known_mask, edm.squared_distances, 0.0)
    return Edm(d, np.ones_like(edm.known_mask), edm.n_anchors)


def complete_edm(edm: Edm, rank: int = 3, max_iters: int = 500, tol: float = 1e-10) -> CompletionReport:
    """Reconstruct unknown entries by alternating rank projection.

    Stops when the largest change on unknown entries falls below `tol`
    (m^2) or after `max_iters` iterations; `converged` reports which.
    Known entries of the output are identical to the input.

    Raises CompletionInfeasibleError when some node has no known cross
    entry at all, listing the node indices.
    """
    if edm.is_complete():
        return CompletionReport(edm, 0, 0.0, True)
    a = edm.n_anchors
    cross_known = edm.known_mask[:a, a:]
    orphaned = np.flatnonzero(~cross_known.any(axis=0))
    if orphaned.size:
        raise CompletionInfeasibleError(orphaned)

    known = edm.known_mask
    unknown = ~known
    d_known = np.where(known, edm.squared_distances, 0.0)
    sp_fill = _shortest_path_fill(edm)
    current = sp_fill.copy()
    current[known] = d_known[known]
    # Shortest-path distances upper-bound the metric completion; capping the
    # iterate there (with slack for noise) stops the rare runaway where the
    # rank projection amplifies inconsistent noisy entries.
    cap = 1.5 * sp_fill

    # Loop invariants: centered_gram's centering matrix, and the flat indices
    # (in boolean-mask order) and values of the known entries.
    center = np.eye(edm.size) - 1.0 / edm.size
    known_idx, unknown_idx = np.flatnonzero(known), np.flatnonzero(unknown)
    known_vals = d_known.ravel()[known_idx]
    fill = current.ravel()[unknown_idx]

    history: list[float] = []
    mismatch = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        points, _ = embed_from_gram(-0.5 * (center @ current @ center), dim=rank)
        current = np.minimum(edm_from_points(points), cap)
        flat = current.ravel()
        mismatch = float(np.abs(flat[known_idx] - known_vals).max())
        new_fill = flat[unknown_idx]
        change = float(np.abs(new_fill - fill).max())
        history.append(change)
        flat[known_idx] = known_vals
        fill = new_fill
        if change < tol:
            converged = True
            break

    completed = Edm(np.maximum(current, 0.0), np.ones_like(known), a)
    # Exact reimposition, bit for bit (maximum() cannot have touched known
    # entries, which are nonnegative by construction).
    assert np.array_equal(completed.squared_distances[known], edm.squared_distances[known])
    return CompletionReport(completed, iterations, mismatch, converged, tuple(history))
