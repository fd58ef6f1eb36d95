"""Rigid body shapes, poses, twists, and the kinematics connecting them.

World node positions follow the affine model s_k = R c_k + t, and node
velocities follow sdot_k = [w]x R c_k + tdot for a body with angular
velocity w and translational velocity tdot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateConformationError,
    DegenerateProjectionError,
    InvalidIntervalError,
    InvalidPoseError,
    MissingTwistError,
)

ORTHONORMALITY_TOL = 1e-9
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def readonly(a: np.ndarray) -> np.ndarray:
    """A write-protected copy of `a`, with its dtype kept."""
    out = np.array(a)
    out.setflags(write=False)
    return out


_SKEW = -np.cross(np.eye(3)[:, None], np.eye(3)).reshape(3, 9)  # v @ _SKEW is [v]x, flattened


def so3_exp(axis_angle) -> np.ndarray:
    """Rodrigues map from axis-angle vectors (..., 3) to rotation matrices (..., 3, 3).

    The zero vector maps to the identity. Small angles use the series
    expansions of sin(t)/t and (1-cos(t))/t^2 to avoid cancellation.
    """
    v = np.asarray(axis_angle, dtype=float)
    theta = np.sqrt(np.vecdot(v, v))[..., None, None]  # what np.linalg.norm computes
    k = (v @ _SKEW).reshape(v.shape + (3,))  # [v]x: each entry is one signed component of v
    small = theta < 1e-6
    if np.logical_or.reduce(small, axis=None):
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(safe) / safe)
        b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    else:
        a, b = np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta**2
    return _EYE3 + a * k + b * (k @ k)


# Shepperd's candidates per pivot: q[i] = values[..., _QUAT_PICK[pivot, i]] for the values
# (s / 4, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s, (m01 + m10) / s,
# (m02 + m20) / s, (m12 + m21) / s).
_QUAT_PICK = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


def _quat_from_matrix(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest of the four candidate pivots, per matrix of a stack.
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = np.moveaxis(r.reshape(r.shape[:-2] + (9,)), -1, 0)
    t = np.trace(r, axis1=-2, axis2=-1)
    pivot = np.where(
        (t > m00) & (t > m11) & (t > m22), 0,
        np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)),
    )
    candidates = np.stack(
        [t + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11], axis=-1
    )
    s = np.sqrt(np.take_along_axis(candidates, pivot[..., None], axis=-1)[..., 0]) * 2.0
    values = np.stack(
        [0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s,
         (m01 + m10) / s, (m02 + m20) / s, (m12 + m21) / s],
        axis=-1,
    )
    q = np.take_along_axis(values, _QUAT_PICK[pivot], axis=-1)
    q = np.where(q[..., :1] < 0.0, -q, q)
    return q / np.sqrt(np.vecdot(q, q))[..., None]


def matrix_from_quat(q) -> np.ndarray:
    """Rotation matrices, (3, 3) or (B, 3, 3), from unit quaternions (w, x, y, z),
    (4,) or (B, 4)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    columns = [
        [1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)],
        [2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)],
        [2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.ascontiguousarray(np.array(columns).T)


def so3_log(rotation) -> np.ndarray:
    """Axis-angle vector of a rotation, with angle in [0, pi].

    Goes through the quaternion form, which stays accurate for angles
    near both 0 and pi.
    """
    q = _quat_from_matrix(np.asarray(rotation, dtype=float))
    vec = q[1:]
    n = float(np.linalg.norm(vec))
    angle = 2.0 * np.arctan2(n, q[0])
    if n < 1e-15:
        return np.zeros(3)
    return vec * (angle / n)


def so3_project(m) -> np.ndarray:
    """Nearest rotation (Frobenius sense) to an arbitrary full-rank 3x3 matrix.

    The sign correction flips the direction of the smallest singular value
    when the orthogonal factor would have determinant -1.
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {a.shape}")
    projected, error = project_batch(a[None])
    if error[0] is not None:
        raise error[0]
    return projected[0]


def project_batch(m) -> tuple[np.ndarray, list]:
    """so3_project of each matrix of a (B, 3, 3) stack: the rotations and,
    per item, the DegenerateProjectionError of a rank-deficient one or None."""
    u, s, vt = np.linalg.svd(m)
    degenerate = s[:, 2] <= 1e-13 * np.maximum(s[:, 0], 1e-300)
    flip = np.ones_like(s)
    flip[:, 2] = np.sign(np.linalg.det(u @ vt))
    errors = [None] * len(m)
    for i in np.flatnonzero(degenerate):
        errors[i] = DegenerateProjectionError(
            f"matrix is rank deficient (singular values {s[i]}); nearest rotation not unique"
        )
    return u @ diag_stack(flip) @ vt, errors


def diag_stack(values) -> np.ndarray:
    """Diagonal matrices (..., n, n) with the entries (..., n) on the diagonal."""
    n = values.shape[-1]
    out = np.zeros(values.shape + (n,))
    out[..., np.arange(n), np.arange(n)] = values
    return out


def rotation_error_deg(a, b):
    """Geodesic angle between two rotations, in degrees; between each pair
    of two (..., 3, 3) stacks.

    Mathematically arccos((trace(a b^T) - 1) / 2) with the argument clamped
    to [-1, 1]; evaluated through the quaternion of the relative rotation,
    which keeps full precision near 0 and 180 degrees where the arccosine
    form bottoms out around 1e-6 degrees.
    """
    q = _quat_from_matrix(np.asarray(a, dtype=float) @ np.asarray(b, dtype=float).mT)
    vec = q[..., 1:]
    return np.degrees(2.0 * np.arctan2(np.sqrt(np.vecdot(vec, vec)), np.abs(q[..., 0])))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) (normalized Gaussian quaternion)."""
    return haar_rotations(rng.standard_normal(4))


def haar_rotations(gaussians) -> np.ndarray:
    """Rotations (..., 3, 3) from standard Gaussian quaternions (..., 4):
    normalized, they are uniform on SO(3)."""
    q = np.asarray(gaussians, dtype=float)
    return matrix_from_quat(q / np.sqrt(np.vecdot(q, q))[..., None])


def pairwise_distances(points) -> np.ndarray:
    """Symmetric matrix of Euclidean distances between rows of `points`."""
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    return np.linalg.norm(diff, axis=-1)


@dataclass(frozen=True)
class Conformation:
    """Body-frame node coordinates of a rigid body, one row per node (m).

    Requires at least three pairwise-distinct, non-collinear nodes. Planar
    bodies (rank-2 node sets) are accepted and flagged via `is_planar`.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError(f"nodes must be (K, 3), got {nodes.shape}")
        if nodes.shape[0] < 3:
            raise DegenerateConformationError("a rigid body needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("node coordinates must be finite")
        d = pairwise_distances(nodes)
        if np.any(d[np.triu_indices_from(d, k=1)] <= 0.0):
            raise DegenerateConformationError("nodes must be pairwise distinct")
        centered = nodes - nodes.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        rank = int(np.sum(s > 1e-9 * max(s[0], 1e-300)))
        if rank < 2:
            raise DegenerateConformationError("nodes are collinear")
        object.__setattr__(self, "nodes", readonly(nodes))
        object.__setattr__(self, "_planar", rank == 2)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def is_planar(self) -> bool:
        """True when the node set spans only two dimensions."""
        return self._planar

    def centroid(self) -> np.ndarray:
        return self.nodes.mean(axis=0)

    def centered(self) -> "Conformation":
        """Copy with the centroid moved to the body-frame origin."""
        return Conformation(self.nodes - self.centroid())

    @classmethod
    def from_file(cls, path) -> "Conformation":
        return cls(load_points(path))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation (m)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3):
            raise InvalidPoseError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise InvalidPoseError(f"translation must be length 3, got {t.shape}")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise InvalidPoseError("pose entries must be finite")
        err = np.abs(r.T @ r - _EYE3).max()
        if err > ORTHONORMALITY_TOL:
            raise InvalidPoseError(f"rotation is not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(r)
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise InvalidPoseError(f"rotation determinant is {det:.12f}, expected +1")
        object.__setattr__(self, "rotation", readonly(r))
        object.__setattr__(self, "translation", readonly(t))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def axis_angle(self) -> np.ndarray:
        return so3_log(self.rotation)


@dataclass(frozen=True)
class Twist:
    """Angular velocity (rad/s) and translational velocity (m/s)."""

    angular: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.angular, dtype=float)
        v = np.asarray(self.linear, dtype=float)
        if w.shape != (3,) or v.shape != (3,):
            raise ValueError("angular and linear velocities must be length-3 vectors")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise ValueError("twist components must be finite")
        object.__setattr__(self, "angular", readonly(w))
        object.__setattr__(self, "linear", readonly(v))

    @classmethod
    def zero(cls) -> "Twist":
        return cls(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class RigidBodyState:
    """A body's shape, its pose, and optionally its twist."""

    conformation: Conformation
    pose: Pose
    twist: Twist | None = None

    def world_nodes(self) -> np.ndarray:
        return apply_pose(self.conformation, self.pose)


def apply_pose(conf: Conformation, pose: Pose) -> np.ndarray:
    """World node positions R c_k + t, one row per node (K, 3)."""
    return transform_points(conf.nodes, pose.rotation, pose.translation)


def transform_points(points, rot, trans) -> np.ndarray:
    """points R^T + t: points (..., K, 3) under rotations (..., 3, 3) and translations (..., 3)."""
    return points @ rot.mT + trans[..., None, :]


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross_rows(a, b, tail) -> np.ndarray:
    # (..., M, 6) rows [a_k x b_k, tail_k], the same products and differences np.cross forms.
    a_next, a_prev = a.take(_NEXT, axis=-1), a.take(_PREV, axis=-1)
    cross = a_next * b.take(_PREV, axis=-1) - a_prev * b.take(_NEXT, axis=-1)
    return np.concatenate([cross, tail], axis=-1)


def pose_jacobian_rows(nodes, grads, rotation) -> np.ndarray:
    """Chain rule from world-position gradients to the pose chart.

    Row k is [ c_k x (g_k R), g_k ] for body point c_k and the gradient g_k
    of a scalar with respect to that point's world position: the derivative
    with respect to a right perturbation (R -> R expm([d_theta]x),
    t -> t + d_t). With g_k the unit line of sight it is the range row.
    Broadcasts over leading axes.
    """
    return _cross_rows(nodes, grads @ rotation, grads)


def twist_jacobian_rows(nodes, units, rotation) -> np.ndarray:
    """Range-rate rows in the twist (w, v): row k is [ (R c_k) x u_k, u_k ] for body
    point c_k and unit line of sight u_k, since u . (w x R c_k) = ((R c_k) x u) . w."""
    return _cross_rows(nodes @ rotation.T, units, units)


def fit_alignment(source, target, weights, proper):
    """Closed-form weighted alignment target ~ Q source + t.

    With proper=True the result is constrained to SO(3) by flipping the
    smallest singular direction when needed (Kabsch convention); otherwise
    the best orthogonal matrix is returned, reflections included.
    Broadcasts over leading axes: source and target (..., K, 3), weights
    (..., K) or None.
    """
    s = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if weights is None:
        w = np.full(s.shape[-2], 1.0 / s.shape[-2])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape[-1] != s.shape[-2] or np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative finite, one per node")
        total = w.sum(axis=-1, keepdims=True)
        if np.any(total <= 0.0):
            raise ValueError("weights must not all be zero")
        w = w / total
    # Row vector times matrix: each product rounds as w @ s does.
    s_bar = (w[..., None, :] @ s)[..., 0, :]
    y_bar = (w[..., None, :] @ y)[..., 0, :]
    s_c = s - s_bar[..., None, :]
    y_c = y - y_bar[..., None, :]
    cross = (y_c * w[..., None]).mT @ s_c
    u, sv, vt = np.linalg.svd(cross)
    if proper:
        flip = np.ones_like(sv)
        flip[..., 2] = np.sign(np.linalg.det(u @ vt))
        q = u @ diag_stack(flip) @ vt
    else:
        q = u @ vt
    return q, y_bar - (q @ s_bar[..., None])[..., 0], sv, s_c, w


@lru_cache(maxsize=None)
def link_grid(n_anchors: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, node) indices of every anchor-node link, anchor-major: the
    order np.nonzero gives a full (A, K) mask."""
    jj = readonly(np.repeat(np.arange(n_anchors), n_nodes))
    return jj, readonly(np.tile(np.arange(n_nodes), n_anchors))


_LEVERS = np.zeros((4, 3, 6))  # [c, 1] @ _LEVERS.reshape(4, 18) is [-[c]x, I], flattened
_LEVERS[:3, :, :3], _LEVERS[3, :, 3:] = np.cross(_EYE3[:, None], _EYE3), _EYE3


def range_links(nodes, kk, anchor_xyz, ranges, observed=None):
    """range_residuals' links (nodes, kk, nodes[..., kk, :], anchor_xyz, ranges, observed,
    levers) of body node kk[i] to anchor_xyz[..., i, :]; levers[..., i, :, :] is
    [-[c]x, I] for the link's body point c.

    Leading axes stack independent problems. `observed` (..., M) marks the
    links that were measured, all by default; the others pad a stack to a
    common link grid with zero residual, rows and curvature, so each item's
    numbers never depend on the rest of the stack. Without ranges, only the
    offsets and distances are available.
    """
    nodes_k = nodes[..., kk, :]
    if ranges is None:
        return nodes, kk, nodes_k, anchor_xyz, None, None, None
    weight = np.ones(np.shape(ranges)) if observed is None else np.asarray(observed, dtype=float)
    ranges = np.where(weight > 0.0, ranges, 0.0)
    levers = nodes_k @ _LEVERS[:3].reshape(3, 18) + _LEVERS[3].ravel()
    return nodes, kk, nodes_k, anchor_xyz, ranges, weight, levers.reshape(nodes_k.shape + (6,))


def range_residuals(rot, trans, links, jacobian=True):
    """Range residuals of the range_links `links` at the poses (rot, trans),
    (..., 3, 3) and (..., 3).

    Returns (dist - ranges, their pose_jacobian_rows, their curvature,
    offsets R c_k + t - a_j, dist). The curvature sum_i r_i Hess(r_i) is the
    Hessian term Gauss-Newton drops, in the rows' chart: with L_i =
    [-[c_i]x, R^T], g_i = R^T u_i for the unit line of sight u_i, row_i =
    g_i L_i and alpha_i = r_i / d_i, link i adds alpha_i (L_i^T L_i -
    row_i^T row_i), plus r_i ((g_i c_i^T + c_i g_i^T) / 2 - (g_i . c_i) I)
    in the rotation block. Unobserved links have zero residual, rows and
    curvature. Rows and curvature are None without `jacobian`, and all three
    are None without ranges.
    """
    nodes, kk, nodes_k, anchor_xyz, ranges, weight, levers = links
    # The pose is applied before the gather: a matmul on gathered rows can round differently.
    delta = transform_points(nodes, rot, trans).take(kk, axis=-2) - anchor_xyz
    dist = np.sqrt(np.add.reduce(delta * delta, axis=-1))  # what np.linalg.norm(axis=-1) computes
    if ranges is None:
        return None, None, None, delta, dist
    res = (dist - ranges) * weight
    if not jacobian:
        return res, None, None, delta, dist
    units = delta / dist[..., None] * weight[..., None]
    g = units @ rot
    rows = _cross_rows(nodes_k, g, units)  # pose_jacobian_rows(nodes_k, units, rot)
    alpha = res / dist
    # sum_i alpha_i L_i^T L_i, with L_i = [-[c_i]x, I] blockdiag(I, R^T).
    rows3 = 3 * levers.shape[-3]
    flat = levers.reshape(levers.shape[:-3] + (rows3, 6))
    curv = (levers * alpha[..., None, None]).reshape(alpha.shape[:-1] + (rows3, 6)).mT @ flat
    curv[..., :3, 3:] = curv[..., :3, 3:] @ rot.mT
    curv[..., 3:, :3] = curv[..., :3, 3:].mT
    gc = (g * res[..., None]).mT @ nodes_k
    trace = gc.trace(axis1=-2, axis2=-1)[..., None, None]
    curv[..., :3, :3] += 0.5 * (gc + gc.mT) - trace * _EYE3
    return res, rows, curv - (rows * alpha[..., None]).mT @ rows, delta, dist


def _stacked(solver, *stacks):
    """solver on stacks of matrices at once; only when the stacked LAPACK call
    raises is each item retried on its own. Returns the results, zero for
    items that raised, and which items succeeded (None when all did)."""
    try:
        return solver(*stacks), None
    except np.linalg.LinAlgError:
        out, ok = np.zeros(stacks[-1].shape), np.ones(len(stacks[0]), dtype=bool)
        for i, item in enumerate(zip(*stacks)):
            try:
                out[i] = solver(*item)
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _take(args, idx):
    return tuple(None if a is None else a[idx] for a in args)


def pose_gauss_newton(residuals, rot, trans, max_iters: int, args=()):
    """Damped Newton least-squares fits of B poses (rot, trans), (B, 3, 3)
    and (B, 3), run in lockstep.

    `residuals(rot, trans, *args, jacobian)` returns (res, rows, curvature)
    for a stack of poses: the residuals (b, M) and, when `jacobian` is true
    (once per iteration, at its starting poses), their rows (b, M, 6) for a
    right perturbation (rot expm([d_theta]x), trans + d_t) and sum_i res_i
    Hess(res_i) (b, 6, 6) in that chart, or None. Every entry of `args` is
    None or holds one item per pose along its first axis; the kernel hands
    the callback the items of the poses it passes. A step solves with
    rows^T rows + curvature where that is positive definite (quadratic
    convergence on large residuals), else with rows^T rows (Gauss-Newton),
    damped on diag(rows^T rows). It is accepted when it raises the cost by
    at most the band cost * 1e-12 + 1e-18. A fit has converged when a step
    accepted on the first damping try moves the cost by no more than that
    band: a relative test, the same at any noise level and in any units,
    that a step damping had to shrink never passes.

    Damping, cost and band are per fit, and finished fits leave the stack,
    so each fit's numbers are those it gets alone. Returns (rot, trans,
    iterations, converged, messages); a message names the missed test and
    the `max_iters` cap it hit, or an exhausted damping schedule.
    """
    rot, trans = np.array(rot, dtype=float), np.array(trans, dtype=float)
    n = len(rot)
    iterations, converged = np.full(n, max_iters), np.zeros(n, dtype=bool)
    messages = [f"cost change above relative 1e-12 after {max_iters} iterations"] * n

    def cost_at(r, t, a):
        res = residuals(r, t, *a, False)[0]
        return np.vecdot(res, res)  # rounds as res @ res

    def attempt(r, t, hess, descent, lam, scale, cost, band, a):
        """One damping try: (accepted, tried poses, their costs)."""
        damped = hess.copy()
        damped.reshape(-1, 36)[:, ::7] += lam[:, None] * scale
        step, solved = _stacked(np.linalg.solve, damped, descent)
        r_try, t_try = r @ so3_exp(step[:, :3, 0]), t + step[:, 3:, 0]
        c_try = cost_at(r_try, t_try, a)
        # Accept non-increase up to float resolution of the cost itself:
        # near the minimum no step can beat the ulp-level plateau.
        ok = c_try <= cost + band
        return ok if solved is None else ok & solved, r_try, t_try, c_try

    live = np.arange(n)
    r, t = rot, trans
    cost = cost_at(r, t, args)
    lam = np.full(n, 1e-6)
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        res, jac, curv = residuals(r, t, *args, True)
        descent = -(jac.mT @ res[..., None])  # minus the gradient, (b, 6, 1)
        hess = jac.mT @ jac
        # Marquardt scaling: damp relative to the curvature so the schedule
        # works at any noise level (the weighted Hessian scales as 1/sigma^2).
        diag = hess.diagonal(axis1=-2, axis2=-1)
        largest = np.maximum.reduce(diag, axis=-1, keepdims=True)
        scale = np.maximum(diag, 1e-12 * np.maximum(largest, 1e-300))
        if curv is not None:  # Newton where positive definite, else Gauss-Newton
            newton = hess + curv
            definite = _stacked(np.linalg.cholesky, newton)[1]
            hess = newton if definite is None else np.where(definite[:, None, None], newton, hess)
        band = cost * 1e-12 + 1e-18
        # Fast path: every fit accepts its current damping on the first try.
        first, r_new, t_new, c_new = attempt(r, t, hess, descent, lam, scale, cost, band, args)
        accepted = first
        if not np.logical_and.reduce(first):
            accepted = first.copy()
            lam[~first] *= 10.0
            todo = np.flatnonzero(~first & (lam <= 1e8))
            while todo.size:
                ok, r_try, t_try, c_try = attempt(
                    r[todo], t[todo], hess[todo], descent[todo], lam[todo], scale[todo],
                    cost[todo], band[todo], _take(args, todo),
                )
                win, lose = todo[ok], todo[~ok]
                r_new[win], t_new[win], c_new[win] = r_try[ok], t_try[ok], c_try[ok]
                accepted[win] = True
                lam[lose] *= 10.0
                todo = lose[lam[lose] <= 1e8]
            # A fit whose damping schedule ran out keeps its pose.
            r_new[~accepted], t_new[~accepted] = r[~accepted], t[~accepted]
        conv = first & (np.abs(cost - c_new) <= band)
        r, t, cost = r_new, t_new, c_new
        lam = np.maximum(lam / 3.0, 1e-12)
        done = conv if accepted is first else conv | ~accepted
        if np.logical_or.reduce(done):
            ids = live[done]
            rot[ids], trans[ids], iterations[ids], converged[ids] = r[done], t[done], it, conv[done]
            for i, ok in zip(ids, accepted[done]):
                messages[i] = "" if ok else "damping schedule exhausted without cost decrease"
            keep = ~done
            live, r, t, cost, lam = live[keep], r[keep], t[keep], cost[keep], lam[keep]
            args = _take(args, keep)
    rot[live], trans[live] = r, t
    return rot, trans, iterations, converged, messages


def node_velocities(state: RigidBodyState) -> np.ndarray:
    """Per-node world velocities [w]x R c_k + tdot (K, 3)."""
    if state.twist is None:
        raise MissingTwistError("node_velocities requires a twist")
    return twist_velocities(state.conformation.nodes, state.pose.rotation, state.twist)


def twist_velocities(nodes, rot, twist: Twist) -> np.ndarray:
    """Node velocities [w]x R c_k + tdot of body points (K, 3) at rotations (..., 3, 3)."""
    return np.cross(twist.angular, nodes @ rot.mT) + twist.linear


def compose_poses(outer: Pose, inner: Pose) -> Pose:
    """Pose of applying `inner` first, then `outer`."""
    return Pose(
        outer.rotation @ inner.rotation,
        outer.rotation @ inner.translation + outer.translation,
    )


def inverse_pose(pose: Pose) -> Pose:
    return Pose(pose.rotation.T, -(pose.rotation.T @ pose.translation))


def propagate_state(state: RigidBodyState, dt: float) -> RigidBodyState:
    """Advance a constant-twist state by dt seconds.

    The rotation integrates the world-frame angular velocity on the left:
    R(dt) = exp([w dt]x) R.
    """
    if state.twist is None:
        raise MissingTwistError("propagate_state requires a twist")
    if dt < 0.0:
        raise InvalidIntervalError(f"dt must be nonnegative, got {dt}")
    rot, trans = propagate_poses(state.pose, state.twist, [dt])
    return RigidBodyState(state.conformation, Pose(rot[0], trans[0]), state.twist)


def propagate_poses(pose: Pose, twist: Twist, dts) -> tuple[np.ndarray, np.ndarray]:
    """The constant-twist poses exp([w dt]x) R, t + v dt after each of the
    times dts (F,), as (F, 3, 3) rotations and (F, 3) translations."""
    dts = np.asarray(dts, dtype=float)[:, None]
    return so3_exp(twist.angular * dts) @ pose.rotation, pose.translation + twist.linear * dts


def parse_points(text: str) -> np.ndarray:
    """Parse a plain-text point table: three floats per line, '#' comments."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("point table is empty")
    return np.array(rows, dtype=float)


def load_points(path) -> np.ndarray:
    """Load a point table file (see `parse_points` for the format)."""
    return parse_points(Path(path).read_text())
