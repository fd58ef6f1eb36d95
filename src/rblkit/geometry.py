"""Rigid body shapes, poses, twists, and the kinematics connecting them.

World node positions follow the affine model s_k = R c_k + t, and node
velocities follow sdot_k = [w]x R c_k + tdot for a body with angular
velocity w and translational velocity tdot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg  # np.linalg's LAPACK gufuncs, called without its raise

from .errors import (
    DegenerateConformationError,
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


def by_value(fn):
    """fn of float arrays, memoized on their bytes and shapes (bounded LRU); its
    array, or each array of its tuple, read-only."""

    @lru_cache(maxsize=32)
    def cached(*key):
        out = fn(*(np.frombuffer(data).reshape(shape) for data, shape in zip(key[::2], key[1::2])))
        return tuple(map(readonly, out)) if isinstance(out, tuple) else readonly(out)

    @wraps(fn)
    def memoized(*arrays):
        key = []
        for a in arrays:
            a = np.asarray(a, dtype=float)
            key += a.tobytes(), a.shape
        return cached(*key)

    return memoized


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
    square = theta * theta  # what theta**2 computes
    n_small = np.count_nonzero(small)
    if n_small == small.size:  # a converging fit's last steps: the series alone
        a, b = 1.0 - square / 6.0, 0.5 - square / 24.0
    elif n_small:
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 1.0 - square / 6.0, np.sin(safe) / safe)
        b = np.where(small, 0.5 - square / 24.0, (1.0 - np.cos(safe)) / safe**2)
    else:
        a, b = np.sin(theta) / theta, (1.0 - np.cos(theta)) / square
    return _EYE3 + a * k + b * (k @ k)


# Shepperd's method on rows e = (trace, 0, 0, 0, m00, m01, ..., m22), pivots e[::4]. Row p of
# _QUAT_TERMS is pivot p's (x, y, z, l0..l3, r0..r3): s = 2 sqrt(((1 + e[x]) - e[y]) - e[z])
# (trace + 1, 1 + m00 - m11 - m22, ...), q[p] = s / 4 and the other q[i] = (e[li] + sign *
# e[ri]) / s, such as (m21 + -1 * m12) / s, which rounds as (m21 - m12) / s.
_QUAT_TERMS = np.array([[0, 1, 1, 1, 11, 6, 7, 1, 9, 10, 5], [4, 8, 12, 11, 1, 5, 6, 9, 1, 7, 10],
                        [8, 4, 12, 6, 5, 1, 9, 10, 7, 1, 11], [12, 4, 8, 7, 6, 9, 1, 5, 10, 11, 1]])
_QUAT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0]] + [[-1.0, 1.0, 1.0, 1.0]] * 3)


def _quat_from_matrix(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest of the four candidate pivots, per matrix of a stack.
    b = r.size // 9
    e = np.zeros((b, 13))
    e[:, 4:] = r.reshape(b, 9)
    np.add.reduce(e[:, 4::4], axis=1, out=e[:, 0])  # the sum np.trace makes
    # The first pivot above all later ones, else the last: Shepperd's tie order.
    pivots, first = e[:, ::4], np.empty((b, 4), dtype=bool)
    later = np.maximum.accumulate(pivots[:, :0:-1], axis=1)[:, ::-1]
    np.greater(pivots[:, :3], later, out=first[:, :3])
    first[:, 3] = True
    pivot, row = first.argmax(axis=1), np.arange(b)
    terms = e.ravel()[_QUAT_TERMS[pivot] + 13 * row[:, None]]
    s = np.sqrt(((1.0 + terms[:, 0]) - terms[:, 1]) - terms[:, 2]) * 2.0
    q = (terms[:, 3:7] + terms[:, 7:] * _QUAT_SIGN[pivot]) / s[:, None]
    q[row, pivot] = 0.25 * s
    np.negative(q, out=q, where=q[:, :1] < 0.0)
    return (q / np.sqrt(np.vecdot(q, q))[:, None]).reshape(r.shape[:-2] + (4,))


# Entry (i, j) of matrix_from_quat is 2 (q_a q_b + sign q_c q_d), with 1 minus it on the
# diagonal: flat indices a * 4 + b of the products, then c * 4 + d, and the signs, row-major.
_QUAT_PRODUCTS = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5, 15, 3, 2, 3, 15, 1, 2, 1, 10])
_QUAT_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def matrix_from_quat(q) -> np.ndarray:
    """Rotation matrices, (3, 3) or (B, 3, 3), from unit quaternions (w, x, y, z),
    (4,) or (B, 4): each entry 2 (q_a q_b +- q_c q_d), 1 minus that on the
    diagonal, such as 1 - 2 (y y + z z) and 2 (x y - w z), rounded as written."""
    q = np.asarray(q, dtype=float)
    terms = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,)).take(
        _QUAT_PRODUCTS, axis=-1
    )
    m = 2 * (terms[..., :9] + _QUAT_SIGNS * terms[..., 9:])
    m[..., ::4] = 1 - m[..., ::4]
    return m.reshape(q.shape[:-1] + (3, 3))


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


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _eigh_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def svd(a, compute_uv=True):
    """np.linalg.svd(a, full_matrices=False, compute_uv) of a float64 stack, bit
    for bit and with its LinAlgError when LAPACK fails: its gufunc under its
    error state, without the wrapper's per-call checks."""
    return _umath_linalg.svd_s(a) if compute_uv else _umath_linalg.svd(a)


@np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def eigh(a):
    """np.linalg.eigh(a) of a float64 stack, in the same way as svd."""
    return _umath_linalg.eigh_lo(a)


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.asarray((np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi)
    out = np.where(wrapped == -np.pi, np.pi, wrapped)
    return out if out.ndim else float(out)


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


def affine_rank(points) -> int:
    """Dimension of the affine span of points (K, 3): the singular values of
    the centred points above 1e-9 of the largest."""
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return int(np.sum(s > 1e-9 * max(s[0], 1e-300)))


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
        rank = affine_rank(nodes)
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
        # One pass over the entries as Python floats: finiteness, then the deviation of
        # r^T r (numpy's product, which rounds as BLAS does) and the determinant.
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        if not all(map(math.isfinite, (a, b, c, d, e, f, g, h, i, *t.tolist()))):
            raise InvalidPoseError("pose entries must be finite")
        err = max(map(abs, chain.from_iterable((r.T @ r - _EYE3).tolist())))
        if err > ORTHONORMALITY_TOL:
            raise InvalidPoseError(f"rotation is not orthonormal (max deviation {err:.3e})")
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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
        if not all(map(math.isfinite, w.tolist() + v.tolist())):
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
# a[..., _NEXT_PREV] is (a_next, a_prev) and b[..., _PREV_NEXT] is (b_prev, b_next): their
# product's halves are the two products of each component of a x b, as cross forms them.
_NEXT_PREV, _PREV_NEXT = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def cross(a, b) -> np.ndarray:
    """a x b over the last axis: the products and differences np.cross
    forms, without its per-call overhead."""
    a_next, a_prev = a.take(_NEXT, axis=-1), a.take(_PREV, axis=-1)
    return a_next * b.take(_PREV, axis=-1) - a_prev * b.take(_NEXT, axis=-1)


def pose_jacobian_rows(nodes, grads, rotation) -> np.ndarray:
    """Chain rule from world-position gradients to the pose chart: the one
    builder of range, angle and twist rows.

    Row k is [ c_k x (g_k R), g_k ] for body point c_k and the gradient g_k
    of a scalar with respect to that point's world position: the derivative
    with respect to a right perturbation (R -> R expm([d_theta]x),
    t -> t + d_t). With g_k the unit line of sight it is the range row; at
    the identity rotation, for the world points R c_k, it is the range-rate
    row in the twist (w, v). Broadcasts over leading axes; range_rows fills
    the same rows from the links' gathered body pairs.
    """
    rows = np.empty(grads.shape[:-1] + (6,))
    rows[..., 3:] = grads
    return _rotation_rows(rows, nodes.take(_NEXT_PREV, axis=-1), rotation)[0]


def _rotation_rows(rows, pairs, rotation):
    """pose_jacobian_rows filled in: rows[..., :3] = c x (g R) for the gradients
    g in rows[..., 3:] and the body points' (c_next, c_prev) `pairs`. Returns the
    rows and the body-frame gradients g R."""
    body = rows[..., 3:] @ rotation
    prod = pairs * body[..., _PREV_NEXT]
    np.subtract(prod[..., :3], prod[..., 3:], out=rows[..., :3])
    return rows, body


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
        if (w.shape[-1] != s.shape[-2] or np.count_nonzero(w < 0.0)
                or np.count_nonzero(np.isfinite(w)) < w.size):
            raise ValueError("weights must be nonnegative finite, one per node")
        total = w.sum(axis=-1, keepdims=True)
        if np.count_nonzero(total <= 0.0):
            raise ValueError("weights must not all be zero")
        w = w / total
    # Row vector times matrix: each product rounds as w @ s does.
    s_bar = (w[..., None, :] @ s)[..., 0, :]
    y_bar = (w[..., None, :] @ y)[..., 0, :]
    s_c = s - s_bar[..., None, :]
    y_c = y - y_bar[..., None, :]
    cross = (y_c * w[..., None]).mT @ s_c
    u, _, vt = svd(cross)
    q = u @ vt
    if proper:  # u diag(1, 1, sign det q) vt: a sign of -1 flips u's last column
        det = _umath_linalg.det(q)  # np.linalg.det's gufunc
        if np.count_nonzero(det > 0.0) < det.size:
            u[..., 2] *= np.sign(det)[..., None]
            q = u @ vt
    return q, y_bar - (q @ s_bar[..., None])[..., 0], s_c, w


_LEVERS = np.zeros((4, 3, 6))  # c @ _LEVERS[:3] + _LEVERS[3] is [-[c]x, I], flattened
_LEVERS[:3, :, :3], _LEVERS[3, :, 3:] = np.cross(_EYE3[:, None], _EYE3), _EYE3
_LEVERS = _LEVERS.reshape(4, 18)


@by_value
def _grid_geometry(anchor_xyz, nodes):
    """grid_links' constants of one anchor set and body, by value: kk, anchors, nodes[kk],
    levers and pairs."""
    a, k = len(anchor_xyz), len(nodes)
    kk = np.tile(np.arange(k), a)
    nodes_k = nodes[kk]
    levers = (nodes_k @ _LEVERS[:3] + _LEVERS[3]).reshape(nodes_k.shape + (6,))
    return kk, anchor_xyz[np.repeat(np.arange(a), k)], nodes_k, levers, nodes_k.take(_NEXT_PREV, -1)


def grid_links(anchor_xyz, nodes, ranges, mask):
    """The one link builder: range links (nodes, kk, nodes[kk], anchors, ranges, weight,
    levers, pairs) of every anchor (A, 3) and body node (K, 3) pair, anchor-major, link i
    joining node kk[i] to anchors[i]. levers[i] is [-[c]x, I] for its body point c (None
    without ranges), pairs[i] c's (c_next, c_prev). Ranges (or None) and masks (..., A, K)
    stack problems that share the geometry; an unobserved link has weight 0 and range 0,
    so an item's numbers never depend on the rest of the stack."""
    a, k = mask.shape[-2:]
    flat = mask.shape[:-2] + (a * k,)
    kk, anchors, nodes_k, levers, pairs = _grid_geometry(anchor_xyz, nodes)
    observed = mask.reshape(flat)
    weight = np.asarray(observed, dtype=float)
    if ranges is None:
        return nodes, kk, nodes_k, anchors, None, weight, None, pairs
    ranges = np.where(observed, ranges.reshape(flat), 0.0)
    return nodes, kk, nodes_k, anchors, ranges, weight, levers, pairs


def range_residuals(rot, trans, links, jacobian=True):
    """Range residuals of the grid_links `links` at the poses (rot, trans),
    (..., 3, 3) and (..., 3).

    Returns (dist - ranges, their pose_jacobian_rows, offsets R c_k + t - a_j,
    dist). Unobserved links have zero residuals and rows, also where a node
    coincides with an anchor. The residuals are None without ranges, the
    rows without `jacobian`.
    """
    nodes, kk, _, anchor_xyz, ranges, weight = links[:6]
    delta, dist = link_offsets(nodes, kk, anchor_xyz, rot, trans)
    res = None if ranges is None else (dist - ranges) * weight
    return res, range_rows(rot, links, delta, dist)[0] if jacobian else None, delta, dist


def observed_rms(rot, trans, links) -> np.ndarray:
    """RMS of the observed-range residuals of grid_links `links` at poses
    (B, 3, 3), (B, 3); 0 where nothing was observed."""
    res = range_residuals(rot, trans, links, jacobian=False)[0]
    observed = np.add.reduce(links[5], axis=-1)
    # res**2 computes res * res.
    return np.sqrt(np.add.reduce(res * res, axis=-1) / np.maximum(observed, 1))


def link_offsets(nodes, kk, anchor_xyz, rot, trans):
    """The offsets R c_k + t - a_j of body nodes kk[i] to anchor_xyz[..., i, :] at the
    poses (rot, trans), (..., M, 3), and their lengths (..., M)."""
    # The pose is applied before the gather: a matmul on gathered rows can round differently.
    delta = (nodes @ rot.mT + trans[..., None, :]).take(kk, axis=-2) - anchor_xyz
    sq = delta * delta
    return delta, np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])  # np.linalg.norm(axis=-1)'s sum


def range_rows(rot, links, delta, dist):
    """range_residuals' rows, from its offsets and distances at the rotations rot, and
    their gradients in the body frame, the g of range_curvature."""
    rows = np.empty(delta.shape[:-1] + (6,))
    # A nonzero dist is at least 1e-162, so the floor only turns 0 / 0 into 0.
    np.multiply(delta / np.maximum(dist, 1e-300)[..., None], links[5][..., None], out=rows[..., 3:])
    return _rotation_rows(rows, links[7], rot)


def range_curvature(rot, links, res, rows, g, dist):
    """sum_i r_i Hess(r_i) of range_residuals' residuals `res`, range_rows' rows
    and body-frame gradients g, and the distances at the rotations rot: the
    Hessian term Gauss-Newton drops.

    In the rows' chart, with L_i = [-[c_i]x, R^T], g_i = R^T u_i for the
    unit line of sight u_i, row_i = g_i L_i and alpha_i = r_i / d_i, link i
    adds alpha_i (L_i^T L_i - row_i^T row_i), plus r_i ((g_i c_i^T + c_i
    g_i^T) / 2 - (g_i . c_i) I) in the rotation block. Unobserved links add
    nothing.
    """
    nodes_k, levers = links[2], links[6]
    alpha = res / dist
    # sum_i alpha_i L_i^T L_i, with L_i = [-[c_i]x, I] blockdiag(I, R^T).
    rows3 = 3 * levers.shape[-3]
    flat = levers.reshape(levers.shape[:-3] + (rows3, 6))
    curv = (levers * alpha[..., None, None]).reshape(alpha.shape[:-1] + (rows3, 6)).mT @ flat
    curv[..., :3, 3:] = curv[..., :3, 3:] @ rot.mT
    curv[..., 3:, :3] = curv[..., :3, 3:].mT
    gc = (g * res[..., None]).mT @ nodes_k
    trace = gc.trace(axis1=-2, axis2=-1)[..., None, None]
    rotation_block = curv[..., :3, :3]  # a view: += writes curv
    rotation_block += 0.5 * (gc + gc.mT) - trace * _EYE3
    return curv - (rows * alpha[..., None]).mT @ rows


def angle_residuals(rot, links, delta, dist, aoa, jacobian=True):
    """Azimuth and elevation residuals (..., 2M) of the grid_links `links`
    and their pose_jacobian_rows (..., 2M, 6), from range_residuals'
    offsets `delta` and distances `dist` at the rotations rot.

    aoa (..., M, 2) holds the links' measured (azimuth, elevation), or is
    None: then there are rows alone. Azimuths come first, absolute and
    wrapped. Unobserved links have zero residuals and rows; without
    `jacobian` the rows are None.
    """
    nodes_k, weight = links[2], links[5]
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    dist = np.where(weight > 0.0, dist, 1.0)  # an unobserved link may have length 0
    res = rows = None
    if aoa is not None:
        az_res = wrap_angle(np.arctan2(dy, dx) - aoa[..., 0])
        el_res = np.arcsin(np.clip(dz / dist, -1.0, 1.0)) - aoa[..., 1]
        res = np.concatenate([az_res * weight, el_res * weight], axis=-1)
    if jacobian:
        rho2 = np.where(weight > 0.0, dx**2 + dy**2, 1.0)
        rho = np.sqrt(rho2)
        az_rows = np.stack([-dy / rho2, dx / rho2, np.zeros_like(dx)], axis=-1)
        scale = dist**2 * rho
        el_rows = np.stack([-dx * dz / scale, -dy * dz / scale, rho / dist**2], axis=-1)
        jac = [pose_jacobian_rows(nodes_k, u, rot) * weight[..., None] for u in (az_rows, el_rows)]
        rows = np.concatenate(jac, axis=-2)
    return res, rows


def fit_terms(rot, trans, links, sw_range, w_range, aoa, sw_angle, jacobian, geometry):
    """pose_gauss_newton's callback values for range fits of poses (B, 3, 3), (B, 3).

    `links` are grid_links; aoa (B, M, 2) holds the links' (azimuth,
    elevation) or is None. The residuals and rows are range_residuals' then
    angle_residuals', each scaled by the square root of its type weight,
    sw_range and sw_angle (B,); the curvature is range_curvature's, times
    the range weight w_range (B,). A weight of None is 1, and multiplies
    nothing. jacobian=False gives None for both.
    `geometry` is None or, reused, the geometry a call at the same poses returned:
    range_residuals(rot, trans, links, False) with the residuals in place of its rows,
    so a call handed it computes only the rows and the curvature.
    """
    if geometry is None:
        range_res, _, delta, dist = range_residuals(rot, trans, links, False)
        res = _weighted(sw_range, range_res)
        if aoa is not None:
            angle_res = angle_residuals(rot, links, delta, dist, aoa, False)[0]
            res = np.concatenate([res, _weighted(sw_angle, angle_res)], axis=-1)
        geometry = range_res, res, delta, dist
    range_res, res, delta, dist = geometry
    rows = curv = None
    if jacobian:
        unit_rows, g = range_rows(rot, links, delta, dist)
        rows = _weighted(sw_range, unit_rows)
        curv = _weighted(w_range, range_curvature(rot, links, range_res, unit_rows, g, dist))
        if aoa is not None:
            angle_rows = angle_residuals(rot, links, delta, dist, None)[1]
            rows = np.concatenate([rows, _weighted(sw_angle, angle_rows)], axis=-2)
    return res, rows, curv, geometry


def _weighted(weight, values):
    """A stack of values times each item's weight (B,); the values themselves for None."""
    return values if weight is None else weight.reshape((-1,) + (1,) * (values.ndim - 1)) * values


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, *stacks) -> np.ndarray:
    """A np.linalg gufunc on whole stacks of matrices in one call that never
    raises: LAPACK decides each item as np.linalg would alone, and an item
    it fails on comes back all NaN."""
    return gufunc(*stacks)


def _take(stacks, idx):
    return None if stacks is None else tuple(None if a is None else a[idx] for a in stacks)


def pose_gauss_newton(residuals, rot, trans, max_iters: int, args=()):
    """Damped Newton least-squares fits of B poses (rot, trans), (B, 3, 3)
    and (B, 3), run in lockstep.

    `residuals(rot, trans, *args, jacobian, geometry)` returns (res, rows,
    curvature, geometry) for a stack of poses: the residuals (b, M) and,
    when `jacobian` is true (once per iteration, at its starting poses),
    their rows (b, M, 6) for a right perturbation (rot expm([d_theta]x),
    trans + d_t) and sum_i res_i Hess(res_i) (b, 6, 6) in that chart, or
    None. `geometry` holds per-pose stacks, or Nones, that the callback
    computed on the way; the kernel writes each fit's accepted try's rows
    into them and hands them back with `jacobian`, so only a call's first
    iteration gets None. An iteration handed geometry starts from the cost
    of the try that computed it; otherwise the same residuals give its
    starting cost, so a fit started at its minimum makes one Jacobian and
    one trial evaluation. Every entry of `args` is None or holds one item per pose
    along its first axis; the kernel hands the callback the items of the
    poses it passes. A step solves with rows^T rows + curvature where that
    is positive definite (quadratic convergence on large residuals), else
    with rows^T rows (Gauss-Newton), damped on diag(rows^T rows). It is
    accepted when it raises the cost by at most the band cost * 1e-12 +
    1e-18; a rejected first damping try is followed by one stacked try of
    every higher level, and the lowest accepted is taken. A fit has
    converged when a step accepted on the first damping try moves the cost
    by no more than that band: a relative test, the same at any noise level
    and in any units, that a step damping had to shrink never passes.

    Damping, cost and band are per fit, and finished fits leave the stack,
    so each fit's numbers are those it gets alone. Returns (rot, trans,
    iterations, converged, messages); a message names the missed test and
    the `max_iters` cap it hit, or an exhausted damping schedule.
    """
    rot, trans = np.array(rot, dtype=float), np.array(trans, dtype=float)
    n = len(rot)
    iterations, converged = np.full(n, max_iters), np.zeros(n, dtype=bool)
    messages = [f"cost change above relative 1e-12 after {max_iters} iterations"] * n

    def attempt(r, t, hess, descent, lam, scale, ceiling, a):
        """One damping try: (accepted, tried poses, their costs, their geometry)."""
        damped = hess.copy()
        diagonal = damped.reshape(-1, 36)[:, ::7]  # a view: += writes damped's diagonal
        diagonal += lam[:, None] * scale
        step = _lapack(_umath_linalg.solve, damped, descent)
        r_try, t_try = r @ so3_exp(step[:, :3, 0]), t + step[:, 3:, 0]
        res, _, _, geometry = residuals(r_try, t_try, *a, False, None)
        c_try = np.vecdot(res, res)  # rounds as res @ res
        # Accept non-increase up to float resolution of the cost itself:
        # near the minimum no step can beat the ulp-level plateau.
        ok = (c_try <= ceiling) & (step[:, 0, 0] == step[:, 0, 0])  # not where the solve failed
        return ok, r_try, t_try, c_try, geometry

    live = np.arange(n)
    r, t, geometry = rot, trans, None
    lam = np.full(n, 1e-6)
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        res, jac, curv, _ = residuals(r, t, *args, True, geometry)
        if geometry is None:
            cost = np.vecdot(res, res)  # rounds as res @ res
        descent = -(jac.mT @ res[..., None])  # minus the gradient, (b, 6, 1)
        hess = jac.mT @ jac
        # Marquardt scaling: damp relative to the curvature so the schedule
        # works at any noise level (the weighted Hessian scales as 1/sigma^2).
        diag = hess.diagonal(axis1=-2, axis2=-1)
        largest = np.maximum.reduce(diag, axis=-1, keepdims=True, initial=1e-300)
        scale = np.maximum(diag, 1e-12 * largest)
        if curv is not None:  # Newton where positive definite, else Gauss-Newton
            newton = hess + curv
            corner = _lapack(_umath_linalg.cholesky_lo, newton)[:, 0, 0]
            hess = np.where((corner == corner)[:, None, None], newton, hess)  # NaN: indefinite
        band = cost * 1e-12 + 1e-18
        ceiling = cost + band
        first, r_new, t_new, c_new, geometry = attempt(
            r, t, hess, descent, lam, scale, ceiling, args
        )
        conv = np.abs(cost - c_new) <= band
        accepted = first
        # Fast path: every fit accepts its current damping on the first try.
        if np.count_nonzero(first) < len(first):
            conv &= first  # a step that damping had to shrink never converges
            accepted = first.copy()
            # A rejected fit tries every level of its schedule above lam (x10 while <= 1e8: at
            # most 20 from lam >= 1e-12) in one stacked try, and takes the lowest accepted.
            rej = np.flatnonzero(~first)
            ladder = np.column_stack([lam[rej], np.full((rej.size, 20), 10.0)])
            levels = np.multiply.accumulate(ladder, axis=1)[:, 1:]  # each rounds as lam *= 10
            tried = levels <= 1e8
            pairs = rej[np.nonzero(tried)[0]]  # fit-major, each fit's levels climbing
            if pairs.size:
                won = np.zeros(tried.shape, dtype=bool)
                won[tried], r_try, t_try, c_try, tried_geometry = attempt(
                    r[pairs], t[pairs], hess[pairs], descent[pairs], levels[tried],
                    scale[pairs], ceiling[pairs], _take(args, pairs),
                )
                wins = won.any(axis=1)
                win, pick = rej[wins], won[wins].argmax(axis=1)
                pair = (np.cumsum(tried) - 1).reshape(tried.shape)[wins, pick]
                lam[win], accepted[win] = levels[wins, pick], True
                r_new[win], t_new[win], c_new[win] = r_try[pair], t_try[pair], c_try[pair]
                for kept, tried_rows in zip(geometry or (), tried_geometry or ()):
                    if kept is not None:  # the accepted try's geometry, for the next rows
                        kept[win] = tried_rows[pair]
            # A fit whose damping schedule ran out keeps its pose and leaves the stack.
            r_new[~accepted], t_new[~accepted] = r[~accepted], t[~accepted]
        r, t, cost = r_new, t_new, c_new
        lam = np.maximum(lam / 3.0, 1e-12)
        done = conv if accepted is first else conv | ~accepted
        finished = np.count_nonzero(done)
        if finished:
            last = finished == len(live)  # then nothing is left to compact
            ids, sel = (live, slice(None)) if last else (live[done], done)
            put = slice(None) if finished == n else ids  # every fit finishes now: no gather
            rot[put], trans[put], iterations[put], converged[put] = r[sel], t[sel], it, conv[sel]
            for i, ok in zip(ids.tolist(), accepted[sel].tolist()):
                messages[i] = "" if ok else "damping schedule exhausted without cost decrease"
            if last:
                return rot, trans, iterations, converged, messages
            keep = ~done
            live, r, t, lam, cost = live[keep], r[keep], t[keep], lam[keep], cost[keep]
            args, geometry = _take(args, keep), _take(geometry, keep)
    rot[live], trans[live] = r, t
    return rot, trans, iterations, converged, messages


def fit_ranges(links, rot, trans, max_iters: int, w_range, aoa, w_angle):
    """pose_gauss_newton's fits, started at poses (B, 3, 3), (B, 3), to the grid_links
    `links` (shared geometry, per-fit ranges and weights (B, M)) and, unless aoa is None,
    to the links' angles aoa (B, M, 2); w_range and w_angle (B,) weight each fit's range
    and angle residuals, with w_angle read only with aoa; None weights 1, unweighted.
    Returns its outcomes."""
    sw_range = None if w_range is None else np.sqrt(w_range)
    sw_angle = None if aoa is None or w_angle is None else np.sqrt(w_angle)
    constants = (sw_range, w_range, aoa, sw_angle)

    def residuals(r, t, ranges, weight, *rest):
        return fit_terms(r, t, links[:4] + (ranges, weight) + links[6:], *rest)

    return pose_gauss_newton(residuals, rot, trans, max_iters, args=links[4:6] + constants)


def node_velocities(state: RigidBodyState) -> np.ndarray:
    """Per-node world velocities [w]x R c_k + tdot (K, 3)."""
    if state.twist is None:
        raise MissingTwistError("node_velocities requires a twist")
    return twist_velocities(state.conformation.nodes, state.pose.rotation, state.twist)


def twist_velocities(nodes, rot, twist: Twist) -> np.ndarray:
    """Node velocities [w]x R c_k + tdot of body points (K, 3) at rotations (..., 3, 3)."""
    return cross(twist.angular, nodes @ rot.mT) + twist.linear


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
