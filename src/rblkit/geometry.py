"""Rigid body shapes, poses, twists, and the kinematics connecting them.

World node positions follow the affine model s_k = R c_k + t, and node
velocities follow sdot_k = [w]x R c_k + tdot for a body with angular
velocity w and translational velocity tdot.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
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


def so3_exp(axis_angle) -> np.ndarray:
    """Rodrigues map from an axis-angle vector to a rotation matrix.

    The zero vector maps to the identity. Small angles use the series
    expansions of sin(t)/t and (1-cos(t))/t^2 to avoid cancellation.
    """
    v = np.asarray(axis_angle, dtype=float)
    theta = math.sqrt(v.dot(v))  # what np.linalg.norm computes
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])  # [v]x
    if theta < 1e-6:
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
    return _EYE3 + a * k + b * (k @ k)


def _quat_from_matrix(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest of the four candidate pivots.
    m = r
    t = np.trace(m)
    if t > m[0, 0] and t > m[1, 1] and t > m[2, 2]:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def matrix_from_quat(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


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
    u, s, vt = np.linalg.svd(a)
    if s[2] <= 1e-13 * max(s[0], 1e-300):
        raise DegenerateProjectionError(
            f"matrix is rank deficient (singular values {s}); nearest rotation not unique"
        )
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def rotation_error_deg(a, b) -> float:
    """Geodesic angle between two rotations, in degrees.

    Mathematically arccos((trace(a b^T) - 1) / 2) with the argument clamped
    to [-1, 1]; evaluated through the quaternion of the relative rotation,
    which keeps full precision near 0 and 180 degrees where the arccosine
    form bottoms out around 1e-6 degrees.
    """
    rel = np.asarray(a, dtype=float) @ np.asarray(b, dtype=float).T
    q = _quat_from_matrix(rel)
    angle = 2.0 * np.arctan2(np.linalg.norm(q[1:]), abs(q[0]))
    return float(np.degrees(angle))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) (normalized Gaussian quaternion)."""
    q = rng.standard_normal(4)
    return matrix_from_quat(q / np.linalg.norm(q))


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
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise InvalidPoseError("pose entries must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
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
    return conf.nodes @ pose.rotation.T + pose.translation


def _cross_rows(a, b, tail) -> np.ndarray:
    # (M, 6) rows [a_k x b_k, tail_k], the same products and differences np.cross forms.
    out = np.empty((a.shape[0], 6))
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    out[:, 3:] = tail
    return out


def pose_jacobian_rows(nodes, grads, rotation) -> np.ndarray:
    """Chain rule from world-position gradients to the pose chart.

    Row k is [ c_k x (g_k R), g_k ] for body point c_k and the gradient g_k
    of a scalar with respect to that point's world position: the derivative
    with respect to a right perturbation (R -> R expm([d_theta]x),
    t -> t + d_t). With g_k the unit line of sight it is the range row.
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
    """
    s = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if weights is None:
        w = np.full(s.shape[0], 1.0 / s.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (s.shape[0],) or np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative finite, one per node")
        total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / total
    s_bar = w @ s
    y_bar = w @ y
    s_c = s - s_bar
    y_c = y - y_bar
    cross = (y_c * w[:, None]).T @ s_c
    u, sv, vt = np.linalg.svd(cross)
    if proper:
        d = np.sign(np.linalg.det(u @ vt))
        q = u @ np.diag([1.0, 1.0, d]) @ vt
    else:
        q = u @ vt
    return q, y_bar - q @ s_bar, sv, s_c, w


_LEVERS = np.zeros((4, 3, 6))  # [c, 1] @ _LEVERS.reshape(4, 18) is [-[c]x, I], flattened
_LEVERS[:3, :, :3], _LEVERS[3, :, 3:] = np.cross(_EYE3[:, None], _EYE3), _EYE3


def range_links(nodes, kk, anchor_xyz, ranges):
    """range_residuals' links (nodes, kk, nodes[kk], anchor_xyz, ranges, levers) of body node
    kk[i] to anchor_xyz[i]; levers[i] is [-[c]x, I] for the link's body point c."""
    nodes_k = nodes[kk]
    levers = (nodes_k @ _LEVERS[:3].reshape(3, 18) + _LEVERS[3].ravel()).reshape(-1, 3, 6)
    return nodes, kk, nodes_k, anchor_xyz, ranges, levers


def range_residuals(rot, trans, links, jacobian=True):
    """Range residuals of the range_links `links` at the pose (rot, trans).

    Returns (dist - ranges, their pose_jacobian_rows, their curvature,
    offsets R c_k + t - a_j, dist). The curvature sum_i r_i Hess(r_i) is the
    Hessian term Gauss-Newton drops, in the rows' chart: with L_i =
    [-[c_i]x, R^T], g_i = R^T u_i for the unit line of sight u_i, row_i =
    g_i L_i and alpha_i = r_i / d_i, link i adds alpha_i (L_i^T L_i -
    row_i^T row_i), plus r_i ((g_i c_i^T + c_i g_i^T) / 2 - (g_i . c_i) I)
    in the rotation block. Rows and curvature are None without `jacobian`
    (levers may then be None), and all three are None without ranges.
    """
    nodes, kk, nodes_k, anchor_xyz, ranges, levers = links
    # The pose is applied before the gather: a matmul on gathered rows can round differently.
    delta = (nodes @ rot.T + trans)[kk] - anchor_xyz
    dist = np.sqrt(np.add.reduce(delta * delta, axis=1))  # what np.linalg.norm(axis=1) computes
    if ranges is None:
        return None, None, None, delta, dist
    res = dist - ranges
    if not jacobian:
        return res, None, None, delta, dist
    units = delta / dist[:, None]
    g = units @ rot
    rows = _cross_rows(nodes_k, g, units)  # pose_jacobian_rows(nodes_k, units, rot)
    alpha = res / dist
    # sum_i alpha_i L_i^T L_i, with L_i = [-[c_i]x, I] blockdiag(I, R^T).
    curv = (levers * alpha[:, None, None]).reshape(-1, 6).T @ levers.reshape(-1, 6)
    curv[:3, 3:] = curv[:3, 3:] @ rot.T
    curv[3:, :3] = curv[:3, 3:].T
    gc = (g * res[:, None]).T @ nodes_k
    curv[:3, :3] += 0.5 * (gc + gc.T) - gc.trace() * _EYE3
    return res, rows, curv - (rows * alpha[:, None]).T @ rows, delta, dist


def pose_gauss_newton(residuals, rot, trans, max_iters: int, args=()):
    """Damped Newton least-squares fit of a pose (rot, trans).

    `residuals(rot, trans, *args, jacobian)` returns (res, rows, curvature):
    the residuals and, when `jacobian` is true (once per iteration, at its
    starting pose), their rows for a right perturbation (rot
    expm([d_theta]x), trans + d_t) and sum_i res_i Hess(res_i) in that
    chart, or None. A step solves with rows^T rows + curvature where that is
    positive definite (quadratic convergence on large residuals), else with
    rows^T rows (Gauss-Newton), damped on diag(rows^T rows). It is accepted
    when it raises the cost by at most the band cost * 1e-12 + 1e-18. The
    fit has converged when a step accepted on the first damping try moves
    the cost by no more than that band: a relative test, the same at any
    noise level and in any units, that a step damping had to shrink never
    passes. Returns (rot, trans, iterations, converged, message); the
    message names the missed test and the `max_iters` cap it hit, or an
    exhausted damping schedule.
    """

    def cost_at(r, t):
        res = residuals(r, t, *args, False)[0]
        return float(res @ res)

    cost = cost_at(rot, trans)
    lam = 1e-6
    converged = False
    message = ""
    iterations = 0
    for iterations in range(1, max_iters + 1):
        res, jac, curv = residuals(rot, trans, *args, True)
        grad = jac.T @ res
        hess = jac.T @ jac
        # Marquardt scaling: damp relative to the curvature so the schedule
        # works at any noise level (the weighted Hessian scales as 1/sigma^2).
        diag = hess.diagonal()
        scale = np.maximum(diag, 1e-12 * max(diag.max(), 1e-300))
        if curv is not None:
            with suppress(np.linalg.LinAlgError):  # Newton where positive definite, else GN
                np.linalg.cholesky(newton := hess + curv)
                hess = newton
        start_lam, band = lam, cost * 1e-12 + 1e-18
        while lam <= 1e8:
            damped = hess.copy()
            damped.flat[::7] += lam * scale
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rot_try = rot @ so3_exp(step[:3])
            trans_try = trans + step[3:]
            cost_try = cost_at(rot_try, trans_try)
            # Accept non-increase up to float resolution of the cost itself:
            # near the minimum no step can beat the ulp-level plateau.
            if cost_try <= cost + band:
                break
            lam *= 10.0
        else:
            message = "damping schedule exhausted without cost decrease"
            break
        converged = lam == start_lam and abs(cost - cost_try) <= band
        rot, trans, cost = rot_try, trans_try, cost_try
        lam = max(lam / 3.0, 1e-12)
        if converged:
            break
    else:
        message = f"cost change above relative 1e-12 after {max_iters} iterations"
    return rot, trans, iterations, converged, message


def node_velocities(state: RigidBodyState) -> np.ndarray:
    """Per-node world velocities [w]x R c_k + tdot (K, 3)."""
    if state.twist is None:
        raise MissingTwistError("node_velocities requires a twist")
    rotated = state.conformation.nodes @ state.pose.rotation.T
    return np.cross(state.twist.angular, rotated) + state.twist.linear


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
    rot = so3_exp(state.twist.angular * dt) @ state.pose.rotation
    trans = state.pose.translation + state.twist.linear * dt
    return RigidBodyState(state.conformation, Pose(rot, trans), state.twist)


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
