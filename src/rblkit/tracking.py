"""Frame-to-frame rigid body tracking.

Each frame is handled on its own (no temporal filtering): the pose is
estimated from that frame's measurements, warm-started from the previous
frame's pose propagated by its estimated twist, and the twist follows from
a linear weighted least-squares fit of the range rates. Given the pose,
the range-rate model is exactly linear in the twist:

    u_jk . ( -[R c_k]x w + v ) = rate_jk,

since [w]x R c_k = -[R c_k]x w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    RblError,
    UnderdeterminedError,
    UnobservableTwistError,
    entries,
    exact,
)
from .estimators import (
    ESTIMATOR_TAGS,
    PoseEstimate,
    estimate_pose_gabp,
    estimate_pose_nls,
    mds_from_ranges,
)
from .geometry import (
    Conformation,
    Pose,
    Twist,
    link_offsets,
    pose_jacobian_rows,
    propagate_poses,
    rotation_error_deg,
    svd,
)
from .measurement import AnchorSet, MeasurementSet, NoiseModel

_RANK_RCOND = 1e-10
_EYE3 = np.eye(3)


def estimate_twist(
    anchors: AnchorSet,
    conf: Conformation,
    pose: Pose,
    range_rates,
    mask=None,
    weights=None,
) -> tuple[Twist, float]:
    """Weighted least-squares twist from range rates at a known pose.

    Returns (twist, residual_rms). Raises UnobservableTwistError when the
    6-column regressor is rank deficient, carrying an orthonormal basis of
    the unobservable (angular, linear) directions.
    """
    rates = np.asarray(range_rates, dtype=float)
    finite = np.isfinite(rates)
    jj, kk = np.nonzero(finite if mask is None else np.asarray(mask, dtype=bool) & finite)
    if jj.size < 6:
        raise UnderdeterminedError(f"twist has 6 degrees of freedom; got {jj.size} rates")
    nodes, rot = conf.nodes, pose.rotation
    delta, dist = link_offsets(nodes, kk, anchors.anchors.take(jj, axis=0), rot, pose.translation)
    rows = pose_jacobian_rows(nodes.take(kk, axis=0) @ rot.T, delta / dist[:, None], _EYE3)
    obs = rates[jj, kk]
    if weights is not None:
        w = np.sqrt(np.asarray(weights, dtype=float)[jj, kk])
        rows = rows * w[:, None]
        obs = obs * w
    u, sv, vt = svd(rows)
    cutoff = _RANK_RCOND * max(sv.item(0), 1e-300)
    if sv.item(-1) <= cutoff:  # the singular values fall, so the last is the smallest
        raise UnobservableTwistError(vt[sv <= cutoff].T)
    solution = vt.T @ ((u.T @ obs) / sv)  # the least-squares solution, from the same SVD
    residual = rows @ solution - obs
    twist = Twist(solution[:3], solution[3:])
    return twist, math.sqrt(np.add.reduce(residual * residual) / residual.size)  # np.mean's sum / n


@dataclass(frozen=True)
class MeasurementFrame:
    """One tracking input frame: a timestamp and its measurement set."""

    timestamp: float
    measurements: MeasurementSet

    def __post_init__(self):
        timestamp = exact(float, self.timestamp)
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite, got {timestamp}")
        object.__setattr__(self, "timestamp", timestamp)

    def to_json_dict(self) -> dict:
        return {"timestamp": self.timestamp, "measurements": self.measurements.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementFrame":
        timestamp, measurements = entries(doc, "timestamp", "measurements")
        return cls(timestamp, MeasurementSet.from_json_dict(measurements))


@dataclass(frozen=True)
class TrackFrame:
    """Per-frame tracking output; `error` is set when estimation failed.
    twist_residual_rms is the RMS range-rate misfit of the twist (m/s)."""

    timestamp: float
    pose_estimate: PoseEstimate | None
    twist_estimate: Twist | None
    twist_residual_rms: float = float("nan")
    error: str | None = None


@dataclass(frozen=True)
class TrackConfig:
    """Tracking options: which pose estimator runs per frame and the noise
    model that weights its pose solve. The mds estimator completes masked EDMs."""

    estimator: str = "nls"
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_TAGS:
            raise ConfigError(f"unknown estimator {self.estimator!r}", field="estimator")


def track_sequence(
    anchors: AnchorSet,
    conf: Conformation,
    frames,
    config: TrackConfig = TrackConfig(),
) -> list[TrackFrame]:
    """Run the two-stage pose+twist pipeline over a frame sequence.

    Frames are processed independently except for the warm start: each
    frame's pose solve is initialized from the previous estimate propagated
    by its twist over the elapsed time. Per-frame estimation failures
    (RblError, LinAlgError) are recorded in the output and the sequence
    continues; any other exception propagates.
    """
    frames = list(frames)
    stamps = [f.timestamp for f in frames]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("frame timestamps must be strictly increasing")
    out: list[TrackFrame] = []
    prev_pose: Pose | None = None
    prev_twist: Twist | None = None
    prev_time = 0.0
    for frame in frames:
        meas = frame.measurements
        try:
            init = None
            if prev_pose is not None:
                rot, trans = propagate_poses(prev_pose, prev_twist, [frame.timestamp - prev_time])
                init = Pose(rot[0], trans[0])  # the pose propagate_state returns
            if config.estimator == "nls":
                pose_est = estimate_pose_nls(meas, anchors, conf, init=init, noise=config.noise)
            elif config.estimator == "gabp":
                pose_est = estimate_pose_gabp(meas, anchors, conf, noise=config.noise)
            else:
                pose_est, _ = mds_from_ranges(meas, anchors, conf)
            # Unweighted, so the residual reads in m/s (one shared level would not move the fit).
            twist, residual = estimate_twist(
                anchors, conf, pose_est.pose, meas.range_rates, mask=meas.mask
            )
            out.append(TrackFrame(frame.timestamp, pose_est, twist, residual))
            prev_pose, prev_twist, prev_time = pose_est.pose, twist, frame.timestamp
        except (RblError, np.linalg.LinAlgError) as exc:
            out.append(
                TrackFrame(frame.timestamp, None, None, float("nan"), f"{type(exc).__name__}: {exc}")
            )
    return out


def track_to_csv(track: list[TrackFrame], truth=None) -> str:
    """CSV rows per frame: time, errors against truth when given, residuals.

    `truth` is an optional list of (Pose, Twist) ground-truth pairs aligned
    with the track.
    """
    header = (
        "timestamp,rotation_error_deg,translation_error_m,"
        "angular_error_rad_s,linear_error_m_s,twist_residual_rms,estimator_converged,error"
    )
    lines = [header]
    for i, frame in enumerate(track):
        rot_err = trans_err = ang_err = lin_err = float("nan")
        if truth is not None and frame.pose_estimate is not None:
            true_pose, true_twist = truth[i]
            rot_err = rotation_error_deg(frame.pose_estimate.pose.rotation, true_pose.rotation)
            trans_err = float(
                np.linalg.norm(frame.pose_estimate.pose.translation - true_pose.translation)
            )
            if true_twist is not None and frame.twist_estimate is not None:
                ang_err = float(
                    np.linalg.norm(frame.twist_estimate.angular - true_twist.angular)
                )
                lin_err = float(np.linalg.norm(frame.twist_estimate.linear - true_twist.linear))
        converged = "" if frame.pose_estimate is None else str(frame.pose_estimate.converged)
        lines.append(
            f"{frame.timestamp:.12g},{rot_err:.12g},{trans_err:.12g},"
            f"{ang_err:.12g},{lin_err:.12g},{frame.twist_residual_rms:.12g},"
            f"{converged},{frame.error or ''}"
        )
    return "\n".join(lines) + "\n"
