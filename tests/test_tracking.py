from dataclasses import replace

import numpy as np
import pytest
from conftest import cube_anchors, random_pose, unit_cube

import rblkit.tracking
from rblkit.errors import ConfigError, UnderdeterminedError, UnobservableTwistError
from rblkit.estimators import estimate_pose_nls
from rblkit.geometry import (
    Pose,
    RigidBodyState,
    Twist,
    propagate_state,
    random_rotation,
    rotation_error_deg,
)
from rblkit.harness import BlockageSpec, generate_trajectory, preset
from rblkit.measurement import MeasurementSet, NoiseModel, simulate_measurements
from rblkit.tracking import (
    MeasurementFrame,
    TrackConfig,
    TrackFrame,
    estimate_twist,
    track_sequence,
    track_to_csv,
)

KINDS = ("range", "range_rate")


def make_trajectory(twist, n_frames=10, dt=0.1, sigma=0.0, rate_sigma=0.0, seed=0, pose=None):
    """Ground-truth states and measurement frames under a constant twist."""
    conf, anchors = unit_cube(), cube_anchors()
    pose = pose or Pose.identity()
    state = RigidBodyState(conf, pose, twist)
    frames, truth = [], []
    for i in range(n_frames):
        t = (i + 1) * dt
        current = propagate_state(state, t)
        noise = NoiseModel(range_sigma=sigma, range_rate_sigma=rate_sigma, seed=seed + i)
        meas = simulate_measurements(anchors, current, noise, KINDS)
        frames.append(MeasurementFrame(t, meas))
        truth.append((current.pose, twist))
    return conf, anchors, frames, truth


class TestEstimateTwist:
    def test_zero_rates_zero_twist(self):
        conf, anchors = unit_cube(), cube_anchors()
        rates = np.zeros((8, 8))
        twist, residual = estimate_twist(anchors, conf, Pose.identity(), rates)
        assert np.allclose(twist.angular, 0.0, atol=1e-12)
        assert np.allclose(twist.linear, 0.0, atol=1e-12)
        assert residual < 1e-12

    def test_synthetic_twist_exact_recovery(self):
        rng = np.random.default_rng(2)
        conf, anchors = unit_cube(), cube_anchors()
        for _ in range(10):
            pose = random_pose(rng)
            twist = Twist(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
            state = RigidBodyState(conf, pose, twist)
            meas = simulate_measurements(anchors, state, NoiseModel(), KINDS)
            got, residual = estimate_twist(anchors, conf, pose, meas.range_rates)
            assert np.abs(got.angular - twist.angular).max() < 1e-8
            assert np.abs(got.linear - twist.linear).max() < 1e-8
            assert residual < 1e-10

    def test_single_node_unobservable_with_null_space(self):
        rng = np.random.default_rng(3)
        conf, anchors = unit_cube(), cube_anchors()
        pose = random_pose(rng)
        state = RigidBodyState(conf, pose, Twist.zero())
        meas = simulate_measurements(anchors, state, NoiseModel(), KINDS)
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, 5] = True
        with pytest.raises(UnobservableTwistError) as exc:
            estimate_twist(anchors, conf, pose, meas.range_rates, mask=mask)
        null = exc.value.null_space
        assert null.shape[0] == 6 and null.shape[1] >= 1
        # Rotation about the node's lever arm (with zero linear part) is in
        # the unobservable subspace.
        lever = pose.rotation @ conf.nodes[5]
        direction = np.concatenate([lever / np.linalg.norm(lever), np.zeros(3)])
        projected = null @ (null.T @ direction)
        assert np.linalg.norm(projected - direction) < 1e-6

    def test_too_few_rates_raises(self):
        conf, anchors = unit_cube(), cube_anchors()
        rates = np.full((8, 8), np.nan)
        rates[0, :5] = 0.0
        with pytest.raises(UnderdeterminedError):
            estimate_twist(anchors, conf, Pose.identity(), rates)

    def test_equivariance_under_world_rotation(self):
        rng = np.random.default_rng(5)
        conf, anchors = unit_cube(), cube_anchors()
        w = random_rotation(rng)
        pose = random_pose(rng)
        twist = Twist(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        state = RigidBodyState(conf, pose, twist)
        meas = simulate_measurements(anchors, state, NoiseModel(), KINDS)
        base, _ = estimate_twist(anchors, conf, pose, meas.range_rates)

        from rblkit.measurement import AnchorSet

        rot_pose = Pose(w @ pose.rotation, w @ pose.translation)
        rot_twist = Twist(w @ twist.angular, w @ twist.linear)
        rot_state = RigidBodyState(conf, rot_pose, rot_twist)
        rot_anchors = AnchorSet(anchors.anchors @ w.T)
        rot_meas = simulate_measurements(rot_anchors, rot_state, NoiseModel(), KINDS)
        rotated, _ = estimate_twist(rot_anchors, conf, rot_pose, rot_meas.range_rates)
        assert np.abs(rotated.angular - w @ base.angular).max() < 1e-8
        assert np.abs(rotated.linear - w @ base.linear).max() < 1e-8


class TestTrackSequence:
    def test_stationary_body_identical_frames(self):
        conf, anchors, frames, truth = make_trajectory(Twist.zero(), n_frames=10)
        track = track_sequence(anchors, conf, frames)
        assert all(f.error is None for f in track)
        poses = [f.pose_estimate.pose for f in track]
        for pose in poses:
            assert rotation_error_deg(pose.rotation, poses[0].rotation) < 1e-9
            assert np.abs(pose.translation - poses[0].translation).max() < 1e-9
        for f in track:
            assert np.abs(f.twist_estimate.angular).max() < 1e-9
            assert np.abs(f.twist_estimate.linear).max() < 1e-9

    def test_constant_twist_recovery(self):
        twist = Twist([0.0, 0.0, 0.1], [1.0, 0.0, 0.0])
        conf, anchors, frames, truth = make_trajectory(twist, n_frames=10, dt=0.1)
        track = track_sequence(anchors, conf, frames)
        for frame, (true_pose, true_twist) in zip(track, truth):
            assert frame.error is None
            assert rotation_error_deg(frame.pose_estimate.pose.rotation, true_pose.rotation) < 1e-6
            assert (
                np.linalg.norm(frame.pose_estimate.pose.translation - true_pose.translation)
                < 1e-6
            )
            assert np.abs(frame.twist_estimate.angular - true_twist.angular).max() < 1e-7
            assert np.abs(frame.twist_estimate.linear - true_twist.linear).max() < 1e-7

    def test_warm_start_reduces_iterations(self):
        # Frames carry ranges, bearings, and range rates. The propagated init
        # inherits the previous solve's bearing information, which the
        # per-frame range-only MDS fallback init cannot use; on range-only
        # frames the fallback init actually starts closer to that frame's
        # noise-shaped minimum and the comparison flips.
        conf, anchors = unit_cube(), cube_anchors()
        twist = Twist([0.0, 0.0, 0.4], [0.08, 0.0, 0.0])
        state0 = RigidBodyState(conf, Pose.identity(), twist)
        noise = NoiseModel(
            range_sigma=0.3, angle_sigma=np.radians(1.0), range_rate_sigma=0.02
        )
        frames = []
        for i in range(100):
            t = (i + 1) * 0.1
            current = propagate_state(state0, t)
            per_frame = NoiseModel(
                range_sigma=noise.range_sigma,
                angle_sigma=noise.angle_sigma,
                range_rate_sigma=noise.range_rate_sigma,
                seed=500 + i,
            )
            frames.append(
                MeasurementFrame(
                    t,
                    simulate_measurements(
                        anchors, current, per_frame, ("range", "aoa", "range_rate")
                    ),
                )
            )
        warm = track_sequence(anchors, conf, frames, TrackConfig(noise=noise))
        warm_iters = [f.pose_estimate.iterations for f in warm[1:] if f.error is None]

        from rblkit.estimators import estimate_pose_nls

        cold_iters = [
            estimate_pose_nls(f.measurements, anchors, conf, noise=noise).iterations
            for f in frames[1:]
        ]
        assert np.mean(warm_iters) <= np.mean(cold_iters)

    def test_failed_frame_recorded_not_raised(self):
        twist = Twist.zero()
        conf, anchors, frames, _ = make_trajectory(twist, n_frames=3)
        broken = frames[1].measurements
        ranges = broken.ranges.copy()
        mask = np.zeros_like(broken.mask)
        mask[0, :3] = True
        frames[1] = MeasurementFrame(
            frames[1].timestamp,
            MeasurementSet(mask=mask, ranges=ranges, range_rates=broken.range_rates),
        )
        track = track_sequence(anchors, conf, frames)
        assert track[0].error is None
        assert track[1].error is not None and track[1].pose_estimate is None
        assert track[2].error is None

    def test_frames_without_ranges_recorded_not_raised(self):
        conf, anchors, frames, _ = make_trajectory(Twist.zero(), n_frames=2)
        rates_only = [
            MeasurementFrame(
                f.timestamp,
                MeasurementSet(mask=f.measurements.mask, range_rates=f.measurements.range_rates),
            )
            for f in frames
        ]
        for tag in ("mds", "nls", "gabp"):
            track = track_sequence(anchors, conf, rates_only, TrackConfig(estimator=tag))
            assert all(f.error.startswith("UnderdeterminedError") for f in track)

    def test_twist_residual_in_rate_units(self):
        # One noise level for every rate leaves the twist fit unchanged, so
        # its residual reads in m/s with or without a noise model.
        conf, anchors, frames, _ = make_trajectory(
            Twist([0, 0, 0.2], [0.3, 0, 0]), n_frames=3, sigma=0.01, rate_sigma=0.01
        )
        plain = track_sequence(anchors, conf, frames, TrackConfig("nls"))
        config = TrackConfig("nls", noise=NoiseModel(range_rate_sigma=0.01))
        noisy = track_sequence(anchors, conf, frames, config)
        assert [f.twist_residual_rms for f in noisy] == [f.twist_residual_rms for f in plain]
        assert all(f.twist_residual_rms < 0.05 for f in noisy)

    def test_unknown_estimator_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="estimator"):
            TrackConfig(estimator="kalman")

    def test_programming_error_propagates(self, monkeypatch):
        conf, anchors, frames, _ = make_trajectory(Twist.zero(), n_frames=2)

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(rblkit.tracking, "estimate_pose_nls", broken)
        with pytest.raises(TypeError, match="injected"):
            track_sequence(anchors, conf, frames)

    def test_timestamps_must_increase(self):
        conf, anchors, frames, _ = make_trajectory(Twist.zero(), n_frames=3)
        frames[2] = MeasurementFrame(frames[0].timestamp, frames[2].measurements)
        with pytest.raises(ValueError):
            track_sequence(anchors, conf, frames)

    def test_mds_and_gabp_estimators_track(self):
        twist = Twist([0, 0, 0.1], [0.5, 0, 0.0])
        conf, anchors, frames, truth = make_trajectory(twist, n_frames=4, dt=0.1)
        for tag in ("mds", "gabp"):
            track = track_sequence(anchors, conf, frames, TrackConfig(estimator=tag))
            for frame, (true_pose, _) in zip(track, truth):
                assert frame.error is None
                assert (
                    np.linalg.norm(frame.pose_estimate.pose.translation - true_pose.translation)
                    < 1e-6
                )

    def test_csv_output(self):
        twist = Twist([0, 0, 0.1], [1, 0, 0.0])
        conf, anchors, frames, truth = make_trajectory(twist, n_frames=3)
        track = track_sequence(anchors, conf, frames)
        text = track_to_csv(track, truth)
        lines = text.strip().split("\n")
        assert lines[0].startswith("timestamp,rotation_error_deg")
        assert len(lines) == 4

    def test_frame_json_round_trip(self):
        conf, anchors, frames, _ = make_trajectory(Twist.zero(), n_frames=2)
        doc = frames[0].to_json_dict()
        back = MeasurementFrame.from_json_dict(doc)
        assert back.timestamp == frames[0].timestamp
        assert np.array_equal(back.measurements.ranges, frames[0].measurements.ranges)


GOLDEN_TRACK = (
    "timestamp,rotation_error_deg,translation_error_m,"
    "angular_error_rad_s,linear_error_m_s,twist_residual_rms,estimator_converged,error\n"
    "0.05,0.538545281849,0.00228991858439,0.00947729303125,0.00189956384012,0.00854237406614,True,\n"
    "0.1,0.273481546529,0.00438191753953,0.0106769540572,0.00180356911764,0.00844484975997,True,\n"
    "0.15,0.252939761938,0.00139222635534,0.00752820861847,0.00434776856638,0.00763132565243,True,\n"
    "0.2,0.227153181608,0.00148707917806,0.00627536595538,0.00263199146306,0.0073219108465,True,\n"
    "0.25,0.629850201344,0.0031087985117,0.00473451425084,0.00604367485826,0.00830661967357,True,\n"
    "0.3,0.419124256839,0.00452717012109,0.00612980592048,0.00496030685623,0.00929764546448,True,\n"
    "0.35,0.154881599459,0.00494854666141,0.0049297064751,0.00278722359541,0.00799673240627,True,\n"
    "0.4,0.212072871264,0.00168819856454,0.00665998920085,0.00251158027625,0.0096599841173,True,\n"
    "0.45,0.206758524823,0.00309788275769,0.00678105277104,0.00500354949338,0.0103505760686,True,\n"
    "0.5,0.208450414375,0.00477509034273,0.00322043967089,0.0010007678818,0.00901231822563,True,\n"
    "0.55,0.508958429791,0.00268499049408,0.00580487842012,0.0017181668756,0.00958152646242,True,\n"
    "0.6,0.347249317333,0.00325439435245,0.00701221067054,0.00637614116971,0.00747433246557,True,\n"
    "0.65,0.249765303746,0.00378971230114,0.00607902606826,0.00414781908887,0.00884938625991,True,\n"
    "0.7,0.200862206875,0.00592063530747,0.00991720171417,0.00430738064177,0.00845249528632,True,\n"
    "0.75,0.263433850719,0.00280311408839,0.00449145431128,0.00529089769035,0.00837779460068,True,\n"
    "0.8,0.417199748369,0.00748874562831,0.00729705328616,0.00149472210186,0.0101689721348,True,\n"
    "0.85,0.371580863498,0.00268020501721,0.00205783040889,0.00437895651765,0.00897917221159,True,\n"
    "0.9,0.276490637747,0.005188259414,0.0104763308643,0.00435141624495,0.00956180201593,True,\n"
    "0.95,0.277521527611,0.00143826468766,0.00797171801254,0.00261730496083,0.00963730934784,True,\n"
    "1,0.150826596512,0.00230588985421,0.00147928988317,0.00220887821592,0.00958822010134,True,\n"
)


def bits(value):
    """A key that is equal only for bit-identical outputs."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if hasattr(value, "__dataclass_fields__"):
        fields = value.__dataclass_fields__
        return (type(value).__name__,) + tuple(bits(getattr(value, f)) for f in fields)
    return value


def test_track_equals_its_public_single_frame_calls():
    # track_sequence at B = 1 is the public single-problem calls, frame by frame: NLS from the
    # previous estimate propagated by its twist (noise=None), then the unweighted twist fit.
    # Frame 7 observes too few links, fails, and the next frame starts from frame 6.
    scenario, _ = preset("fig4")
    scenario = replace(
        scenario,
        blockage=BlockageSpec(kind="hull"),
        measurement_kinds=("range", "range_rate"),
        noise=NoiseModel(range_rate_sigma=0.01),
    )
    anchors, conf = scenario.anchors, scenario.conformation
    twist = Twist([0.4, -0.1, 0.3], [0.03, 0.04, -0.05])
    frames, _ = generate_trajectory(scenario, twist, 20, 0.05, 0.01, 8)
    blocked = frames[7].measurements
    few = np.zeros_like(blocked.mask)
    few[0, :2] = True
    frames[7] = MeasurementFrame(
        frames[7].timestamp, MeasurementSet(few, blocked.ranges, range_rates=blocked.range_rates)
    )
    expected, prev = [], None
    for frame in frames:
        meas = frame.measurements
        init = None if prev is None else propagate_state(
            RigidBodyState(conf, prev.pose_estimate.pose, prev.twist_estimate),
            frame.timestamp - prev.timestamp,
        ).pose
        try:
            pose_est = estimate_pose_nls(meas, anchors, conf, init=init, noise=None)
            rate_fit = estimate_twist(
                anchors, conf, pose_est.pose, meas.range_rates, mask=meas.mask
            )
        except UnderdeterminedError as exc:
            failed = f"UnderdeterminedError: {exc}"
            expected.append(TrackFrame(frame.timestamp, None, None, error=failed))
            continue
        prev = TrackFrame(frame.timestamp, pose_est, *rate_fit)
        expected.append(prev)
    track = track_sequence(anchors, conf, frames, TrackConfig("nls"))
    assert [f.error is None for f in track] == [i != 7 for i in range(20)]
    assert [bits(f) for f in track] == [bits(f) for f in expected]


def test_golden_track_csv():
    # Frozen output of the tracker: the fig4 body under hull self-occlusion,
    # ranges and range rates, 20 warm-started NLS frames. Any change to the
    # pose kernel's arithmetic, the twist fit or the frame loop shows up here.
    scenario, _ = preset("fig4")
    scenario = replace(
        scenario,
        blockage=BlockageSpec(kind="hull"),
        measurement_kinds=("range", "range_rate"),
        noise=NoiseModel(range_rate_sigma=0.01),
    )
    twist = Twist([0.3, -0.2, 0.4], [0.05, -0.03, 0.02])
    frames, truth = generate_trajectory(scenario, twist, 20, 0.05, 0.01, 31)
    track = track_sequence(scenario.anchors, scenario.conformation, frames, TrackConfig("nls"))
    assert track_to_csv(track, truth) == GOLDEN_TRACK
