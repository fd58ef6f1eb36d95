"""Rigid body localization and tracking toolkit.

Simulates wireless range/angle/range-rate measurements between anchors and
multi-node rigid bodies, estimates 6D pose and velocity via algebraic,
iterative least-squares, and message-passing methods, completes partially
observed distance matrices, and benchmarks everything against Cramer-Rao
lower bounds.
"""

from .bounds import (
    CrlbReport,
    PlacementScore,
    crlb_sweep,
    fim_ranges,
    frame_potential,
    placement_score,
)
from .completion import CompletionReport, complete_edm, zero_imputed
from .estimators import (
    PoseEstimate,
    SemanticHeading,
    estimate_pose_gabp,
    estimate_pose_mds,
    estimate_pose_nls,
    mds_from_ranges,
    procrustes,
    semantic_error,
    semantic_transform,
)
from .geometry import (
    Conformation,
    Pose,
    RigidBodyState,
    Twist,
    apply_pose,
    node_velocities,
    propagate_state,
    rotation_error_deg,
    so3_exp,
    so3_log,
)
from .harness import (
    BlockageSpec,
    ExperimentConfig,
    PoseDistribution,
    ResultRow,
    ScenarioConfig,
    derive_seed,
    draw_trial,
    generate_trajectory,
    load_experiment,
    load_scenario,
    preset,
    rows_to_csv,
    run_benchmark,
    run_scenario_once,
)
from .measurement import (
    AnchorSet,
    Edm,
    MeasurementSet,
    NoiseModel,
    apply_blockage,
    assemble_edm,
    simulate_measurements,
)
from .tracking import (
    MeasurementFrame,
    TrackConfig,
    TrackFrame,
    estimate_twist,
    track_sequence,
)

__version__ = "0.1.0"
