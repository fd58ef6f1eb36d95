"""Scenario and experiment configuration, deterministic Monte Carlo
benchmark sweeps, and single-trial traces.

Per-trial seeds derive from the master seed and the (sigma index, trial
index) pair through splitmix64, so a sweep produces the same streams
whether trials run serially or are farmed out, and every estimator inside
a trial sees the same measurement draw (paired comparisons).
"""

from __future__ import annotations

import importlib.resources
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bounds import CrlbBatch, CrlbReport, fim_batch
from .completion import CompletionReport
from .errors import ConfigError, CoverageWarning, RangeClampWarning
from .estimators import (
    ESTIMATOR_TAGS,
    ChainBatch,
    PoseBatch,
    PoseEstimate,
    chain_batch,
    gabp_batch,
    nls_batch,
    nls_weights,
)
from .geometry import (
    Conformation,
    Pose,
    Twist,
    haar_rotations,
    load_points,
    propagate_poses,
    rotation_error_deg,
    so3_exp,
    transform_points,
    twist_velocities,
)
from .measurement import (
    AnchorSet,
    BernoulliBlockage,
    ConvexHullBlockage,
    MeasurementSet,
    NoiseModel,
    assemble_edm,
    blockage_batch,
    simulate_batch,
)
from .tracking import MeasurementFrame

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Fold indices into the master seed, one splitmix64 step per index."""
    seed = splitmix64(master & _MASK64)
    for ix in indices:
        seed = splitmix64(seed ^ ((int(ix) + 0x9E3779B9) & _MASK64))
    return seed


@dataclass(frozen=True)
class PoseDistribution:
    """Random pose prior: a rotation law plus a uniform translation box.

    rotation is one of "uniform" (Haar on SO(3)), "yaw" (uniform heading
    about +z), or "none" (identity).
    """

    rotation: str = "uniform"
    translation_low: tuple[float, float, float] = (-0.5, -0.5, -0.5)
    translation_high: tuple[float, float, float] = (0.5, 0.5, 0.5)

    def __post_init__(self):
        if self.rotation not in ("uniform", "yaw", "none"):
            raise ConfigError(
                f"rotation must be uniform|yaw|none, got {self.rotation!r}",
                field="pose_distribution.rotation",
            )
        lo, hi = np.asarray(self.translation_low), np.asarray(self.translation_high)
        if lo.shape != (3,) or hi.shape != (3,) or np.any(hi < lo):
            raise ConfigError(
                "translation box needs low <= high, three components each",
                field="pose_distribution.translation_box",
            )

    def sample(self, rng: np.random.Generator) -> Pose:
        rot, trans = self.sample_batch([rng])
        return Pose(rot[0], trans[0])

    def sample_batch(self, rngs) -> tuple[np.ndarray, np.ndarray]:
        """One pose per generator, as (B, 3, 3) rotations and (B, 3) translations."""
        draws, trans = [], []
        for rng in rngs:
            if self.rotation == "uniform":
                draws.append(rng.standard_normal(4))
            elif self.rotation == "yaw":
                draws.append([0.0, 0.0, rng.uniform(-np.pi, np.pi)])
            trans.append(rng.uniform(self.translation_low, self.translation_high))
        if self.rotation == "uniform":
            rot = haar_rotations(np.array(draws))
        elif self.rotation == "yaw":
            rot = so3_exp(np.array(draws))
        else:
            rot = np.tile(np.eye(3), (len(trans), 1, 1))
        return rot, np.array(trans)


@dataclass(frozen=True)
class BlockageSpec:
    """Which blockage policy a sweep applies, rebuilt per trial.

    kind "bernoulli" drops links independently with probability p; "hull"
    applies convex-hull self-occlusion with the given margin; "none" keeps
    every link.
    """

    kind: str = "none"
    p: float = 0.0
    margin: float = 1e-9

    def __post_init__(self):
        if self.kind not in ("none", "bernoulli", "hull"):
            raise ConfigError(
                f"kind must be none|bernoulli|hull, got {self.kind!r}", field="blockage.kind"
            )
        if self.kind == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}", field="blockage.p")

    def policy(self, seed: int, anchors: AnchorSet, world_nodes):
        if self.kind == "bernoulli":
            return BernoulliBlockage(self.p, seed=seed)
        if self.kind == "hull":
            return ConvexHullBlockage(anchors, world_nodes, margin=self.margin)
        return None


@dataclass(frozen=True)
class ScenarioConfig:
    """A full simulation scenario.

    Exactly one of `pose` (fixed) or `pose_distribution` must be set.
    """

    conformation: Conformation
    anchors: AnchorSet
    noise: NoiseModel = NoiseModel()
    pose: Pose | None = None
    pose_distribution: PoseDistribution | None = None
    blockage: BlockageSpec = BlockageSpec()
    measurement_kinds: tuple[str, ...] = ("range",)

    def __post_init__(self):
        if (self.pose is None) == (self.pose_distribution is None):
            raise ConfigError(
                "exactly one of pose and pose_distribution must be set", field="pose"
            )
        if "range" not in self.measurement_kinds:
            raise ConfigError(
                "range measurements are required by the estimators",
                field="measurements",
            )

    def sample_pose(self, rng: np.random.Generator) -> Pose:
        return self.pose if self.pose is not None else self.pose_distribution.sample(rng)

    def sample_poses(self, rngs) -> tuple[np.ndarray, np.ndarray]:
        """sample_pose for each generator, as (B, 3, 3) and (B, 3) stacks."""
        if self.pose is None:
            return self.pose_distribution.sample_batch(rngs)
        n = len(rngs)
        return np.tile(self.pose.rotation, (n, 1, 1)), np.tile(self.pose.translation, (n, 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep shape: noise grid, trials per point, seed, and estimator list."""

    sigma_grid: tuple[float, ...]
    trials: int = 100
    master_seed: int = 1234
    estimators: tuple[str, ...] = ("mds", "nls", "gabp")
    completion: bool = True

    def __post_init__(self):
        if len(self.sigma_grid) == 0 or any(s <= 0 for s in self.sigma_grid):
            raise ConfigError("sigma grid must be nonempty and positive", field="sigma_grid")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1", field="trials")
        unknown = set(self.estimators) - set(ESTIMATOR_TAGS)
        if unknown:
            raise ConfigError(f"unknown estimators {sorted(unknown)}", field="estimators")


@dataclass(frozen=True)
class ResultRow:
    """One benchmark cell: RMSE and CRLB columns for (sigma, estimator)."""

    sigma: float
    estimator: str
    rmse_translation_m: float
    rmse_rotation_deg: float
    crlb_translation_m: float
    crlb_rotation_deg: float
    trials: int
    failures: int


CSV_HEADER = (
    "sigma,estimator,rmse_translation_m,rmse_rotation_deg,"
    "crlb_translation_m,crlb_rotation_deg,trials,failures"
)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.sigma:.12g},{r.estimator},{r.rmse_translation_m:.12g},"
            f"{r.rmse_rotation_deg:.12g},{r.crlb_translation_m:.12g},"
            f"{r.crlb_rotation_deg:.12g},{r.trials},{r.failures}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> list[dict]:
    return [asdict(r) for r in rows]


@dataclass(frozen=True)
class TrialOutcome:
    """One estimator's result on one trial draw; `failure` says why no
    estimate was scored (an estimator error or a missed convergence)."""

    truth: Pose
    measurements: MeasurementSet
    crlb: CrlbReport
    estimate: PoseEstimate | None
    completion: CompletionReport | None
    failure: str | None
    rotation_error_deg: float
    translation_error_m: float


def _noise(scenario: ScenarioConfig, sigma: float, seed: int) -> NoiseModel:
    return NoiseModel(
        range_sigma=sigma,
        angle_sigma=scenario.noise.angle_sigma,
        range_rate_sigma=scenario.noise.range_rate_sigma,
        seed=seed,
    )


def _observe(scenario, rot, trans, twist, noises, kinds, blockage_seeds):
    """Simulate the measurements of the scenario's body at B poses (rot,
    trans), each with its own noise model and blockage seed, and apply the
    scenario's blockage; range-clamp and coverage warnings are silenced.
    Returns the (B, A, K) mask and the ranges, aoa and range rates (None
    when not simulated), NaN where unobserved."""
    anchors, nodes = scenario.anchors, scenario.conformation.nodes
    world = transform_points(nodes, rot, trans)
    velocities = twist_velocities(nodes, rot, twist) if "range_rate" in kinds else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RangeClampWarning)
        warnings.simplefilter("ignore", CoverageWarning)
        observed = simulate_batch(anchors.anchors, world, noises, kinds, velocities)
        policies = [scenario.blockage.policy(s, anchors, w) for s, w in zip(blockage_seeds, world)]
        full = np.ones((len(world), anchors.num_anchors, len(nodes)), dtype=bool)
        mask = blockage_batch(full, policies)
    grids = []
    for m in observed:  # aoa has a trailing (azimuth, elevation) axis
        keep = None if m is None else mask.reshape(m.shape[:3] + (1,) * (m.ndim - 3))
        grids.append(None if m is None else np.where(keep, m, np.nan))
    return (mask, *grids)


def _draw(scenario: ScenarioConfig, sigmas, seeds):
    """The seeded draws of B trials: true rotations (B, 3, 3) and
    translations (B, 3), and _observe's measurement stacks."""
    rot, trans = scenario.sample_poses([np.random.default_rng(derive_seed(s, 1)) for s in seeds])
    # Static draws have no motion; rates are simulated about zero velocity.
    kinds = scenario.measurement_kinds
    twist = Twist.zero() if "range_rate" in kinds else None
    noises = [_noise(scenario, sigma, derive_seed(seed, 2)) for sigma, seed in zip(sigmas, seeds)]
    blockage_seeds = [derive_seed(seed, 3) for seed in seeds]
    return rot, trans, _observe(scenario, rot, trans, twist, noises, kinds, blockage_seeds)


def _measurement_set(observed, i: int) -> MeasurementSet:
    mask, ranges, aoa, rates = observed
    return MeasurementSet(mask[i], *(None if m is None else m[i] for m in (ranges, aoa, rates)))


def draw_trial(scenario: ScenarioConfig, sigma: float, seed: int) -> tuple[Pose, MeasurementSet]:
    """The seeded draw of one trial: a true pose and its measurements."""
    rot, trans, observed = _draw(scenario, [sigma], [seed])
    return Pose(rot[0], trans[0]), _measurement_set(observed, 0)


# Trials per stacked batch in run_benchmark: large enough that per-call numpy
# overhead is shared, small enough to keep peak memory near that of one
# trial at a time (full fig5 preset: 1.28x at 128 trials, 1.54x at 256).
TRIAL_CHUNK = 128


@dataclass(frozen=True)
class _Trials:
    """B seeded trials through every stage at once: the draws, the bounds,
    each estimator's PoseBatch and the shared MDS chain, with each tag's
    failure strings and scored errors (NaN where failed)."""

    tags: tuple[str, ...]
    truth: tuple[np.ndarray, np.ndarray]
    observed: tuple
    crlb: CrlbBatch
    chain: ChainBatch | None
    estimates: dict[str, PoseBatch]
    failures: dict[str, list]
    rotation_errors: dict[str, np.ndarray]
    translation_errors: dict[str, np.ndarray]

    def outcomes(self, i: int) -> list[TrialOutcome]:
        """Trial i as run_trial_estimators reports it."""
        truth = Pose(self.truth[0][i], self.truth[1][i])
        meas = _measurement_set(self.observed, i)
        crlb = self.crlb.report(i)
        out = []
        for tag in self.tags:
            batch = self.estimates[tag]
            estimate = None if batch.errors[i] is not None else batch.estimate(i)
            report = None
            if tag != "gabp" and estimate is not None:
                report = self.chain.report(i)
            out.append(TrialOutcome(
                truth, meas, crlb, estimate, report, self.failures[tag][i],
                float(self.rotation_errors[tag][i]), float(self.translation_errors[tag][i]),
            ))
        return out


def _run_trials(scenario: ScenarioConfig, sigmas, seeds, estimators, completion: bool) -> _Trials:
    """The trials of the (sigma, seed) pairs, all stages stacked.

    The draw and the CRLB are shared by every tag, and `mds` and `nls`
    share one EDM -> completion -> MDS result (NLS starts from that MDS
    pose); when that chain fails, both tags record the failure. Each
    trial's numbers are the ones it gets alone.
    """
    anchors, nodes = scenario.anchors.anchors, scenario.conformation.nodes
    sigmas = np.asarray(sigmas, dtype=float)
    rot, trans, observed = _draw(scenario, sigmas, seeds)
    mask, ranges, aoa, _ = observed
    crlb = fim_batch(anchors, nodes, rot, trans, mask, sigmas)
    chain = None
    if {"mds", "nls"} & set(estimators):
        chain = chain_batch(anchors, nodes, ranges, mask, completion)
    estimates, failures, rot_err, trans_err = {}, {}, {}, {}
    for tag in estimators:
        if tag == "gabp":
            batch = gabp_batch(anchors, nodes, mask, ranges, sigmas)
        elif tag == "mds":
            batch = chain.mds
        else:
            w_range, w_angle = nls_weights(sigmas, scenario.noise.angle_sigma)
            start = (chain.mds.rotation, chain.mds.translation, chain.mds.errors)
            batch = nls_batch(anchors, nodes, mask, ranges, aoa, w_range, w_angle, start)
        estimates[tag] = batch
        failures[tag] = [batch.failure(i) for i in range(len(sigmas))]
        scored = np.flatnonzero([f is None for f in failures[tag]])
        rot_err[tag], trans_err[tag] = np.full(len(sigmas), np.nan), np.full(len(sigmas), np.nan)
        rot_err[tag][scored] = rotation_error_deg(batch.rotation[scored], rot[scored])
        offset = batch.translation[scored] - trans[scored]
        trans_err[tag][scored] = np.sqrt(np.vecdot(offset, offset))  # np.linalg.norm of each
    truth, tags = (rot, trans), tuple(estimators)
    return _Trials(tags, truth, observed, crlb, chain, estimates, failures, rot_err, trans_err)


def run_trial_estimators(
    scenario: ScenarioConfig,
    sigma: float,
    seed: int,
    estimators=ESTIMATOR_TAGS,
    completion: bool = True,
) -> list[TrialOutcome]:
    """One seeded trial scored for each estimator tag, in order.

    The draw and the CRLB are shared by every tag, and `mds` and `nls`
    share one EDM -> completion -> MDS result (NLS starts from that MDS
    pose); when that chain raises, both tags record the failure.
    """
    unknown = set(estimators) - set(ESTIMATOR_TAGS)
    if unknown:
        raise ConfigError(f"unknown estimators {sorted(unknown)}", field="estimators")
    return _run_trials(scenario, [sigma], [seed], estimators, completion).outcomes(0)


def run_trial(
    scenario: ScenarioConfig,
    sigma: float,
    seed: int,
    estimator: str,
    completion: bool = True,
) -> TrialOutcome:
    """One seeded draw: sample a pose, simulate, estimate, score."""
    return run_trial_estimators(scenario, sigma, seed, (estimator,), completion)[0]


def run_benchmark(scenario: ScenarioConfig, experiment: ExperimentConfig) -> list[ResultRow]:
    """Monte Carlo RMSE sweep over (sigma, estimator) cells.

    Every estimator in a cell sees the same trial draws (seeds depend only
    on sigma index and trial index). Failed trials are excluded from the
    RMSE and reported in the failure count; the CRLB columns average the
    per-trial bound traces and are the same for every estimator at a given
    sigma. The sigma x trial draws run through the stages in stacked
    batches of TRIAL_CHUNK; each trial's numbers are the ones it gets
    alone, and the cell sums add them in trial order.
    """
    sums = {
        (si, tag): {"rot": 0.0, "trans": 0.0, "n": 0, "fail": 0}
        for si in range(len(experiment.sigma_grid))
        for tag in experiment.estimators
    }
    crlb_sums = [[0.0, 0.0, 0] for _ in experiment.sigma_grid]
    grid, trials = range(len(experiment.sigma_grid)), range(experiment.trials)
    cells = [(si, trial) for si in grid for trial in trials]
    for start in range(0, len(cells), TRIAL_CHUNK):
        chunk = cells[start : start + TRIAL_CHUNK]
        trials = _run_trials(
            scenario,
            [experiment.sigma_grid[si] for si, _ in chunk],
            [derive_seed(experiment.master_seed, 11, si, trial) for si, trial in chunk],
            experiment.estimators,
            experiment.completion,
        )
        singular = trials.crlb.singular.tolist()
        bounds = zip(trials.crlb.translation_bound.tolist(), trials.crlb.rotation_bound.tolist())
        errors = {
            tag: (trials.rotation_errors[tag].tolist(), trials.translation_errors[tag].tolist())
            for tag in experiment.estimators
        }
        for i, ((si, _), (t_bound, r_bound)) in enumerate(zip(chunk, bounds)):
            if experiment.estimators and not singular[i]:
                crlb_sums[si][0] += t_bound
                crlb_sums[si][1] += r_bound
                crlb_sums[si][2] += 1
            for tag in experiment.estimators:
                cell = sums[(si, tag)]
                if trials.failures[tag][i] is not None:
                    cell["fail"] += 1
                    continue
                cell["rot"] += errors[tag][0][i] ** 2
                cell["trans"] += errors[tag][1][i] ** 2
                cell["n"] += 1
    rows = []
    for si, sigma in enumerate(experiment.sigma_grid):
        t_sum, r_sum, n_crlb = crlb_sums[si]
        crlb_t = float(np.sqrt(t_sum / n_crlb)) if n_crlb else float("nan")
        crlb_r = float(np.degrees(np.sqrt(r_sum / n_crlb))) if n_crlb else float("nan")
        for tag in experiment.estimators:
            cell = sums[(si, tag)]
            n = cell["n"]
            rows.append(
                ResultRow(
                    sigma=float(sigma),
                    estimator=tag,
                    rmse_translation_m=float(np.sqrt(cell["trans"] / n)) if n else float("nan"),
                    rmse_rotation_deg=float(np.sqrt(cell["rot"] / n)) if n else float("nan"),
                    crlb_translation_m=crlb_t,
                    crlb_rotation_deg=crlb_r,
                    trials=experiment.trials,
                    failures=cell["fail"],
                )
            )
    return rows


def run_scenario_once(
    scenario: ScenarioConfig,
    sigma: float,
    seed: int,
    estimator: str,
    completion: bool = True,
) -> dict:
    """Full JSON-able trace of a single trial, for debugging and replay."""
    outcome = run_trial(scenario, sigma, seed, estimator, completion)
    edm_doc = None
    if outcome.measurements.ranges is not None:
        edm_doc = assemble_edm(
            scenario.anchors, scenario.conformation, outcome.measurements
        ).to_json_dict()
    return {
        "sigma": float(sigma),
        "seed": int(seed),
        "estimator": estimator,
        "completion_enabled": completion,
        "truth": {
            "rotation": [float(v) for v in outcome.truth.rotation.ravel()],
            "translation": [float(v) for v in outcome.truth.translation],
        },
        "measurements": outcome.measurements.to_json_dict(),
        "edm": edm_doc,
        "completion": outcome.completion.to_json_dict() if outcome.completion else None,
        "estimate": outcome.estimate.to_json_dict() if outcome.estimate else None,
        "failure": outcome.failure,
        "errors": {
            "rotation_deg": outcome.rotation_error_deg,
            "translation_m": outcome.translation_error_m,
        },
        "crlb": {
            "translation_m2": outcome.crlb.translation_bound,
            "rotation_rad2": outcome.crlb.rotation_bound,
        },
    }


def generate_trajectory(
    scenario: ScenarioConfig,
    twist: Twist,
    n_frames: int,
    dt: float,
    sigma: float,
    seed: int,
) -> tuple[list[MeasurementFrame], list[tuple[Pose, Twist]]]:
    """Constant-twist measurement frames (ranges + range rates) with truth,
    all frames drawn as one stacked batch."""
    start = scenario.sample_pose(np.random.default_rng(derive_seed(seed, 1)))
    kinds = tuple(dict.fromkeys(scenario.measurement_kinds + ("range_rate",)))
    times = (np.arange(n_frames) + 1) * dt
    rot, trans = propagate_poses(start, twist, times)
    noises = [_noise(scenario, sigma, derive_seed(seed, 4, i)) for i in range(n_frames)]
    blockage_seeds = [derive_seed(seed, 5, i) for i in range(n_frames)]
    observed = _observe(scenario, rot, trans, twist, noises, kinds, blockage_seeds)
    frames = [MeasurementFrame(float(t), _measurement_set(observed, i))
              for i, t in enumerate(times)]
    return frames, [(Pose(r, t), twist) for r, t in zip(rot, trans)]


# ---------------------------------------------------------------------------
# Configuration documents (JSON) and builtin presets.

def _points_from(doc, field_name, base_dir):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object with 'points' or 'file'", field=field_name)
    if ("points" in doc) == ("file" in doc):
        raise ConfigError("exactly one of 'points' and 'file'", field=field_name)
    if "points" in doc:
        return np.asarray(doc["points"], dtype=float)
    path = Path(base_dir) / doc["file"]
    if not path.exists():
        raise ConfigError(f"file not found: {path}", field=field_name)
    return load_points(path)


def scenario_from_dict(doc: dict, base_dir=".") -> ScenarioConfig:
    try:
        conf = Conformation(_points_from(doc["conformation"], "conformation", base_dir))
    except KeyError:
        raise ConfigError("missing section", field="conformation") from None
    anchors_doc = doc.get("anchors")
    if anchors_doc is None:
        raise ConfigError("missing section", field="anchors")
    sources = [k for k in ("body", "points", "file") if k in anchors_doc]
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one anchor source among body/points/file, got {sources}",
            field="anchors",
        )
    if "body" in anchors_doc:
        body = Conformation(_points_from(anchors_doc["body"], "anchors.body", base_dir))
        anchors = AnchorSet(body.nodes)
    else:
        anchors = AnchorSet(_points_from(anchors_doc, "anchors", base_dir))

    pose = None
    dist = None
    if "pose" in doc and "pose_distribution" in doc:
        raise ConfigError("give either pose or pose_distribution, not both", field="pose")
    if "pose" in doc:
        p = doc["pose"]
        pose = Pose(np.asarray(p["rotation"], dtype=float), np.asarray(p["translation"], float))
    elif "pose_distribution" in doc:
        d = doc["pose_distribution"]
        box = d.get("translation_box", [[-0.5, 0.5]] * 3)
        dist = PoseDistribution(
            rotation=d.get("rotation", "uniform"),
            translation_low=tuple(b[0] for b in box),
            translation_high=tuple(b[1] for b in box),
        )
    else:
        raise ConfigError("missing pose or pose_distribution", field="pose")

    n = doc.get("noise", {})
    noise = NoiseModel(
        range_sigma=float(n.get("range_sigma", 0.0)),
        angle_sigma=float(n.get("angle_sigma", 0.0)),
        range_rate_sigma=float(n.get("range_rate_sigma", 0.0)),
        seed=int(n.get("seed", 0)),
    )
    b = doc.get("blockage", {})
    blockage = BlockageSpec(
        kind=b.get("kind", "none"),
        p=float(b.get("p", 0.0)),
        margin=float(b.get("margin", 1e-9)),
    )
    kinds = tuple(doc.get("measurements", ["range"]))
    return ScenarioConfig(
        conformation=conf,
        anchors=anchors,
        noise=noise,
        pose=pose,
        pose_distribution=dist,
        blockage=blockage,
        measurement_kinds=kinds,
    )


def experiment_from_dict(doc: dict) -> ExperimentConfig:
    if "sigma_grid" not in doc:
        raise ConfigError("missing sigma_grid", field="sigma_grid")
    return ExperimentConfig(
        sigma_grid=tuple(float(s) for s in doc["sigma_grid"]),
        trials=int(doc.get("trials", 100)),
        master_seed=int(doc.get("master_seed", 1234)),
        estimators=tuple(doc.get("estimators", list(ESTIMATOR_TAGS))),
        completion=bool(doc.get("completion", True)),
    )


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(doc, base_dir=path.parent)


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return experiment_from_dict(doc)


def _data_points(name: str) -> np.ndarray:
    from .geometry import parse_points

    text = importlib.resources.files("rblkit").joinpath(f"data/{name}").read_text()
    return parse_points(text)


def _cube_corners(side: float) -> np.ndarray:
    h = side / 2.0
    return np.array([[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)])


def preset(name: str) -> tuple[ScenarioConfig, ExperimentConfig]:
    """Builtin scenario+experiment pairs.

    "fig4": an 8-node unit cube target inside 8 anchors at the corners of a
    side-3 cube; range-only, full visibility; sigma grid 1e-3..1 m (log),
    1000 trials, all three estimators.

    "fig5": a car-shaped target ranged from a truck-shaped ego body, whose
    nodes are the anchors; 20% random link blockage; sigma grid 1e-2..1 m (log),
    500 trials, EDM/MDS pipeline.
    """
    if name == "fig4":
        scenario = ScenarioConfig(
            conformation=Conformation(_cube_corners(1.0)),
            anchors=AnchorSet(_cube_corners(3.0)),
            pose_distribution=PoseDistribution(rotation="uniform"),
            noise=NoiseModel(),
            blockage=BlockageSpec(kind="none"),
            measurement_kinds=("range",),
        )
        experiment = ExperimentConfig(
            sigma_grid=tuple(np.logspace(-3, 0, 6)),
            trials=1000,
            master_seed=1234,
            estimators=("mds", "nls", "gabp"),
            completion=True,
        )
        return scenario, experiment
    if name == "fig5":
        scenario = ScenarioConfig(
            conformation=Conformation(_data_points("car.txt")),
            anchors=AnchorSet(_data_points("truck.txt")),
            pose_distribution=PoseDistribution(
                rotation="yaw",
                translation_low=(8.0, -4.0, -0.5),
                translation_high=(16.0, 4.0, 0.5),
            ),
            noise=NoiseModel(),
            blockage=BlockageSpec(kind="bernoulli", p=0.2),
            measurement_kinds=("range",),
        )
        experiment = ExperimentConfig(
            sigma_grid=tuple(np.logspace(-2, 0, 5)),
            trials=500,
            master_seed=1234,
            estimators=("mds",),
            completion=True,
        )
        return scenario, experiment
    raise ConfigError(f"unknown preset {name!r} (available: fig4, fig5)", field="preset")
