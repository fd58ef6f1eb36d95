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
import math
import operator
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial, reduce
from itertools import compress
from pathlib import Path

import numpy as np

from .bounds import CrlbBatch, fim_batch
from .errors import ConfigError, RangeClampWarning, converted, exact, floats, u64
from .estimators import (
    ESTIMATOR_TAGS,
    ChainBatch,
    PoseBatch,
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
    parse_points,
    propagate_poses,
    rotation_error_deg,
    so3_exp,
    transform_points,
    twist_velocities,
)
from .measurement import (
    MEASUREMENT_KINDS,
    STREAM_BLOCKAGE,
    UNKEYED,
    AnchorSet,
    MeasurementSet,
    NoiseModel,
    assemble_edm,
    bernoulli_keep,
    hull_facets,
    hull_keep,
    noise_keys,
    simulate_batch,
    streams,
)
from .tracking import MeasurementFrame

_MASK64 = (1 << 64) - 1


_tuple = partial(exact, tuple)
_float = partial(exact, float)


def splitmix64(x):
    """One splitmix64 step (public-domain constants) of an int or each uint64 array element."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _operand(v):
    """A derive_seed operand: a numpy array as uint64, anything else as an int."""
    return v.astype(np.uint64, copy=False) if isinstance(v, np.ndarray) else int(v)


def derive_seed(master, *indices):
    """Fold indices into the master seed, one splitmix64 step per index: an
    int of ints, and with numpy arrays (cast to uint64) each broadcast element's."""
    seed = splitmix64(_operand(master) & _MASK64)
    for ix in indices:
        seed = splitmix64(seed ^ ((_operand(ix) + 0x9E3779B9) & _MASK64))
    return seed


def _box(value) -> tuple[tuple[float, float], ...]:
    """Three (low, high) pairs of floats, every entry read exactly, each
    width high - low finite and >= 0."""
    try:
        rows = [_tuple(row) for row in _tuple(value)]
    except TypeError:  # not a list of lists
        rows = []
    if [len(row) for row in rows] != [2, 2, 2]:
        raise ValueError("expected one [low, high] pair per axis, three in all")
    box = tuple((_float(low), _float(high)) for low, high in rows)
    # On Python floats an overflowing width reads inf, with no RuntimeWarning.
    if not all(0.0 <= high - low < math.inf for low, high in box):
        raise ValueError("translation box needs finite low <= high and a finite width high - low")
    return box


@dataclass(frozen=True)
class PoseDistribution:
    """Random pose prior: a rotation law plus a uniform translation box.

    rotation is one of "uniform" (Haar on SO(3)), "yaw" (uniform heading
    about +z), or "none" (identity). translation_box holds one (low, high)
    pair per axis, as the document's section does.
    """

    rotation: str = "uniform"
    translation_box: tuple[tuple[float, float], ...] = ((-0.5, 0.5),) * 3

    def __post_init__(self):
        if self.rotation not in ("uniform", "yaw", "none"):
            raise ConfigError(
                f"rotation must be uniform|yaw|none, got {self.rotation!r}",
                field="pose_distribution.rotation",
            )
        box = converted(_box, self.translation_box, "pose_distribution.translation_box")
        object.__setattr__(self, "translation_box", box)

    def sample_batch(self, rngs) -> tuple[np.ndarray, np.ndarray]:
        """One pose per generator, as (B, 3, 3) rotations and (B, 3) translations:
        each generator's raw variates in turn, rotation first, mapped as
        Generator.uniform maps one draw (low + (high - low) * u)."""
        if self.rotation == "uniform":
            draws = [(rng.standard_normal(4), rng.random(3)) for rng in rngs]
            rot = haar_rotations(np.reshape([q for q, _ in draws], (-1, 4)))
        elif self.rotation == "yaw":
            draws = [(rng.random(), rng.random(3)) for rng in rngs]
            axis = np.zeros((len(draws), 3))
            axis[:, 2] = [-np.pi + 2.0 * np.pi * u for u, _ in draws]  # uniform(-pi, pi)
            rot = so3_exp(axis)
        else:
            draws = [(None, rng.random(3)) for rng in rngs]
            rot = np.tile(np.eye(3), (len(draws), 1, 1))
        low, high = np.array(self.translation_box).T
        return rot, low + (high - low) * np.reshape([u for _, u in draws], (-1, 3))


@dataclass(frozen=True)
class BlockageSpec:
    """Which links a scenario's blockage keeps, as a boolean keep mask.

    kind "bernoulli" drops links independently with probability p; "hull"
    applies convex-hull self-occlusion; "none" keeps every link.
    """

    kind: str = "none"
    p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", converted(_float, self.p, "blockage.p"))
        if self.kind not in ("none", "bernoulli", "hull"):
            raise ConfigError(
                f"kind must be none|bernoulli|hull, got {self.kind!r}", field="blockage.kind"
            )
        if self.kind == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}", field="blockage.p")

    def policy(self, seed: int, anchors: AnchorSet, world_nodes):
        """keep_batch of one placement (K, 3) and seed, its facets found from it; None for
        kind "none"."""
        if self.kind == "none":
            return None
        world = np.asarray(world_nodes, dtype=float)
        return self.keep_batch(streams(*self.keys([seed])), anchors, world, world[None])[0]

    def keys(self, seeds) -> tuple[np.ndarray, np.ndarray]:
        """The (seeds, stream kinds) of the generators keep_batch takes for B seeds: each
        seed's blockage stream for kind "bernoulli", none for the others."""
        seeds = np.asarray(seeds, dtype=np.uint64)[: None if self.kind == "bernoulli" else 0]
        return seeds, np.full(len(seeds), STREAM_BLOCKAGE)

    def keep_batch(self, rngs, anchors: AnchorSet, nodes, world) -> np.ndarray:
        """The (B, A, K) keep masks of B placements `world` (B, K, 3) of a
        body with body-frame `nodes`, from the generators of `keys` (all that
        `rngs` yields). The hull's facet triples are found once, from
        `nodes`, and every placement is clipped in one call."""
        shape = (anchors.num_anchors, len(nodes))
        if self.kind == "hull":
            return hull_keep(anchors.anchors, world, hull_facets(nodes))
        if self.kind == "bernoulli":
            return bernoulli_keep(rngs, self.p, shape)
        return np.ones((len(world),) + shape, dtype=bool)


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
        kinds = converted(_tuple, self.measurement_kinds, "measurements")
        object.__setattr__(self, "measurement_kinds", kinds)
        unknown = set(kinds) - set(MEASUREMENT_KINDS)
        if unknown:
            raise ConfigError(
                f"unknown kinds {sorted(unknown)}; known: {', '.join(MEASUREMENT_KINDS)}",
                field="measurements",
            )
        if "range" not in self.measurement_kinds:
            raise ConfigError(
                "range measurements are required by the estimators",
                field="measurements",
            )
        if "aoa" in self.measurement_kinds and self.noise.angle_sigma == 0.0:
            raise ConfigError(
                "measured angles need a noise level: noiseless angles have no finite bound",
                field="noise.angle_sigma",
            )
        if self.blockage.kind == "hull" and self.conformation.is_planar:
            raise ConfigError(
                "hull self-occlusion needs a solid body; a planar body's hull is flat",
                field="blockage",
            )

    def sample_pose(self, rng: np.random.Generator) -> Pose:
        rot, trans = self.sample_poses([rng])
        return Pose(rot[0], trans[0])

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
    estimators: tuple[str, ...] = ESTIMATOR_TAGS
    completion: bool = True

    def __post_init__(self):
        kinds = {
            "sigma_grid": lambda grid: tuple(map(_float, _tuple(grid))),
            "trials": partial(exact, operator.index),
            "master_seed": u64,
            "estimators": _tuple,
        }
        for name, kind in kinds.items():
            object.__setattr__(self, name, converted(kind, getattr(self, name), name))
        if not isinstance(self.completion, bool):
            raise ConfigError(f"expected a bool, got {self.completion!r}", field="completion")
        if len(self.sigma_grid) == 0 or not all(0 < s < np.inf for s in self.sigma_grid):
            raise ConfigError("sigma grid must be nonempty, finite and positive", field="sigma_grid")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1", field="trials")
        unknown = set(self.estimators) - set(ESTIMATOR_TAGS)
        if unknown:
            raise ConfigError(f"unknown estimators {sorted(unknown)}", field="estimators")
        if len(set(self.estimators)) < len(self.estimators):
            raise ConfigError(f"repeated estimators in {list(self.estimators)}", field="estimators")


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


def _draw_streams(scenario, sigmas, kinds, unkeyed, noise_seeds, blockage_seeds):
    """The noise levels (B, 3) of B draws at range sigmas (B,), the scenario's
    others, refused as NoiseModel refuses them, and every generator the draws
    take, from one streams() hash, as an iterator in the order they are taken:
    the `unkeyed` seeds' (a pose's), the noise_keys streams, then the blockage's keys."""
    sigmas = np.asarray(sigmas, dtype=float)
    valid = (sigmas >= 0.0) & (sigmas < np.inf)
    if not valid.all():  # as NoiseModel refuses it
        raise ConfigError(f"must be finite and >= 0, got {sigmas[~valid][0]}", "noise.range_sigma")
    levels = np.full((len(sigmas), 3), scenario.noise.sigmas)
    levels[:, 0] = sigmas
    keys = [
        (np.asarray(unkeyed, dtype=np.uint64), np.full(len(unkeyed), UNKEYED)),
        noise_keys(levels, noise_seeds, kinds),
        scenario.blockage.keys(blockage_seeds),
    ]
    seeds, which = (np.concatenate(column) for column in zip(*keys))
    return levels, iter(streams(seeds, which))


def _observe(scenario, rot, trans, twist, levels, rngs, kinds):
    """The measurements of the scenario's body at B poses (rot, trans) at the
    noise levels (B, 3), under the scenario's blockage, from _draw_streams'
    generators after the poses'; range-clamp warnings are silenced and
    uncovered nodes not warned about. Returns the (B, A, K) mask and the
    ranges, aoa and range rates (None when not simulated), unfilled: the
    stacked stages read them through the mask, MeasurementSet stores NaN."""
    anchors, nodes = scenario.anchors, scenario.conformation.nodes
    world = transform_points(nodes, rot, trans)
    velocities = twist_velocities(nodes, rot, twist) if "range_rate" in kinds else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RangeClampWarning)
        observed = simulate_batch(anchors.anchors, world, levels, rngs, kinds, velocities)
    return (scenario.blockage.keep_batch(rngs, anchors, nodes, world), *observed)


def _draw(scenario: ScenarioConfig, sigmas, seeds):
    """The seeded draws of B trials at range sigmas (B,) and seeds (B,):
    true rotations (B, 3, 3) and translations (B, 3), and _observe's
    measurement stacks."""
    kinds = scenario.measurement_kinds
    # Each trial's pose generator, noise and blockage seeds: indices 1, 2, 3.
    seeds = derive_seed(np.asarray(seeds, dtype=np.uint64)[:, None], np.arange(1, 4))
    levels, rngs = _draw_streams(scenario, sigmas, kinds, *seeds.T)
    rot, trans = scenario.sample_poses([next(rngs) for _ in seeds])
    # Static draws have no motion; rates are simulated about zero velocity.
    twist = Twist.zero() if "range_rate" in kinds else None
    return rot, trans, _observe(scenario, rot, trans, twist, levels, rngs, kinds)


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
    failure strings and scored errors (NaN where failed). The one record of
    a trial: run_benchmark reduces it, and run_scenario_once traces item 0."""

    truth: tuple[np.ndarray, np.ndarray]
    observed: tuple
    crlb: CrlbBatch
    chain: ChainBatch | None
    estimates: dict[str, PoseBatch]
    failures: dict[str, list]
    rotation_errors: dict[str, np.ndarray]
    translation_errors: dict[str, np.ndarray]


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
    angle_sigma = np.full(len(sigmas), scenario.noise.angle_sigma)
    crlb = fim_batch(anchors, nodes, rot, trans, mask, sigmas, None if aoa is None else angle_sigma)
    chain = None
    if {"mds", "nls"} & set(estimators):
        chain = chain_batch(anchors, nodes, ranges, mask, completion)
    estimates, failures = {}, {}
    for tag in estimators:
        if tag == "gabp":
            batch = gabp_batch(anchors, nodes, mask, ranges, sigmas)
        elif tag == "mds":
            batch = chain.mds
        else:
            w_range, w_angle = nls_weights([sigmas, angle_sigma])
            start = (chain.mds.rotation, chain.mds.translation, chain.mds.errors)
            batch = nls_batch(anchors, nodes, mask, ranges, aoa, w_range, w_angle, start)
        estimates[tag] = batch
        failures[tag] = [batch.failure(i) for i in range(len(sigmas))]
    # All tags' scored items in one error call and one norm; each item's are those it gets alone.
    n = len(sigmas)
    scored = np.array([[f is None for f in failures[t]] for t in estimators], bool).reshape(-1, n)
    which, item = np.nonzero(scored)
    errors = np.full((2,) + scored.shape, np.nan)
    fit_rot = np.reshape([estimates[t].rotation for t in estimators], (-1, n, 3, 3))[which, item]
    offset = np.reshape([estimates[t].translation for t in estimators], (-1, n, 3))[which, item]
    errors[0][scored] = rotation_error_deg(fit_rot, rot[item])
    offset -= trans[item]
    errors[1][scored] = np.sqrt(np.vecdot(offset, offset))  # each offset's length
    rot_err, trans_err = (dict(zip(estimators, e)) for e in errors)
    return _Trials((rot, trans), observed, crlb, chain, estimates, failures, rot_err, trans_err)


def _mean(values: list) -> float:
    """The mean of the Python floats `values` added left to right, the order
    and rounding every benchmark table has been summed in (np.sum adds
    pairwise and Python 3.12's sum compensates); NaN when there are none."""
    return reduce(operator.add, values, 0.0) / len(values) if values else float("nan")


def run_benchmark(scenario: ScenarioConfig, experiment: ExperimentConfig) -> list[ResultRow]:
    """Monte Carlo RMSE sweep over (sigma, estimator) cells.

    Every estimator in a cell sees the same trial draws (seeds depend only
    on sigma index and trial index). Failed trials are excluded from the
    RMSE and reported in the failure count; the CRLB columns average the
    per-trial bound traces and are the same for every estimator at a given
    sigma. The sigma x trial draws run through the stages in stacked
    batches of TRIAL_CHUNK; each trial's numbers are the ones it gets
    alone, and each cell is reduced once, in trial order.
    """
    grid, tags, n = experiment.sigma_grid, experiment.estimators, experiment.trials
    si, trial = np.divmod(np.arange(len(grid) * n, dtype=np.uint64), n)
    sigmas, seeds = np.array(grid)[si], derive_seed(experiment.master_seed, 11, si, trial)
    # The sweep's columns in trial order: which bounds count, the bounds, and
    # each tag's scored flags and errors.
    bounded, t_bound, r_bound = [], [], []
    scores = {tag: ([], [], []) for tag in tags}
    for start in range(0, len(seeds), TRIAL_CHUNK):
        chunk = slice(start, start + TRIAL_CHUNK)
        trials = _run_trials(scenario, sigmas[chunk], seeds[chunk], tags, experiment.completion)
        bounded += (~trials.crlb.singular).tolist()
        t_bound += trials.crlb.translation_bound.tolist()
        r_bound += trials.crlb.rotation_bound.tolist()
        for tag, (scored, t_err, r_err) in scores.items():
            scored += [f is None for f in trials.failures[tag]]
            t_err += trials.translation_errors[tag].tolist()
            r_err += trials.rotation_errors[tag].tolist()
    rows = []
    for si, sigma in enumerate(grid):
        cell = slice(si * n, (si + 1) * n)  # the cells run sigma-major
        crlb_t = float(np.sqrt(_mean(list(compress(t_bound[cell], bounded[cell])))))
        crlb_r = float(np.degrees(np.sqrt(_mean(list(compress(r_bound[cell], bounded[cell]))))))
        for tag in tags:
            scored, t_err, r_err = (column[cell] for column in scores[tag])
            # Python's v**2 (C pow) rounds as every table has; numpy's x**2 is x*x.
            t_sq, r_sq = ([v**2 for v in compress(err, scored)] for err in (t_err, r_err))
            rows.append(
                ResultRow(
                    sigma=float(sigma),
                    estimator=tag,
                    rmse_translation_m=float(np.sqrt(_mean(t_sq))),
                    rmse_rotation_deg=float(np.sqrt(_mean(r_sq))),
                    crlb_translation_m=crlb_t,
                    crlb_rotation_deg=crlb_r,
                    trials=n,
                    failures=n - sum(scored),
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
    if estimator not in ESTIMATOR_TAGS:
        raise ConfigError(f"unknown estimator {estimator!r}", field="estimator")
    trial = _run_trials(scenario, [sigma], [seed], (estimator,), completion)
    meas = _measurement_set(trial.observed, 0)
    batch, crlb = trial.estimates[estimator], trial.crlb.report(0)
    estimate = None if batch.errors[0] is not None else batch.estimate(0)
    report = None if estimator == "gabp" or estimate is None else trial.chain.report(0)
    rot, trans = trial.truth
    return {
        "sigma": float(sigma),
        "seed": int(seed),
        "estimator": estimator,
        "completion_enabled": completion,
        "truth": {
            "rotation": [float(v) for v in rot[0].ravel()],
            "translation": [float(v) for v in trans[0]],
        },
        "measurements": meas.to_json_dict(),
        "edm": assemble_edm(scenario.anchors, scenario.conformation, meas).to_json_dict(),
        "completion": report.to_json_dict() if report else None,
        "estimate": estimate.to_json_dict() if estimate else None,
        "failure": trial.failures[estimator][0],
        "errors": {
            "rotation_deg": float(trial.rotation_errors[estimator][0]),
            "translation_m": float(trial.translation_errors[estimator][0]),
        },
        "crlb": {
            "translation_m2": crlb.translation_bound,
            "rotation_rad2": crlb.rotation_bound,
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
    kinds = tuple(dict.fromkeys(scenario.measurement_kinds + ("range_rate",)))
    # The start pose's seed, and each frame's noise and blockage seeds.
    seeds = derive_seed(seed, np.array([[4], [5]]), np.arange(n_frames))
    sigmas = np.full(n_frames, sigma)
    levels, rngs = _draw_streams(scenario, sigmas, kinds, [derive_seed(seed, 1)], *seeds)
    start = scenario.sample_pose(next(rngs))
    times = (np.arange(n_frames) + 1) * dt
    rot, trans = propagate_poses(start, twist, times)
    observed = _observe(scenario, rot, trans, twist, levels, rngs, kinds)
    frames = [MeasurementFrame(t, _measurement_set(observed, i)) for i, t in enumerate(times)]
    return frames, [(Pose(r, t), twist) for r, t in zip(rot, trans)]


# ---------------------------------------------------------------------------
# Configuration documents (JSON) and builtin presets.

# Each section of a document fills one dataclass, and its keys are that
# class's field names, so a setting is declared once, with its default.
_REFUSED = {"noise.seed": "; trial noise streams derive from the experiment's master_seed"}


def _names(cls, *skip: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def _section(doc, allowed, path: str, required=()) -> dict:
    """The object `doc`, refused with a ConfigError on the dotted path of a
    key outside `allowed` or a missing `required` one."""
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path or None)
    dotted = (path + ".") if path else ""
    for key in doc:
        if key not in allowed:
            raise ConfigError(
                f"unknown key; allowed keys: {', '.join(allowed)}" + _REFUSED.get(dotted + key, ""),
                field=dotted + key,
            )
    for key in required:
        if key not in doc:
            raise ConfigError("missing key", field=dotted + key)
    return doc


def _fill(cls, doc, path: str, *skip: str):
    """cls built from the object `doc`, one key per field of cls other than
    `skip`; absent keys keep the field defaults."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return cls(**_section(doc, _names(cls, *skip), path, required))


def _points_from(doc, field_name, base_dir):
    """The points of a `points` list, as the document gives them, or of a
    `file` point table; the class they fill reads and checks them."""
    if len(_section(doc, ("points", "file"), field_name)) != 1:
        raise ConfigError("exactly one of 'points' and 'file'", field=field_name)
    if "points" in doc:
        return doc["points"]
    path = Path(base_dir) / doc["file"]
    if not path.exists():
        raise ConfigError(f"file not found: {path}", field=field_name)
    return converted(load_points, path, field_name)


def scenario_from_dict(doc: dict, base_dir=".") -> ScenarioConfig:
    """The scenario of a document in the README grammar; absent sections
    keep the ScenarioConfig defaults."""
    keys = _names(ScenarioConfig, "measurement_kinds") + ("measurements",)
    _section(doc, keys, "", required=("conformation", "anchors"))
    points = _points_from(doc["conformation"], "conformation", base_dir)
    conf = converted(Conformation, points, "conformation")
    anchors = _section(doc["anchors"], ("body", "points", "file"), "anchors")
    if len(anchors) != 1:
        raise ConfigError("exactly one of 'body', 'points' and 'file'", field="anchors")
    if "body" in anchors:  # an ego body whose nodes act as anchors
        points = _points_from(anchors["body"], "anchors.body", base_dir)
        points = converted(Conformation, points, "anchors.body").nodes
    else:
        points = _points_from(anchors, "anchors", base_dir)
    settings = {"conformation": conf, "anchors": AnchorSet(points)}
    if "pose" in doc:
        pose = _section(doc["pose"], _names(Pose), "pose", required=_names(Pose))
        settings["pose"] = Pose(**{k: converted(floats, v, f"pose.{k}") for k, v in pose.items()})
    for name, cls, *skip in (("noise", NoiseModel, "seed"), ("blockage", BlockageSpec),
                             ("pose_distribution", PoseDistribution)):
        if name in doc:
            settings[name] = _fill(cls, doc[name], name, *skip)
    if "measurements" in doc:
        settings["measurement_kinds"] = doc["measurements"]
    return ScenarioConfig(**settings)


def experiment_from_dict(doc: dict) -> ExperimentConfig:
    return _fill(ExperimentConfig, doc, "")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(_read_json(path), base_dir=Path(path).parent)


def load_experiment(path) -> ExperimentConfig:
    return experiment_from_dict(_read_json(path))


def _data_points(name: str) -> np.ndarray:
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
            pose_distribution=PoseDistribution(),
        )
        return scenario, ExperimentConfig(sigma_grid=tuple(np.logspace(-3, 0, 6)), trials=1000)
    if name == "fig5":
        scenario = ScenarioConfig(
            conformation=Conformation(_data_points("car.txt")),
            anchors=AnchorSet(_data_points("truck.txt")),
            pose_distribution=PoseDistribution("yaw", ((8.0, 16.0), (-4.0, 4.0), (-0.5, 0.5))),
            blockage=BlockageSpec(kind="bernoulli", p=0.2),
        )
        experiment = ExperimentConfig(
            sigma_grid=tuple(np.logspace(-2, 0, 5)), trials=500, estimators=("mds",)
        )
        return scenario, experiment
    raise ConfigError(f"unknown preset {name!r} (available: fig4, fig5)", field="preset")
