"""Command-line interface.

Subcommands: simulate, estimate, benchmark, crlb, track, complete. All
outputs land in the --out directory (default ./rblkit-out) as CSV or JSON;
runs are deterministic for a fixed seed. Exit code 0 on success, 1 on
configuration errors (with a diagnostic on stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import crlb_sweep, sweep_to_csv
from .completion import complete_edm
from .errors import ConfigError, RblError, converted, u64
from .estimators import ESTIMATOR_TAGS
from .geometry import Twist
from .harness import (
    ExperimentConfig,
    derive_seed,
    draw_trial,
    generate_trajectory,
    load_experiment,
    load_scenario,
    preset,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
    run_scenario_once,
)
from .measurement import Edm, assemble_edm, streams
from .tracking import MeasurementFrame, TrackConfig, track_sequence, track_to_csv


def _resolve_configs(args, need_experiment=False):
    scenario = experiment = None
    if args.preset:
        scenario, experiment = preset(args.preset)
    if args.scenario:
        scenario = load_scenario(args.scenario)
    if args.experiment:
        experiment = load_experiment(args.experiment)
    if scenario is None:
        raise ConfigError("a --scenario file or --preset is required")
    if need_experiment and experiment is None:
        raise ConfigError("an --experiment file or --preset is required")
    if args.seed is not None:
        converted(u64, args.seed, "--seed")
    if experiment is not None and args.seed is not None:
        experiment = replace(experiment, master_seed=args.seed)
    # --seed, else the experiment's master seed, else the field default.
    seed = (experiment or ExperimentConfig).master_seed if args.seed is None else args.seed
    return scenario, experiment, seed


def _default_sigma(args, scenario, experiment):
    if args.sigma is not None:
        return args.sigma
    if experiment is not None:
        return experiment.sigma_grid[0]
    return scenario.noise.range_sigma if scenario.noise.range_sigma > 0 else 0.1


def _positive(args, name: str):
    """args.name, None when unset; refused on its flag unless finite and > 0."""
    value = getattr(args, name)
    if value is not None and not 0 < value < float("inf"):
        flag = "--" + name.replace("_", "-")
        raise ConfigError(f"must be finite and > 0, got {value}", field=flag)
    return value


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text)
    print(path)


def _write_json(path: Path, doc):
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_simulate(args) -> int:
    scenario, experiment, seed = _resolve_configs(args)
    sigma = _default_sigma(args, scenario, experiment)
    truth, meas = draw_trial(scenario, sigma, derive_seed(seed, 11, 0, 0))
    doc = {
        "sigma": sigma,
        "seed": seed,
        "truth": {
            "rotation": [float(v) for v in truth.rotation.ravel()],
            "translation": [float(v) for v in truth.translation],
        },
        "measurements": meas.to_json_dict(),
        "edm": assemble_edm(scenario.anchors, scenario.conformation, meas).to_json_dict(),
    }
    _write_json(_outdir(args) / "measurements.json", doc)
    return 0


def _cmd_estimate(args) -> int:
    scenario, experiment, seed = _resolve_configs(args)
    _positive(args, "sigma")  # the trace bounds its trial, which needs noise
    sigma = _default_sigma(args, scenario, experiment)
    completion = not args.no_completion and (experiment is None or experiment.completion)
    trace = run_scenario_once(
        scenario, sigma, derive_seed(seed, 11, 0, 0), args.estimator, completion
    )
    _write_json(_outdir(args) / "trace.json", trace)
    return 0


def _cmd_benchmark(args) -> int:
    scenario, experiment, _ = _resolve_configs(args, need_experiment=True)
    rows = run_benchmark(scenario, experiment)
    out = _outdir(args)
    if args.format == "json":
        _write_json(out / "benchmark.json", rows_to_json(rows))
    else:
        _write(out / "benchmark.csv", rows_to_csv(rows))
    return 0


def _cmd_crlb(args) -> int:
    scenario, experiment, seed = _resolve_configs(args)
    if args.sigma is not None:
        grid = (_positive(args, "sigma"),)
    elif experiment is not None:
        grid = experiment.sigma_grid
    else:
        raise ConfigError("need --sigma or an --experiment/--preset sigma grid")
    pose = scenario.sample_pose(streams([derive_seed(seed, 1)])[0])
    angle_sigma = scenario.noise.angle_sigma if "aoa" in scenario.measurement_kinds else None
    reports = crlb_sweep(scenario.anchors, scenario.conformation, pose, grid, None, angle_sigma)
    out = _outdir(args)
    if args.format == "json":
        doc = [
            {
                "sigma": r.sigma,
                "crlb_translation_m2": r.translation_bound,
                "crlb_rotation_rad2": r.rotation_bound,
                "condition_number": r.condition_number,
            }
            for r in reports
        ]
        _write_json(out / "crlb.json", doc)
    else:
        _write(out / "crlb.csv", sweep_to_csv(reports))
    return 0


def _parse_twist(text: str) -> Twist:
    parts = [converted(float, v, "twist") for v in text.split(",")]
    return converted(lambda p: Twist(p[:3], p[3:]), parts, "twist")


def _frames(doc, grid) -> list[MeasurementFrame]:
    """The frames of a --trajectory document, each refused on its index
    unless it measures the (anchors, nodes) `grid` at a timestamp after the
    previous frame's."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of frames, got {type(doc).__name__}")
    frames = [converted(MeasurementFrame.from_json_dict, f, f"frame {i}") for i, f in enumerate(doc)]
    for i, frame in enumerate(frames):
        t, shape, where = frame.timestamp, frame.measurements.shape, f"frame {i}"
        if shape != grid:
            raise ConfigError(f"measurements are {shape}, not (anchors, nodes) {grid}", where)
        if i and t <= frames[i - 1].timestamp:
            raise ConfigError(f"timestamp {t} is not after frame {i - 1}'s", where)
    return frames


def _cmd_track(args) -> int:
    scenario, experiment, seed = _resolve_configs(args)
    noise = replace(scenario.noise, range_sigma=_default_sigma(args, scenario, experiment))
    truth = None
    if args.trajectory:
        doc = json.loads(Path(args.trajectory).read_text())
        grid = (scenario.anchors.num_anchors, scenario.conformation.num_nodes)
        frames = converted(lambda d: _frames(d, grid), doc, "--trajectory")
    else:
        twist = _parse_twist(args.twist)
        n_frames, dt = _positive(args, "frames"), _positive(args, "dt")
        frames, truth = generate_trajectory(scenario, twist, n_frames, dt, noise.range_sigma, seed)
    config = TrackConfig(estimator=args.estimator, noise=noise)
    track = track_sequence(scenario.anchors, scenario.conformation, frames, config)
    out = _outdir(args)
    if args.format == "json":
        doc = [
            {
                "timestamp": f.timestamp,
                "estimate": f.pose_estimate.to_json_dict() if f.pose_estimate else None,
                "twist": None
                if f.twist_estimate is None
                else {
                    "angular": [float(v) for v in f.twist_estimate.angular],
                    "linear": [float(v) for v in f.twist_estimate.linear],
                },
                "twist_residual_rms": f.twist_residual_rms,
                "error": f.error,
            }
            for f in track
        ]
        _write_json(out / "track.json", doc)
    else:
        _write(out / "track.csv", track_to_csv(track, truth))
    return 0


def _edm(doc) -> Edm:
    """The Edm of an --edm document, or of a simulate output's "edm" entry."""
    if isinstance(doc, dict) and doc.get("edm") is not None:
        doc = doc["edm"]
    return Edm.from_json_dict(doc)


def _cmd_complete(args) -> int:
    edm = converted(_edm, json.loads(Path(args.edm).read_text()), "--edm")
    report = complete_edm(edm, max_iters=_positive(args, "max_iters"))
    _write_json(_outdir(args) / "completion.json", report.to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rblkit",
        description="Rigid body localization toolkit: simulate, estimate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags of several subcommands, each given only to those whose handler reads it.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="rblkit-out", metavar="DIR", help="output directory")
    configs = argparse.ArgumentParser(add_help=False, parents=[out])
    configs.add_argument("--scenario", metavar="FILE", help="scenario config (JSON)")
    configs.add_argument("--experiment", metavar="FILE", help="experiment config (JSON)")
    configs.add_argument("--preset", choices=["fig4", "fig5"], help="builtin scenario+experiment")
    configs.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma", type=float, help="range noise sigma (m), in place of the grid")
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="tabular output format"
    )
    estimator = argparse.ArgumentParser(add_help=False)
    estimator.add_argument("--estimator", choices=ESTIMATOR_TAGS, default="nls")

    p = sub.add_parser(
        "simulate", parents=[configs, sigma], help="draw one trial's measurements"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "estimate", parents=[configs, sigma, estimator], help="run one estimator on a seeded trial"
    )
    p.add_argument("--no-completion", action="store_true", help="zero-fill masked EDMs instead")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "benchmark", parents=[configs, tables], help="Monte Carlo RMSE sweep with CRLB columns"
    )
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser(
        "crlb", parents=[configs, sigma, tables], help="CRLB-vs-sigma table for a scenario"
    )
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser(
        "track", parents=[configs, sigma, tables, estimator],
        help="frame-to-frame pose+twist tracking",
    )
    p.add_argument("--trajectory", metavar="FILE", help="JSON list of measurement frames")
    p.add_argument("--twist", default="0,0,0.1,1,0,0", help="synthesized twist wx,wy,wz,vx,vy,vz")
    p.add_argument("--frames", type=int, default=10, help="synthesized frame count")
    p.add_argument("--dt", type=float, default=0.1, help="synthesized frame spacing (s)")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("complete", parents=[out], help="complete a masked EDM document")
    p.add_argument("--edm", required=True, metavar="FILE", help="EDM JSON (or a simulate output)")
    p.add_argument("--max-iters", type=int, default=500)
    p.set_defaults(func=_cmd_complete)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"rblkit: config error: {exc}", file=sys.stderr)
        return 1
    except (RblError, OSError, json.JSONDecodeError) as exc:
        print(f"rblkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
