"""Shared scenario builders: the 8-node unit cube target with 8 anchors at
the corners of a larger cube, and box-shaped car/truck bodies."""

import os
from pathlib import Path

import numpy as np

from rblkit.geometry import Conformation, Pose, RigidBodyState, random_rotation
from rblkit.measurement import AnchorSet, NoiseModel, simulate_measurements

# `python -m rblkit.cli` subprocesses import the package from this checkout, as the
# pytest `pythonpath` setting makes the tests themselves do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def box_nodes(lx, ly, lz):
    return np.array(
        [
            [sx * lx / 2, sy * ly / 2, sz * lz / 2]
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        ]
    )


def unit_cube() -> Conformation:
    return Conformation(box_nodes(1.0, 1.0, 1.0))


def cube_anchors(side=3.0) -> AnchorSet:
    return AnchorSet(box_nodes(side, side, side))


def car_body() -> Conformation:
    return Conformation(box_nodes(4.6, 1.8, 1.5))


def truck_body() -> Conformation:
    return Conformation(box_nodes(10.0, 2.5, 3.5))


def random_pose(rng, translation_scale=0.5) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-translation_scale, translation_scale, 3))


def simulate_cube_ranges(pose, sigma=0.0, seed=0, kinds=("range",)):
    conf, anchors = unit_cube(), cube_anchors()
    state = RigidBodyState(conf, pose)
    noise = NoiseModel(range_sigma=sigma, angle_sigma=0.0, seed=seed)
    return conf, anchors, simulate_measurements(anchors, state, noise, kinds)
