"""Simulation of wireless observations between anchors and body nodes.

Measurements are generated with zero-mean Gaussian noise from an explicit
seeded generator, so identical inputs always reproduce bitwise-identical
output. Absent (blocked) entries are tracked with a boolean mask and stored
as NaN, never as zero: a zero range would assert the node sits on the
anchor and poisons every downstream solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageWarning,
    InsufficientAnchorsError,
    InvalidPolicyError,
    RangeClampWarning,
    UndefinedBearingError,
    UndefinedDirectionError,
    UnderdeterminedError,
)
from .geometry import Conformation, RigidBodyState, node_velocities, pairwise_distances, readonly

# Independent substreams per measurement type, derived from NoiseModel.seed.
_STREAM_RANGE = 0
_STREAM_AOA = 1
_STREAM_RATE = 2
_STREAM_BLOCKAGE = 3


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(which,)))


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.asarray((np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi)
    out = np.where(wrapped == -np.pi, np.pi, wrapped)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AnchorSet:
    """World-frame anchor positions, one row per anchor (m)."""

    anchors: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"anchors must be (A, 3), got {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one anchor")
        if not np.all(np.isfinite(a)):
            raise ValueError("anchor coordinates must be finite")
        d = pairwise_distances(a)
        if a.shape[0] > 1 and np.any(d[np.triu_indices_from(d, k=1)] <= 0.0):
            raise ValueError("anchors must be pairwise distinct")
        object.__setattr__(self, "anchors", readonly(a))

    @property
    def num_anchors(self) -> int:
        return self.anchors.shape[0]

    @classmethod
    def from_file(cls, path) -> "AnchorSet":
        from .geometry import load_points

        return cls(load_points(path))


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise levels and the generator seed."""

    range_sigma: float = 0.0
    angle_sigma: float = 0.0
    range_rate_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("range_sigma", "angle_sigma", "range_rate_sigma"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class MeasurementSet:
    """Noisy anchor-to-node observations with a shared visibility mask.

    `ranges` and `range_rates` are (A, K); `aoa` is (A, K, 2) holding
    (azimuth, elevation). Types that were not simulated are None. Entries
    where `mask` is False are absent and stored as NaN.
    """

    mask: np.ndarray
    ranges: np.ndarray | None = None
    aoa: np.ndarray | None = None
    range_rates: np.ndarray | None = None

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be (A, K)")
        object.__setattr__(self, "mask", readonly(mask))
        for name, depth in (("ranges", 2), ("aoa", 3), ("range_rates", 2)):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=float)
            expect = mask.shape if depth == 2 else mask.shape + (2,)
            if m.shape != expect:
                raise ValueError(f"{name} must have shape {expect}, got {m.shape}")
            m = m.copy()
            m[~mask] = np.nan
            if name == "ranges" and np.any(m[mask] < 0.0):
                raise ValueError("observed ranges must be nonnegative")
            object.__setattr__(self, name, readonly(m))
        if self.ranges is None and self.aoa is None and self.range_rates is None:
            raise ValueError("measurement set is empty")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def num_observed(self) -> int:
        return int(self.mask.sum())

    def to_json_dict(self) -> dict:
        def grid(m):
            if m is None:
                return None
            return [[None if not np.all(np.isfinite(v)) else _plain(v) for v in row] for row in m]

        def _plain(v):
            return float(v) if np.ndim(v) == 0 else [float(x) for x in v]

        return {
            "mask": self.mask.tolist(),
            "ranges": grid(self.ranges),
            "aoa": grid(self.aoa),
            "range_rates": grid(self.range_rates),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementSet":
        mask = np.asarray(doc["mask"], dtype=bool)

        def grid(values, depth):
            if values is None:
                return None
            fill = np.nan if depth == 2 else (np.nan, np.nan)
            return np.array(
                [[fill if v is None else v for v in row] for row in values], dtype=float
            )

        return cls(
            mask=mask,
            ranges=grid(doc.get("ranges"), 2),
            aoa=grid(doc.get("aoa"), 3),
            range_rates=grid(doc.get("range_rates"), 2),
        )


@dataclass(frozen=True)
class Edm:
    """Hollow symmetric matrix of squared distances with a known-entry mask.

    Rows/columns are ordered anchors first, then body nodes. The two
    diagonal blocks (anchor-anchor and node-node) are always fully known;
    only cross entries can be missing. Unknown entries are NaN.
    """

    squared_distances: np.ndarray
    known_mask: np.ndarray
    n_anchors: int

    def __post_init__(self):
        d = np.asarray(self.squared_distances, dtype=float)
        known = np.asarray(self.known_mask, dtype=bool)
        n = d.shape[0]
        if d.shape != (n, n) or known.shape != (n, n):
            raise ValueError("squared_distances and known_mask must be square and same shape")
        a = int(self.n_anchors)
        if not 0 <= a <= n:
            raise ValueError(f"n_anchors {a} out of range for size {n}")
        if not np.array_equal(known, known.T):
            raise ValueError("known_mask must be symmetric")
        d = d.copy()
        d[~known] = np.nan
        sym_err = np.nanmax(np.abs(d - d.T)) if known.any() else 0.0
        if sym_err > 0.0:
            raise ValueError(f"known entries must be symmetric (max asymmetry {sym_err:.3e})")
        if not (np.all(np.diag(known)) and np.allclose(np.diag(d), 0.0)):
            raise ValueError("EDM must be hollow with a known diagonal")
        if np.any(d[known] < 0.0):
            raise ValueError("known squared distances must be nonnegative")
        if not known[:a, :a].all() or not known[a:, a:].all():
            raise ValueError("anchor-anchor and node-node blocks must be fully known")
        object.__setattr__(self, "squared_distances", readonly(d))
        object.__setattr__(self, "known_mask", readonly(known))
        object.__setattr__(self, "n_anchors", a)

    @property
    def size(self) -> int:
        return self.squared_distances.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.size - self.n_anchors

    def is_complete(self) -> bool:
        return bool(self.known_mask.all())

    def to_json_dict(self) -> dict:
        return {
            "n_anchors": self.n_anchors,
            "known_mask": self.known_mask.tolist(),
            "squared_distances": [
                [None if not k else float(v) for v, k in zip(row, krow)]
                for row, krow in zip(self.squared_distances, self.known_mask)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Edm":
        vals = np.array(
            [[np.nan if v is None else v for v in row] for row in doc["squared_distances"]],
            dtype=float,
        )
        return cls(vals, np.asarray(doc["known_mask"], dtype=bool), int(doc["n_anchors"]))


def simulate_ranges(anchors: AnchorSet, world_nodes, noise: NoiseModel) -> np.ndarray:
    """Noisy anchor-to-node distances (A, K), clamped at zero.

    Clamping is rare at realistic noise levels; when it happens a
    RangeClampWarning reports how many entries were affected.
    """
    world = np.asarray(world_nodes, dtype=float)[None]
    return simulate_batch(anchors.anchors, world, [noise], ("range",))[0][0]


def simulate_aoa(anchors: AnchorSet, world_nodes, noise: NoiseModel) -> np.ndarray:
    """Noisy world-frame bearings (A, K, 2) as (azimuth, elevation).

    Azimuth is atan2(dy, dx) wrapped to (-pi, pi]; elevation is
    asin(dz / distance). At the poles (node straight above or below an
    anchor) the azimuth is reported as 0 by convention.
    """
    world = np.asarray(world_nodes, dtype=float)[None]
    return simulate_batch(anchors.anchors, world, [noise], ("aoa",))[1][0]


def _draws(noises, name: str, which: int, shape, count: int = 1) -> np.ndarray:
    """`count` zero-mean Gaussian arrays of `shape` per noise model, drawn in
    turn from its stream `which` with its `name` sigma; zeros where that is 0."""
    out = np.zeros((count, len(noises)) + tuple(shape))
    for i, noise in enumerate(noises):
        sigma = getattr(noise, name)
        if sigma > 0.0:
            rng = _stream(noise.seed, which)
            for c in range(count):
                out[c, i] = rng.normal(0.0, sigma, size=shape)
    return out


def simulate_batch(anchor_xyz, world, noises, kinds, velocities=None):
    """Noisy observations of B bodies at once: world node positions (B, K, 3)
    and, for range rates, node velocities (B, K, 3), with one NoiseModel per
    body whose seed drives that body's own streams, so each item is exactly
    what the body gets alone.

    Returns (ranges (B, A, K), aoa (B, A, K, 2), range rates (B, A, K)),
    each None unless its kind is requested. Negative noisy ranges are
    clamped at zero with one RangeClampWarning for the batch.
    """
    unknown = set(kinds) - {"range", "aoa", "range_rate"}
    if unknown:
        raise ValueError(f"unknown measurement kinds: {sorted(unknown)}")
    delta = world[:, None, :, :] - anchor_xyz[:, None, :]
    dist = np.linalg.norm(delta, axis=-1)
    ranges = aoa = rates = None

    def noisy(name):
        return np.array([getattr(n, name) > 0.0 for n in noises])[:, None, None]

    if "range" in kinds:
        noise = _draws(noises, "range_sigma", _STREAM_RANGE, dist.shape[1:])[0]
        ranges = np.where(noisy("range_sigma"), dist + noise, dist)
        clamped = int(np.sum(ranges < 0.0))
        if clamped:
            warnings.warn(f"clamped {clamped} negative noisy ranges to 0", RangeClampWarning)
            ranges = np.maximum(ranges, 0.0)
    if "aoa" in kinds:
        if np.any(dist <= 0.0):
            raise UndefinedBearingError("node coincides with an anchor; bearing undefined")
        azimuth = np.arctan2(delta[..., 1], delta[..., 0])
        elevation = np.arcsin(np.clip(delta[..., 2] / dist, -1.0, 1.0))
        az_noise, el_noise = _draws(noises, "angle_sigma", _STREAM_AOA, dist.shape[1:], 2)
        with_noise = noisy("angle_sigma")
        azimuth = np.where(with_noise, wrap_angle(azimuth + az_noise), azimuth)
        elevation = np.where(with_noise, elevation + el_noise, elevation)
        aoa = np.stack([azimuth, elevation], axis=-1)
    if "range_rate" in kinds:
        if np.any(dist <= 0.0):
            raise UndefinedDirectionError("node coincides with an anchor; direction undefined")
        rates = np.einsum("...akd,...kd->...ak", delta / dist[..., None], velocities)
        noise = _draws(noises, "range_rate_sigma", _STREAM_RATE, dist.shape[1:])[0]
        rates = np.where(noisy("range_rate_sigma"), rates + noise, rates)
    return ranges, aoa, rates


def simulate_adoa(azimuths, reference_anchor: int = 0) -> np.ndarray:
    """Azimuth differences against a reference anchor, wrapped to (-pi, pi].

    Input is the (A, K) azimuth matrix; output drops the reference row,
    giving (A-1, K).
    """
    az = np.asarray(azimuths, dtype=float)
    if az.ndim != 2:
        raise ValueError("azimuths must be (A, K)")
    a = az.shape[0]
    if a < 2:
        raise InsufficientAnchorsError("angle differences need at least 2 anchors")
    if not 0 <= int(reference_anchor) < a:
        raise ValueError(f"reference anchor {reference_anchor} out of range for {a} anchors")
    diff = np.delete(az, reference_anchor, axis=0) - az[reference_anchor]
    return wrap_angle(diff)


def simulate_range_rates(
    anchors: AnchorSet, state: RigidBodyState, noise: NoiseModel
) -> np.ndarray:
    """Noisy radial velocities (A, K): projection of node velocity on the line of sight."""
    world, velocities = state.world_nodes()[None], node_velocities(state)[None]
    return simulate_batch(anchors.anchors, world, [noise], ("range_rate",), velocities)[2][0]


def simulate_measurements(
    anchors: AnchorSet,
    state: RigidBodyState,
    noise: NoiseModel,
    kinds: tuple[str, ...] = ("range",),
) -> MeasurementSet:
    """Simulate the requested measurement types with a fully-observed mask."""
    world = state.world_nodes()
    velocities = node_velocities(state)[None] if "range_rate" in kinds else None
    ranges, aoa, rates = simulate_batch(anchors.anchors, world[None], [noise], kinds, velocities)
    return MeasurementSet(
        mask=np.ones((anchors.num_anchors, world.shape[0]), dtype=bool),
        ranges=None if ranges is None else ranges[0],
        aoa=None if aoa is None else aoa[0],
        range_rates=None if rates is None else rates[0],
    )


@dataclass(frozen=True)
class BernoulliBlockage:
    """Each observed entry independently survives with probability 1 - p."""

    p: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= float(self.p) <= 1.0:
            raise InvalidPolicyError(f"blockage probability must be in [0, 1], got {self.p}")

    def keep_mask(self, shape) -> np.ndarray:
        rng = _stream(self.seed, _STREAM_BLOCKAGE)
        return rng.random(shape) >= self.p


@dataclass(frozen=True)
class ConvexHullBlockage:
    """Self-occlusion: a link is blocked when the anchor-node segment passes
    through the body's convex hull.

    Because every node lies on the hull itself, the test uses the hull
    shrunk inward by `margin`: a ray that merely grazes the surface within
    `margin` stays visible, while one that crosses the interior is blocked.
    """

    anchors: AnchorSet
    world_nodes: np.ndarray
    margin: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.margin) or self.margin < 0.0:
            raise InvalidPolicyError(f"margin must be finite and >= 0, got {self.margin}")
        object.__setattr__(self, "world_nodes", np.array(self.world_nodes, dtype=float))

    def keep_mask(self, shape) -> np.ndarray:
        # Imported here: scipy.spatial is the slowest import of the package.
        from scipy.spatial import ConvexHull

        nodes = self.world_nodes
        starts = self.anchors.anchors
        hull = ConvexHull(nodes)
        normals, offsets = hull.equations[:, :3], hull.equations[:, 3]
        # Link (j, k) is blocked when n.(a_j + t (s_k - a_j)) + b <= -margin on every
        # facet for some t in [0, 1]: clip the t interval of all (anchor, node, facet)
        # triples at once. Right operands of shape (3, 1) keep each product a
        # matrix-vector one, which rounds as normals @ vector does.
        num = -((normals @ starts[:, :, None])[..., 0] + offsets + self.margin)[:, None, :]
        den = (normals @ (nodes[None, :, :] - starts[:, None, :])[..., None])[..., 0]
        # A facet parallel to the link bounds no t, unless the link lies outside it (num < 0).
        parallel = np.abs(den) < 1e-300
        bound = num / np.where(parallel, 1.0, den)
        hi = np.where(den > 0.0, bound, np.inf).min(axis=2, where=~parallel, initial=1.0)
        lo = np.where(den < 0.0, bound, -np.inf).max(axis=2, where=~parallel, initial=0.0)
        return (lo > hi) | (parallel & (num < 0.0)).any(axis=2)


@dataclass(frozen=True)
class ExplicitBlockage:
    """Keep exactly the entries marked True in the provided mask."""

    mask: np.ndarray

    def keep_mask(self, shape) -> np.ndarray:
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != tuple(shape):
            raise InvalidPolicyError(f"explicit mask shape {m.shape} != {tuple(shape)}")
        return m


def apply_blockage(meas: MeasurementSet, policy) -> MeasurementSet:
    """Clear mask entries per the policy and drop the affected values.

    Blockage only ever removes observations. Nodes left with zero observed
    entries are reported with a CoverageWarning (multilateration downstream
    needs at least one observation per node), never silently repaired.
    """
    keep = blockage_batch(meas.mask[None], [policy])[0]
    return MeasurementSet(
        mask=keep, ranges=meas.ranges, aoa=meas.aoa, range_rates=meas.range_rates
    )


def blockage_batch(mask, policies) -> np.ndarray:
    """apply_blockage's masks for a (B, A, K) stack, item i cleared per
    policies[i] (None keeps every link), with a CoverageWarning for each
    item that leaves a node unobserved."""
    keep = np.array([m if p is None else m & p.keep_mask(m.shape) for m, p in zip(mask, policies)])
    for uncovered in ~keep.any(axis=-2):
        if uncovered.any():
            nodes = np.flatnonzero(uncovered).tolist()
            warnings.warn(
                f"nodes {nodes} have no observed entries after blockage", CoverageWarning
            )
    return keep


def assemble_edm(anchors: AnchorSet, conf: Conformation, meas: MeasurementSet) -> Edm:
    """Joint squared-distance matrix of anchors and body nodes.

    Anchor-anchor distances come from the known anchor coordinates and
    node-node distances from the conformation (rigidity makes them
    pose-invariant), so both diagonal blocks are exact. Cross entries are
    the observed squared ranges; masked links stay unknown.
    """
    ranges = None if meas.ranges is None else meas.ranges[None]
    d, known = assemble_batch(anchors.anchors, conf.nodes, ranges, meas.mask[None])
    return Edm(d[0], known[0], n_anchors=anchors.num_anchors)


def assemble_batch(anchor_xyz, nodes, ranges, mask) -> tuple[np.ndarray, np.ndarray]:
    """assemble_edm of stacked (B, A, K) ranges and masks: the joint squared
    distances (B, n, n), NaN where unknown, and their known masks."""
    if ranges is None:
        raise UnderdeterminedError("assemble_edm needs range measurements")
    b, a, k = mask.shape
    if a != len(anchor_xyz) or k != len(nodes):
        raise ValueError(
            f"measurement shape {(a, k)} does not match {len(anchor_xyz)} anchors"
            f" and {len(nodes)} nodes"
        )
    n = a + k
    d = np.empty((b, n, n))
    known = np.ones((b, n, n), dtype=bool)
    d[:, :a, :a] = pairwise_distances(anchor_xyz) ** 2
    d[:, a:, a:] = pairwise_distances(nodes) ** 2
    d[:, :a, a:] = np.where(mask, ranges**2, np.nan)
    d[:, a:, :a] = d[:, :a, a:].mT
    known[:, :a, a:] = mask
    known[:, a:, :a] = mask.mT
    d[:, np.arange(n), np.arange(n)] = 0.0
    return d, known
