"""Simulation of wireless observations between anchors and body nodes.

Measurements are generated with zero-mean Gaussian noise from an explicit
seeded generator, so identical inputs always reproduce bitwise-identical
output. Absent (blocked) entries are tracked with a boolean mask and stored
as NaN, never as zero: a zero range would assert the node sits on the
anchor and poisons every downstream solver.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConfigError,
    CoverageWarning,
    InvalidPolicyError,
    RangeClampWarning,
    UndefinedBearingError,
    UndefinedDirectionError,
    UnderdeterminedError,
    converted,
    entries,
    exact,
    u64,
)
from .geometry import (
    Conformation,
    RigidBodyState,
    affine_rank,
    by_value,
    cross,
    node_velocities,
    pairwise_distances,
    readonly,
    wrap_angle,
)

# Independent substreams (spawn keys) per measurement type, derived from NoiseModel.seed:
# kind k of MEASUREMENT_KINDS, column k of NoiseModel.sigmas, draws its noise on stream k,
# and blockage on STREAM_BLOCKAGE. UNKEYED is the kind of a generator without one (a pose's).
STREAM_BLOCKAGE = 3
UNKEYED = -1

# The kinds of observation a scenario can simulate.
MEASUREMENT_KINDS = ("range", "aoa", "range_rate")


# numpy's SeedSequence recipe (numpy/random/bit_generator.pyx), which NEP 19
# freezes: step i of the pool hash xors with INIT_A * MULT_A**i and multiplies
# by the next power, step i of the output hash likewise from INIT_B and MULT_B,
# and mix(x, y) is MIX_MULT_L * x - MIX_MULT_R * y; every step ends in x ^ x >> 16.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


_HASH_A = [0x43B0D7E5 * pow(0x931E8875, i, 1 << 32) & _MASK32 for i in range(21)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _MASK32 for i in range(9)]
_SHIFT, _HIGH = np.uint32(16), np.uint64(32)
# (xor, multiplier) columns of the pool's first 4 hash steps and of the 8 output steps.
_POOL_HASH = _column(_HASH_A[0:4]), _column(_HASH_A[1:5])
_OUTPUT_HASH = _column(_HASH_B[0:8]), _column(_HASH_B[1:9])
# Cross mix src: the pool rows it mixes into, and its 3 hash steps' constants.
_CROSS = [
    (src, dst, _column(_HASH_A[k : k + 3]), _column(_HASH_A[k + 1 : k + 4]))
    for src, dst, k in [
        (0, slice(1, 4), 4), (1, np.array([0, 2, 3]), 7), (2, np.array([0, 1, 3]), 10),
        (3, slice(0, 3), 13),
    ]
]


def _hashed(word: int, step: int) -> int:
    word = (word ^ _HASH_A[step]) * _HASH_A[step + 1] & _MASK32
    return word ^ word >> 16


# MIX_MULT_R times the hash of each stream kind's spawn word (column), as each pool word
# (row) takes it.
_SPAWN = np.array(
    [[int(_MIX_R) * _hashed(which, 16 + i) & _MASK32 for which in range(4)] for i in range(4)],
    dtype=np.uint32,
)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's generate_state(4, uint64) words, already hashed:
    all that PCG64 asks of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only the 4 uint64 words of PCG64 are hashed, not {n_words} {dtype}")
        return self.words


def streams(seeds, which=None) -> list[np.random.Generator]:
    """The generator of each uint64 seed, bit for bit
    default_rng(SeedSequence(seed, spawn_key=(which,) or ())), where `which`
    is None, a stream kind, or one kind per seed with UNKEYED for no spawn
    key. One uint32 array computation hashes the whole stack, whatever its
    mix of kinds: the seed's two entropy words into a 4-word pool (a spawn
    key pads the entropy with zeros, which is what an absent word hashes
    as), the 12 cross mixes, the spawn word's mix, and the 8 output words
    paired into PCG64's 4."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds
    pool[1] = seeds >> _HIGH
    pool ^= _POOL_HASH[0]
    pool *= _POOL_HASH[1]
    pool ^= pool >> _SHIFT
    for src, dst, xor, mult in _CROSS:
        h = pool[src] ^ xor
        h *= mult
        h ^= h >> _SHIFT
        h *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= h
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    if which is not None:
        which = np.asarray(which)
        mixed = pool * _MIX_L
        mixed -= _SPAWN[:, which].reshape(4, -1)  # UNKEYED takes the last kind's column
        mixed ^= mixed >> _SHIFT
        pool = np.where(which != UNKEYED, mixed, pool)  # and keeps its pool
    state = np.concatenate([pool, pool])
    state ^= _OUTPUT_HASH[0]
    state *= _OUTPUT_HASH[1]
    state ^= state >> _SHIFT
    words = np.empty((len(seeds), 4), dtype=np.uint64)  # native and C-contiguous rows
    words[:] = state[1::2].T
    words <<= _HIGH
    words |= state[0::2].T
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


@dataclass(frozen=True)
class AnchorSet:
    """World-frame anchor positions, one row per anchor (m)."""

    anchors: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ConfigError(f"must be (A, 3), got {a.shape}", field="anchors")
        if a.shape[0] < 1:
            raise ConfigError("need at least one anchor", field="anchors")
        if not np.all(np.isfinite(a)):
            raise ConfigError("coordinates must be finite", field="anchors")
        d = pairwise_distances(a)
        if a.shape[0] > 1 and np.any(d[np.triu_indices_from(d, k=1)] <= 0.0):
            raise ConfigError("must be pairwise distinct", field="anchors")
        object.__setattr__(self, "anchors", readonly(a))

    @property
    def num_anchors(self) -> int:
        return self.anchors.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise levels and the generator seed."""

    range_sigma: float = 0.0
    angle_sigma: float = 0.0
    range_rate_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("range_sigma", "angle_sigma", "range_rate_sigma"):
            v = converted(partial(exact, float), getattr(self, name), f"noise.{name}")
            if not np.isfinite(v) or v < 0.0:
                raise ConfigError(f"must be finite and >= 0, got {v}", field=f"noise.{name}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "seed", converted(u64, self.seed, "noise.seed"))

    @property
    def sigmas(self) -> tuple[float, float, float]:
        """(range, angle, range-rate) standard deviations, as simulate_batch takes them."""
        return self.range_sigma, self.angle_sigma, self.range_rate_sigma


@dataclass(frozen=True)
class MeasurementSet:
    """Noisy anchor-to-node observations with a shared visibility mask.

    `ranges` and `range_rates` are (A, K); `aoa` is (A, K, 2) holding
    (azimuth, elevation). Types that were not simulated are None. Entries
    where `mask` is False are absent and stored as NaN. Observed ranges and
    angles must be finite; a rate need not be (estimate_twist skips it).
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
        observed = np.count_nonzero(mask)
        for name, depth in (("ranges", 2), ("aoa", 3), ("range_rates", 2)):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=float)
            expect = mask.shape if depth == 2 else mask.shape + (2,)
            if m.shape != expect:
                raise ValueError(f"{name} must have shape {expect}, got {m.shape}")
            # The one copy, NaN where unobserved, then frozen; NaN is never below 0.
            m = np.where(mask if depth == 2 else mask[..., None], m, np.nan)
            if name != "range_rates" and np.count_nonzero(np.isfinite(m)) < observed * (depth - 1):
                raise ValueError(f"observed {name} must be finite")
            if name == "ranges" and (m < 0.0).any():
                raise ValueError("observed ranges must be nonnegative")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if self.ranges is None and self.aoa is None and self.range_rates is None:
            raise ValueError("measurement set is empty")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

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
        (mask,) = entries(doc, "mask")
        grids = zip(map(doc.get, ("ranges", "aoa", "range_rates")), (_number, _pair, _number))
        return cls(_grid(mask, _flag), *(None if g is None else _grid(g, f) for g, f in grids))


def _grid(rows, entry) -> np.ndarray:
    """A grid of a data document, a list of rows of entries, as an array: each
    entry read by `entry`, which refuses what the grid cannot hold."""
    return np.array([[entry(v) for v in exact(list, row)] for row in exact(list, rows)])


def _flag(v) -> bool:
    """A mask entry: true or false, nothing else."""
    if not isinstance(v, bool):
        raise TypeError(f"mask entries must be true or false, got {v!r}")
    return v


def _number(v) -> float:
    """A value entry: a number, or null read as NaN."""
    return np.nan if v is None else exact(float, v)


def _pair(v) -> list:
    """An angle entry: an [azimuth, elevation] pair of value entries, or null for both."""
    return [np.nan, np.nan] if v is None else [_number(x) for x in exact(list, v)]


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
        a = exact(operator.index, self.n_anchors)
        d = np.asarray(self.squared_distances, dtype=float)
        known = np.asarray(self.known_mask, dtype=bool)
        n = d.shape[0]
        if d.shape != (n, n) or known.shape != (n, n):
            raise ValueError("squared_distances and known_mask must be square and same shape")
        if not 0 <= a <= n:
            raise ValueError(f"n_anchors {a} out of range for size {n}")
        if not np.array_equal(known, known.T):
            raise ValueError("known_mask must be symmetric")
        d = d.copy()  # the one copy: NaN fills it, then it is frozen
        d[~known] = np.nan
        # np.allclose(diagonal, 0.0) is |diagonal| <= 1e-8, NaN failing it.
        if not (known.diagonal().all() and (np.abs(d.diagonal()) <= 1e-8).all()):
            raise ValueError("EDM must be hollow with a known diagonal")
        if not np.isfinite(d[known]).all():
            raise ValueError("known squared distances must be finite")
        sym_err = np.nanmax(np.abs(d - d.T)) if known.any() else 0.0
        if sym_err > 0.0:
            raise ValueError(f"known entries must be symmetric (max asymmetry {sym_err:.3e})")
        if np.any(d[known] < 0.0):
            raise ValueError("known squared distances must be nonnegative")
        if not known[:a, :a].all() or not known[a:, a:].all():
            raise ValueError("anchor-anchor and node-node blocks must be fully known")
        d.setflags(write=False)
        object.__setattr__(self, "squared_distances", d)
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
        d, known, a = entries(doc, "squared_distances", "known_mask", "n_anchors")
        return cls(_grid(d, _number), _grid(known, _flag), a)


def noise_keys(sigmas, seeds, kinds) -> tuple[np.ndarray, np.ndarray]:
    """The (seeds, stream kinds) of the generators simulate_batch takes for noise
    levels sigmas (B, 3) and seeds (B,), in the order it takes them: for each of
    `kinds`, in MEASUREMENT_KINDS order, the seeds of the items it is noisy on. A
    noiseless kind (range rates at sigma 0) takes none."""
    noisy = np.reshape(sigmas, (-1, 3)).T > 0.0  # row k: kind k's sigmas, its stream k
    noisy[[kind not in kinds for kind in MEASUREMENT_KINDS]] = False
    which, items = np.nonzero(noisy)
    return np.asarray(seeds, dtype=np.uint64)[items], which


def _draws(sigmas, rngs, shape, count: int = 1) -> np.ndarray:
    """`count` zero-mean Gaussian (A, K) arrays per item, stacked (count, B, A, K),
    all of item i's from one call on the next generator of `rngs` and scaled by
    sigmas[i] as Generator.normal scales (0.0 + sigma * z); zeros, and no
    generator taken, where it is 0."""
    z = np.zeros((len(sigmas), count) + shape)
    for i in np.flatnonzero(sigmas > 0.0):
        next(rngs).standard_normal(out=z[i])
    return np.moveaxis(0.0 + sigmas[:, None, None, None] * z, 1, 0)


def simulate_batch(anchor_xyz, world, sigmas, rngs, kinds, velocities=None):
    """Noisy observations of B bodies at once: world node positions (B, K, 3)
    and, for range rates, node velocities (B, K, 3). Body i has the noise
    levels sigmas[i] (range, angle and range-rate standard deviations, as
    NoiseModel.sigmas). `rngs` yields the generators of noise_keys(sigmas,
    seeds, kinds), the streams of each body's seed, and is left at the first
    generator after them; each item is exactly what the body gets alone.

    Returns (ranges (B, A, K), aoa (B, A, K, 2), range rates (B, A, K)),
    each None unless its kind is requested. Negative noisy ranges are
    clamped at zero with one RangeClampWarning for the batch. The aoa hold
    (azimuth, elevation) = (atan2(dy, dx) wrapped to (-pi, pi], asin(dz /
    distance)), with azimuth 0 straight above or below an anchor.
    """
    unknown = set(kinds) - set(MEASUREMENT_KINDS)
    if unknown:
        raise ValueError(f"unknown measurement kinds: {sorted(unknown)}")
    rngs = iter(rngs)
    delta = world[:, None, :, :] - anchor_xyz[:, None, :]
    dist = np.linalg.norm(delta, axis=-1)
    ranges = aoa = rates = None
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1, 3).T  # range, angle, rate
    noisy = sigmas[:, :, None, None] > 0.0
    if "range" in kinds:
        noise = _draws(sigmas[0], rngs, dist.shape[1:])[0]
        ranges = np.where(noisy[0], dist + noise, dist)
        clamped = int(np.sum(ranges < 0.0))
        if clamped:
            warnings.warn(f"clamped {clamped} negative noisy ranges to 0", RangeClampWarning)
            ranges = np.maximum(ranges, 0.0)
    if "aoa" in kinds:
        if np.any(dist <= 0.0):
            raise UndefinedBearingError("node coincides with an anchor; bearing undefined")
        azimuth = np.arctan2(delta[..., 1], delta[..., 0])
        elevation = np.arcsin(np.clip(delta[..., 2] / dist, -1.0, 1.0))
        az_noise, el_noise = _draws(sigmas[1], rngs, dist.shape[1:], 2)
        azimuth = np.where(noisy[1], wrap_angle(azimuth + az_noise), azimuth)
        elevation = np.where(noisy[1], elevation + el_noise, elevation)
        aoa = np.stack([azimuth, elevation], axis=-1)
    if "range_rate" in kinds:
        if np.any(dist <= 0.0):
            raise UndefinedDirectionError("node coincides with an anchor; direction undefined")
        rates = np.einsum("...akd,...kd->...ak", delta / dist[..., None], velocities)
        noise = _draws(sigmas[2], rngs, dist.shape[1:])[0]
        rates = np.where(noisy[2], rates + noise, rates)
    return ranges, aoa, rates


def simulate_measurements(
    anchors: AnchorSet,
    state: RigidBodyState,
    noise: NoiseModel,
    kinds: tuple[str, ...] = ("range",),
) -> MeasurementSet:
    """Simulate the requested measurement types with a fully-observed mask."""
    world = state.world_nodes()
    velocities = node_velocities(state)[None] if "range_rate" in kinds else None
    rngs = streams(*noise_keys(noise.sigmas, [noise.seed], kinds))
    observed = simulate_batch(anchors.anchors, world[None], [noise.sigmas], rngs, kinds, velocities)
    mask = np.ones((anchors.num_anchors, len(world)), dtype=bool)
    return MeasurementSet(mask, *(None if m is None else m[0] for m in observed))


def bernoulli_keep(rngs, p: float, shape) -> np.ndarray:
    """The (B, *shape) links that survive independent blockage with
    probability p in [0, 1], one mask from each of the B generators `rngs`,
    each item's seed's STREAM_BLOCKAGE, so each item is the same in any stack."""
    return np.array([rng.random(shape) for rng in rngs]) >= p


@by_value
def hull_facets(nodes) -> np.ndarray:
    """Node-index triples (F, 3) spanning the distinct facet planes of the
    convex hull of `nodes` (K, 3), each ordered so that
    (n_j - n_i) x (n_l - n_i) points out of the hull.

    A triple spans a facet when every node lies on one side of its plane,
    within 1e-11 of the nodes' extent: well under the 1e-9 thickness that
    Conformation's rank test asks of a solid body, well over rounding. Of
    the triples through the same nodes, the first in index order stands for
    the plane. A rotation keeps both which triples qualify and their
    handedness, so a body's facets found in its own frame hold at every
    pose. A collinear or flat node set (by the rank test) has no interior
    and raises InvalidPolicyError. Memoized by value, read-only.
    """
    rank = affine_rank(nodes)
    if rank < 3:
        cause = "collinear" if rank < 2 else "coplanar"
        raise InvalidPolicyError(f"hull self-occlusion needs a solid body; the nodes are {cause}")
    k = len(nodes)
    extent = np.ptp(nodes, axis=0).max()
    tol = 1e-11 * extent
    triples = np.array(list(itertools.combinations(range(k), 3)))
    p0, p1, p2 = (nodes[triples[:, c]] for c in range(3))
    normals = cross(p1 - p0, p2 - p0)
    length = np.linalg.norm(normals, axis=1)
    spans = length > tol * extent  # not collinear
    triples, normals = triples[spans], normals[spans] / length[spans, None]
    offsets = (normals * p0[spans]).sum(axis=1)
    facets, planes = [], []
    for c in range(0, len(triples), k * k):
        # Every node's signed distance from K^2 planes at a time: O(K^3) memory.
        dist = normals[c : c + k * k] @ nodes.T - offsets[c : c + k * k, None]
        above, below = (dist > tol).any(axis=1), (dist < -tol).any(axis=1)
        facet = above ^ below
        # Nodes above the plane: swap j and l to turn the normal outward.
        t = triples[c : c + k * k][facet]
        facets.extend(np.where(above[facet, None], t[:, [0, 2, 1]], t))
        planes.extend(np.abs(dist[facet]) <= tol)
    first = {}
    for triple, plane in zip(facets, planes):
        first.setdefault(plane.tobytes(), triple)
    return np.array(list(first.values()))


# How deep (m) inside every facet plane of a hull a link must run to be
# blocked. Every hull vertex lies on the hull, so a link that only grazes it
# must stay visible: the margin sits well above the rounding of the clip and
# well below the size of any body.
_HULL_MARGIN = 1e-9


def hull_keep(anchor_xyz, world, facets) -> np.ndarray:
    """The (B, A, K) links from anchors (A, 3) to the nodes of B bodies at
    world positions (B, K, 3) that each body's own hull leaves visible; the
    hull's facet planes pass through the node triples `facets` of
    hull_facets. Each body's bits are the same in any stack."""
    p0, p1, p2 = (world[:, facets[:, c]] for c in range(3))
    normals = cross(p1 - p0, p2 - p0)
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    offsets = -(normals * p0).sum(axis=-1)
    # Link (j, k) is blocked when n.(a_j + t (s_k - a_j)) + b <= -margin on every
    # facet for some t in [0, 1]: clip the t interval of all (body, anchor, node,
    # facet) tuples at once. Right operands of shape (3, 1) keep each product a
    # matrix-vector one, which rounds as normals @ vector does.
    num = -((normals[:, None] @ anchor_xyz[:, :, None])[..., 0] + offsets[:, None] + _HULL_MARGIN)
    den = (normals[:, None, None] @ (world[:, None] - anchor_xyz[:, None])[..., None])[..., 0]
    # Facets first, (F, B, A, K): a masked min or max over contiguous rows is fast.
    num = np.moveaxis(num, -1, 0)[..., None]
    den = np.ascontiguousarray(np.moveaxis(den, -1, 0))
    # A facet parallel to the link bounds no t, unless the link lies outside it (num < 0).
    parallel = np.abs(den) < 1e-300
    bound = num / np.where(parallel, 1.0, den)
    hi = np.where(den > 0.0, bound, np.inf).min(axis=0, where=~parallel, initial=1.0)
    lo = np.where(den < 0.0, bound, -np.inf).max(axis=0, where=~parallel, initial=0.0)
    return (lo > hi) | (parallel & (num < 0.0)).any(axis=0)


def apply_blockage(meas: MeasurementSet, keep) -> MeasurementSet:
    """Clear the mask entries the boolean (A, K) mask `keep` leaves out and
    drop the affected values; a mask of another shape raises
    InvalidPolicyError.

    Blockage only ever removes observations. Nodes left with zero observed
    entries are reported with a CoverageWarning (multilateration downstream
    needs at least one observation per node), never silently repaired.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != meas.shape:
        raise InvalidPolicyError(f"keep mask shape {keep.shape} != {meas.shape}")
    keep = meas.mask & keep
    uncovered = ~keep.any(axis=0)
    if uncovered.any():
        nodes = np.flatnonzero(uncovered).tolist()
        warnings.warn(f"nodes {nodes} have no observed entries after blockage", CoverageWarning)
    return MeasurementSet(
        mask=keep, ranges=meas.ranges, aoa=meas.aoa, range_rates=meas.range_rates
    )


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


@by_value
def _squared_blocks(anchor_xyz, nodes):
    """The anchor-anchor and node-node squared distances of a scenario, memoized by value."""
    return pairwise_distances(anchor_xyz) ** 2, pairwise_distances(nodes) ** 2


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
    d[:, :a, :a], d[:, a:, a:] = _squared_blocks(anchor_xyz, nodes)
    d[:, :a, a:] = np.where(mask, ranges**2, np.nan)
    d[:, a:, :a] = d[:, :a, a:].mT
    known[:, :a, a:] = mask
    known[:, a:, :a] = mask.mT
    d[:, np.arange(n), np.arange(n)] = 0.0
    return d, known
