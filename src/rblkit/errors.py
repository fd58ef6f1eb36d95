"""Exception and warning types shared across the toolkit."""

from __future__ import annotations

import operator

import numpy as np


class RblError(Exception):
    """Base class for all toolkit errors."""


class InvalidPoseError(RblError):
    """Rotation matrix is not orthonormal with determinant +1."""


class MissingTwistError(RblError):
    """Operation requires a twist but the state carries none."""


class InvalidIntervalError(RblError):
    """Time interval is negative."""


class DegenerateConformationError(RblError):
    """Node set is collinear or otherwise too degenerate to define a body."""


class UndefinedBearingError(RblError):
    """Angle of arrival is undefined (node coincides with an anchor)."""


class UndefinedDirectionError(RblError):
    """Range-rate direction is undefined (node coincides with an anchor)."""


class InvalidPolicyError(RblError):
    """A blockage is malformed: a keep mask of the wrong shape, or a flat body's hull."""


class IncompleteEdmError(RblError):
    """EDM still has unknown entries where a complete one is required."""


class CompletionInfeasibleError(RblError):
    """EDM completion cannot recover one or more nodes.

    Attributes:
        nodes: indices of body nodes with zero known cross entries.
    """

    def __init__(self, nodes):
        self.nodes = tuple(int(i) for i in nodes)
        super().__init__(
            f"completion infeasible: nodes {self.nodes} have no known cross entries"
        )


class AmbiguousAlignmentError(RblError):
    """Point set is too degenerate for a unique rigid alignment."""


class UnderdeterminedError(RblError):
    """Observation set does not determine the requested parameters."""


class DegenerateEmbeddingError(RblError):
    """Gram matrix lacks three significantly positive eigenvalues."""


class InvalidHeadingError(RblError):
    """Semantic heading vector is not unit norm."""


class UnobservableTwistError(RblError):
    """Range-rate regressor is rank deficient.

    Attributes:
        null_space: (6, m) orthonormal basis of the unobservable directions,
            stacked as (angular 3, linear 3).
    """

    def __init__(self, null_space: np.ndarray):
        self.null_space = np.asarray(null_space, dtype=float)
        super().__init__(f"twist unobservable: {self.null_space.shape[1]}-dimensional null space")


class ConfigError(RblError, ValueError):
    """Scenario or experiment configuration is invalid. Also a ValueError:
    the dataclass a setting fills refuses a value outside its domain the
    same way whether the value came from a document or from code.

    Attributes:
        field: dotted path of the offending entry, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


def converted(kind, value, field: str):
    """kind(value), or a ConfigError on the dotted `field` when kind refuses it."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=field) from None


def entries(doc, *keys) -> list:
    """doc[key] for each key of the JSON object `doc`: a TypeError when doc
    is not an object, a ValueError naming the first missing key."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    return [doc[key] for key in keys]


def exact(kind, value):
    """kind(value) of anything but a bool or a string: int() and float()
    would read those as numbers, and tuple() a string as its characters."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"refused {type(value).__name__} {value!r}")
    return kind(value)


def u64(value) -> int:
    """A seed as an exact int in [0, 2**64), every other integer refused:
    the seeds are folded modulo 2**64, where 2**64 + 5 and 5 would alias."""
    seed = exact(operator.index, value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"must be an unsigned 64-bit integer, got {seed}")
    return seed


class RangeClampWarning(UserWarning):
    """Noisy ranges went negative and were clamped to zero."""


class CoverageWarning(UserWarning):
    """Blockage left one or more nodes without any observed measurement."""
