"""Exception hierarchy shared by all engine modules."""

import numpy as np


class MixedCurvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MixedCurvError):
    pass


class SingularEvaluationError(MixedCurvError):
    """Division by zero, domain violation or non-finite intermediate.

    Carries the chart point at which evaluation failed when known, and the
    message without it as ``reason``.  ``at`` is the index of the first
    failing entry of an array operand, when the operation that raised knows
    it and not yet the point.
    """

    def __init__(self, message, point=None, at=None):
        super().__init__(message if point is None else f"{message} at point {tuple(point)}")
        self.reason = message
        self.point = None if point is None else tuple(point)
        self.at = at


def member_point(point, at):
    """The point that an error of the batch member at index ``at`` names,
    where the batch has the node axis first: on a node bundle, whose point
    is the tuple of its nodes, that member's node; at node seeds, whose
    point is one array of node values per coordinate, that node's
    coordinates; at one point's 0-d seeds, those coordinates; else (or
    with no index) ``point`` itself."""
    if at is None or not point or not isinstance(point[0], (tuple, np.ndarray)):
        return point
    if isinstance(point[0], tuple):
        return point[at[0]]
    return tuple(float(c[at[0]]) if np.ndim(c) else float(c) for c in point)


class ExprError(MixedCurvError):
    pass


class ExprSyntaxError(ExprError):
    """Syntax error with a byte offset and the token set expected there."""

    def __init__(self, offset, expected, message):
        super().__init__(f"{message} (offset {offset}, expected one of {sorted(expected)})")
        self.offset = offset
        self.expected = frozenset(expected)
        self.reason = message


class NameResolutionError(ExprError):
    def __init__(self, name, offset=None):
        super().__init__(f"undeclared identifier {name!r}")
        self.name = name
        self.offset = offset


class SpecFormatError(MixedCurvError):
    """Malformed structure spec file."""


class DomainError(MixedCurvError):
    """Point outside the declared domain box."""


class DegenerateDistributionError(SingularEvaluationError):
    """No frame candidate with |g(v,v)| above the degeneracy tolerance."""


class SignatureInstabilityError(MixedCurvError):
    """Frame signs flip between sample points of the domain box."""


class ClassificationError(MixedCurvError):
    """Declared variation class contradicts the computed block decomposition."""


class SpecializationError(MixedCurvError):
    """An operation was asked for on a structure outside its specialization
    (e.g. a flow equation with dim(D-tilde) != 1)."""


class SupportError(MixedCurvError):
    """Variation not negligible on the integration box boundary."""
