"""Exception hierarchy.

Everything a caller can mishandle derives from ValidationError; internal
cross-check failures (two routes to the same number disagreeing) derive
from ConsistencyError and indicate a bug, not bad input.
"""


class Ews32Error(Exception):
    """Base for all package errors."""


class ValidationError(Ews32Error):
    """Input violates a maintained assumption or a precondition."""


class NonStochasticColumns(ValidationError):
    """A distributive-share column does not sum to one."""


class OutOfRangeShare(ValidationError):
    """A finite share lies outside the open interval (0, 1)."""


class RankingViolation(ValidationError):
    """The factor-intensity ranking or the middle-factor ranking fails."""


class InvalidAes(ValidationError):
    """An Allen-elasticity tensor, or the completion it is analysed as,
    violates symmetry, own-negativity, homogeneity, or strict
    quasi-concavity; `report` is the failing ValidityReport. A tensor of
    the wrong shape is a ParseError."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DegenerateT(ValidationError):
    """The labor-land substitution term is too close to zero for the
    ratio vector to be meaningful."""


class GenerationExhausted(ValidationError):
    """Rejection sampling hit its attempt cap without a valid draw."""


class NonPositiveLevels(ValidationError):
    """A finite endowment or price level is not strictly positive."""


class InconsistentLevels(ValidationError):
    """Factor income implied by the levels does not match the share table,
    so the aggregate substitution matrix would not be symmetric."""


class AsymptotePole(ValidationError):
    """Boundary curve evaluated at its vertical asymptote."""


class OnLine(ValidationError):
    """The ratio vector sits on a border line; no sign pattern is defined
    there."""


class Infeasible(ValidationError):
    """The ratio vector lies on the wrong side of the boundary curve for
    its claimed sign."""


class ParseError(ValidationError):
    """A scenario file is malformed, or a value is not finite numbers of
    the shape its function needs (a NaN, a string or a wrong shape, from
    a document or from a library caller alike)."""


class ConsistencyError(Ews32Error):
    """Two independent computations of the same quantity disagree."""


class UnmatchedSignature(ConsistencyError):
    """A sign signature matched no row of the subregion table."""


class ClosedFormMismatch(ConsistencyError):
    """A closed-form value disagrees with its dense-linear-algebra oracle."""


class SingularSystem(ConsistencyError):
    """The comparative-statics system is numerically singular; unreachable
    for valid inputs."""
