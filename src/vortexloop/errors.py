"""Exception types shared across the package."""

from __future__ import annotations


class VortexLoopError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(VortexLoopError):
    """A JSON document does not match the expected schema."""


class MorseViolation(VortexLoopError):
    """A zero of the density has a vanishing or unresolvably small derivative."""


class OddZeroCount(VortexLoopError):
    """The density has an odd number of sign changes, which cannot happen
    for a transversally vanishing periodic density."""


class AlternationViolation(VortexLoopError):
    """Consecutive partial vorticities fail to alternate in sign, or one of
    them vanishes; usually a symptom of a missed zero."""


class OutOfRange(VortexLoopError):
    """A requested cumulative value lies outside the reachable range of the
    segment, or an output number is not finite, which JSON cannot write."""


class NoSymmetry(VortexLoopError):
    """The vorticity profile admits no proper symmetry step, so the
    stabilizer is trivial."""


class ProfileMismatch(VortexLoopError):
    """Two vorticity profiles do not match at the requested shift."""


class OrientationError(VortexLoopError):
    """A loop is negatively oriented and auto-orientation was not requested."""


class ConstraintViolation(VortexLoopError):
    """A tangent vector violates the area-preservation constraint beyond the
    projection threshold."""


class StepRejected(VortexLoopError):
    """A time step's local error estimate exceeded the allowed bound."""


class ValidationFailed(VortexLoopError):
    """A loop failed geometric validation (self-intersection or a degenerate
    parametrization)."""
