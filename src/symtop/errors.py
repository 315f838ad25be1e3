"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError is reserved for programming errors (bad argument types,
malformed shapes caught at construction).
"""


class SymtopError(Exception):
    """Base class for all library-specific errors."""


class NotAntisymmetric(SymtopError):
    """Matrix passed to vee() is not antisymmetric within tolerance."""


class TooFarFromSO3(SymtopError):
    """Matrix is outside the repairable neighborhood of the rotation group."""


class DimensionMismatch(SymtopError):
    """Chart vector, field, or state does not match the expected space."""


class NotSameLevel(SymtopError):
    """Two points do not share a joint Casimir level."""


class ZeroNu(SymtopError):
    """Orbit operation requires a nonzero nu (c1 > 0)."""


class NotUnit(SymtopError):
    """Vector expected on the unit sphere is not unit length."""


class NotTangent(SymtopError):
    """Vector expected tangent to the sphere at nu is not orthogonal to nu."""


class NonFinite(SymtopError):
    """Integration produced a non-finite state, or reached a singularity."""
