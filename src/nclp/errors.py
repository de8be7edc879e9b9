"""Exception hierarchy shared by all nclp modules."""


class NclpError(Exception):
    """Base class for every error raised by this package."""


class EmptyBlocks(NclpError):
    """An algebra was requested with no blocks."""


class NonPositiveDim(NclpError):
    """An algebra block dimension was not a positive integer."""


class ShapeMismatch(NclpError):
    """Block shapes or matrix dimensions do not match the declared algebras."""


class NonFinite(NclpError):
    """Input data contains a NaN or an infinite entry."""


class NonPositiveDensity(NclpError):
    """A density matrix has an eigenvalue below the negativity tolerance."""


class NonFaithful(NclpError):
    """A faithful state was required but the density is singular."""


class SupportViolation(NclpError):
    """A cocycle was requested outside the support of the reference state."""


class ExponentMismatch(NclpError):
    """Exponents of two L_p vectors are not conjugate (1/p + 1/p' = 1)."""


class ExponentUnsupported(NclpError):
    """The requested exponent is outside the operation's admissible range."""


class NotPositive(NclpError):
    """A positive vector was required."""


class NotInvariant(NclpError):
    """The subalgebra is not stable under the modular flow of the state."""

    def __init__(self, defect: float, message: str | None = None):
        self.defect = defect
        super().__init__(message or f"modular invariance defect {defect:.3e}")


class NotAnIsometry(NclpError):
    """Structural extraction failed: the map is not of isometric form."""


class ZeroImage(NclpError):
    """The image of the reference vector vanished."""


class DataInvalid(NclpError):
    """A bundled data triple violates its structural invariants."""


class TraceConditionViolated(NclpError):
    """The trace-matching condition of a Yeadon triple fails on a basis element."""

    def __init__(self, witness, message: str | None = None):
        self.witness = witness
        super().__init__(message or "trace condition fails on a basis element")


class UnknownSuite(NclpError):
    """No verification suite is registered under the requested name."""


class ConfigInvalid(NclpError):
    """A suite configuration has an invalid field."""
