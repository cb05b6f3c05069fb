"""Exception types shared across the package."""


class JordanNumError(Exception):
    """Base class for all package-specific errors."""


class AlgebraMismatch(JordanNumError):
    """Operands belong to different algebras."""


class StructureError(JordanNumError):
    """Structure tensor or unit fails a construction invariant."""


class ParseError(JordanNumError):
    """Malformed input; a descriptor error carries the byte offset of the
    failure, which the message then names. Other usage errors (config lines,
    grids, element files, formulae) have none: ``offset`` is None."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class NotInvertible(JordanNumError):
    """Jordan inverse does not exist; carries the smallest singular value of
    the refused operator: H, L_a compressed to C[a], or zeta I - H."""

    def __init__(self, message, smallest_singular_value=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class OnSpectrum(JordanNumError):
    """A query point coincides with a spectrum point."""


class BranchCut(JordanNumError):
    """Spectrum touches the closed negative real axis; principal log undefined."""


class ContourViolation(JordanNumError):
    """Spectrum not strictly inside the integration contour."""


class ExpOverflow(JordanNumError):
    """An exponential or a power is too large to represent in double
    precision."""


class QuadratureError(JordanNumError):
    """Contour/Cauchy quadrature failed its stability test."""


class UnsupportedAlgebra(JordanNumError):
    """Operation requires a specific algebra family."""


class InsufficientData(JordanNumError):
    """Too few usable grid points to report convergence."""


class NotSelfAdjoint(JordanNumError):
    """Operation requires a Hermitian element."""


class ZeroFunctional(JordanNumError):
    """Functional vanishes at the unit."""


class NotUMultiplicative(JordanNumError):
    """Functional violates the U-multiplicativity constraint at the unit."""


class BranchTrackingFailed(JordanNumError):
    """Phase unwrapping could not certify a continuous branch."""


class ZeroOnPath(JordanNumError):
    """Functional vanishes along the tracking path."""
