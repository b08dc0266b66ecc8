"""Exception types shared across the package."""


class JacobiLiftError(Exception):
    """Base class for all package errors."""


class InexactDivisionError(JacobiLiftError):
    """Raised when a division that must be exact leaves a remainder."""


class PrecisionError(JacobiLiftError):
    """Raised when an operation needs more q-precision than is available."""


class ValidationError(JacobiLiftError):
    """Raised when structured input (invariants, CLI arguments) is inconsistent."""


class IdentityError(JacobiLiftError):
    """Raised when a checked algebraic identity or divisibility fails."""
