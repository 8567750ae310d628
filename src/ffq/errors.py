"""Exception types shared across the library.

Plain ``ZeroDivisionError`` is used for division by zero / inversion of zero;
everything domain-specific gets a named class so callers can react precisely.
"""


class FfqError(Exception):
    """Base class for all library errors."""


class NotPrime(FfqError, ValueError):
    """Field characteristic failed the primality test."""


class Reducible(FfqError, ValueError):
    """Supplied extension modulus is not irreducible."""


class DegreeMismatch(FfqError, ValueError):
    """Polynomial degree does not match the declared one."""


class FieldMismatch(FfqError, ValueError):
    """Operands belong to different field contexts."""


class BothZero(FfqError, ValueError):
    """gcd(0, 0) is undefined."""


class DegreeError(FfqError, ValueError):
    """Degree precondition violated (e.g. composition argument too large)."""


class NotSquarefree(FfqError, ValueError):
    """Operation requires a squarefree polynomial."""


class BadInput(FfqError, ValueError):
    """Structurally invalid argument."""


class TooLarge(FfqError, ValueError):
    """Input exceeds a documented guard rail."""


class CapExceeded(FfqError, RuntimeError):
    """Iterated order search walked past its cap."""


class OracleExhausted(FfqError, RuntimeError):
    """Order oracle failed: the first estimate and all
    ``ddf.FALLBACK_ESTIMATES`` estimates after the strip found no order."""


class InvariantViolation(FfqError, RuntimeError):
    """A runtime self-audit failed; indicates a bug."""


class ParseError(FfqError, ValueError):
    """Text input could not be parsed."""
