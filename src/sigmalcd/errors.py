"""Exception types shared across the package."""


class SigmaLcdError(Exception):
    """Base class for all library-specific errors."""


class NotPrime(SigmaLcdError, ValueError):
    pass


class ReducibleModulus(SigmaLcdError, ValueError):
    pass


class DegreeMismatch(SigmaLcdError, ValueError):
    pass


class FieldMismatch(SigmaLcdError, ValueError):
    pass


class DivisionByZero(SigmaLcdError, ZeroDivisionError):
    pass


class EmbeddingMissing(SigmaLcdError, ValueError):
    pass


class LengthMismatch(SigmaLcdError, ValueError):
    pass


class DimensionMismatch(SigmaLcdError, ValueError):
    pass


class BothZero(SigmaLcdError, ValueError):
    pass


class BudgetExceeded(SigmaLcdError, RuntimeError):
    pass


class NoNonzeroWords(SigmaLcdError, ValueError):
    pass


class GcdNotOne(SigmaLcdError, ValueError):
    pass


class NotCyclic(SigmaLcdError, ValueError):
    pass


class BlocksNotCoprime(SigmaLcdError, ValueError):
    pass


class BlocksNotDistinct(SigmaLcdError, ValueError):
    pass


class ConstituentNotTrivial(SigmaLcdError, ValueError):
    pass


class DegreeOdd(SigmaLcdError, ValueError):
    pass


class ComponentNotLcd(SigmaLcdError, ValueError):
    pass


class InverseMissing(SigmaLcdError, ValueError):
    pass


class NotAnIdeal(SigmaLcdError, ValueError):
    pass


class GroupMismatch(SigmaLcdError, ValueError):
    pass


class ImageNotLinear(SigmaLcdError, ValueError):
    pass


class BadInput(SigmaLcdError, ValueError):
    """Malformed or out-of-range input: a token that is not an integer, a
    perm that is not a permutation, an entry outside the field, a
    nonpositive length, a field beyond the table-backed size."""
