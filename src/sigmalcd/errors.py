"""Exception types shared across the package.

One class per built-in base a caller may catch.  The base class itself is
raised only by defensive invariant checks that no valid input reaches.
"""


class SigmaLcdError(Exception):
    """Base class for all library-specific errors."""


class BadInput(SigmaLcdError, ValueError):
    """Malformed, out-of-range or mismatched input: a token that is not an
    integer, a perm that is not a permutation, an entry outside the field,
    operands over different fields or of different lengths, a field beyond
    the table-backed size, a precondition of a criterion that fails."""


class DivisionByZero(SigmaLcdError, ZeroDivisionError):
    pass


class BudgetExceeded(SigmaLcdError, RuntimeError):
    pass
