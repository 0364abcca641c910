"""Exception types shared across the package."""


class BchFormsError(ValueError):
    """Base class for all package errors."""


class NotPrime(BchFormsError):
    pass


class InvalidSubfield(BchFormsError):
    pass


class EvenCharacteristic(BchFormsError):
    pass


class OutOfRange(BchFormsError):
    pass


class IndexOutOfTheoremRange(BchFormsError):
    pass


class DegenerateCode(BchFormsError):
    pass


class ArityMismatch(BchFormsError):
    pass


class ParityMismatch(BchFormsError):
    pass


class BudgetExceeded(BchFormsError):
    pass


class NonIntegralResult(BchFormsError):
    pass


class NegativeEntry(BchFormsError):
    pass


class RankZero(BchFormsError):
    pass


class WitnessNotFound(BchFormsError):
    pass


class NotAnMSequence(BchFormsError):
    """A trace vector that is not a linear m-sequence over GF(q)."""


class CountMismatch(BchFormsError):
    """An exhaustive count that disagrees with its known total."""
