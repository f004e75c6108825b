"""Exception types shared across the package."""


class DFiniteError(Exception):
    """Base class for all package errors."""


class InputError(DFiniteError):
    """Malformed or contract-violating input (CLI exit code 2)."""


class PrecisionTooLow(DFiniteError):
    """A truncated series is too short for the requested operation.

    Carries ``needed`` when the caller can retry with more terms.
    """

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class InsufficientInitialConditions(InputError):
    """Initial terms do not cover a singular recurrence index."""


class InconsistentInitialConditions(InputError):
    """Initial terms contradict the recurrence at a determined index."""


class IrregularPoint(DFiniteError):
    """Local solutions requested at an irregular singular point."""


class NotSquarefree(InputError):
    """A polynomial required to be squarefree is not."""


class RootNotSeparable(DFiniteError):
    """No isolated power-series root matches the given initial terms."""


class ZeroDivisorSplit(DFiniteError):
    """Inversion in a quotient ring hit a zero divisor.

    Exposes a proper factorization ``modulus = p * q``; callers
    restart the computation on each factor (dynamic evaluation).
    """

    def __init__(self, factor, cofactor):
        super().__init__("zero divisor splits the modulus")
        self.factor = factor
        self.cofactor = cofactor
