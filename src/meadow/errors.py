"""Exception types shared across the package."""

__all__ = [
    "MeadowError", "MixedSignatureError", "SignatureError", "ParseError",
    "OpenTermError", "NotRingTermError", "NonSquareFreeError",
    "NotPrimeError", "UnboundVariableError", "InfiniteExhaustiveError",
    "CarrierTooLargeError", "InfiniteCarrierError", "NotPolynomialError",
    "PremiseFailedError", "NoWitnessConstructedError",
]


class MeadowError(Exception):
    """Base class for all domain errors raised by this package."""


class MixedSignatureError(MeadowError):
    """A term mixes binary division with the unary inverse operator."""


class SignatureError(MeadowError):
    """Input text uses syntax that the selected signature does not allow."""


class ParseError(MeadowError):
    """Input text is not a well-formed term.

    Carries the 1-based position of the offending token plus what was
    expected and what was found, so messages are deterministic.
    """

    def __init__(self, message, line, column, expected=None, found=None):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


class OpenTermError(MeadowError):
    """An operation that needs a closed term was given one with variables."""


class NotRingTermError(MeadowError):
    """An operation restricted to ring terms was given a term with division."""


class NonSquareFreeError(MeadowError):
    """No total-division structure of the requested kind exists on Z/kZ.

    Raised when some residue has no weak inverse, which happens exactly
    when k has a squared prime factor (e.g. 2 has no weak inverse mod 4).
    """

    def __init__(self, k):
        super().__init__(f"{k} is not square-free: Z/{k}Z carries no total division")
        self.k = k


class NotPrimeError(MeadowError):
    """A Galois field constructor was given a composite characteristic."""

    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class UnboundVariableError(MeadowError):
    """Evaluation met a variable the assignment does not cover."""

    def __init__(self, name):
        super().__init__(f"no value assigned to variable {name!r}")
        self.name = name


class InfiniteExhaustiveError(MeadowError):
    """Exhaustive checking was requested on a model with infinite carrier."""


class CarrierTooLargeError(MeadowError):
    """A finite model, a sweep or rewrite over it, or a sampled check
    would be too large."""


class InfiniteCarrierError(MeadowError):
    """A finite-carrier operation was applied to an infinite model."""


class NotPolynomialError(MeadowError):
    """Conversion to polynomial form met division or a foreign variable."""


class PremiseFailedError(MeadowError):
    """A verified construction's precondition does not hold in the model."""


class NoWitnessConstructedError(MeadowError):
    """The falsifier's constructed witness failed its own exact verification."""
