"""Exception types shared across the package."""


class AwpaError(Exception):
    """Base class for all errors raised by this package."""


class BadSpec(AwpaError):
    """Malformed algebra description (inconsistent dimensions, bad params)."""


class NotAssociative(BadSpec):
    pass


class NoUnit(BadSpec):
    pass


class GradingViolation(BadSpec):
    pass


class DegenerateTrace(BadSpec):
    pass


class NakayamaInfiniteOrder(BadSpec):
    pass


class BadParams(BadSpec):
    pass


class AlgebraMismatch(AwpaError):
    """Operands built over different Frobenius algebras."""


class SizeMismatch(AwpaError):
    """Operands with different slot counts n."""


class DimensionMismatch(AwpaError):
    pass


class NotPolynomial(AwpaError):
    """Element has a nontrivial permutation part where one is not allowed."""


class ZeroElement(AwpaError):
    pass


class BadAutomorphismParams(AwpaError):
    pass


class NotPsiFixed(BadParams):
    pass


class WrongDegree(BadParams):
    pass


class OddParity(BadParams):
    pass


class LevelZero(BadParams):
    pass


class ParamsMismatch(AwpaError):
    pass


class TooLarge(AwpaError):
    """Requested exact computation exceeds the configured size bound."""


class ParseError(AwpaError):
    pass


class InternalInconsistency(AwpaError):
    """Two independent computations of the same mathematical fact disagree.

    Raised by the package's cross-checks, which stay active under python -O."""
