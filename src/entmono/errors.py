"""Exception types for contract violations.

Everything derives from ``EntmonoError`` (itself a ``ValueError``) so callers
can catch broadly or per condition.
"""


class EntmonoError(ValueError):
    pass


class BadParameter(EntmonoError):
    """A numeric setting (restarts, tol, seed, samples, cmax) out of range."""


# -- state / operator construction and party bookkeeping --

class LengthMismatch(EntmonoError):
    pass


class BadDimension(EntmonoError):
    pass


class EmptyKeepSet(EntmonoError):
    pass


class BadPartySet(EntmonoError):
    pass


class PartyCountMismatch(EntmonoError):
    pass


class BadGrouping(EntmonoError):
    pass


class NonUnitary(EntmonoError):
    pass


class NotHermitian(EntmonoError):
    pass


class NotPositive(EntmonoError):
    pass


class DimensionMismatch(EntmonoError):
    pass


class NotTraceNonincreasing(EntmonoError):
    pass


class ShapeMismatch(EntmonoError):
    pass


# -- monotones --

class BadRank(EntmonoError):
    pass


class SumMismatch(EntmonoError):
    pass


# -- contraction DSL --

class ContractionSyntaxError(EntmonoError):
    """Malformed contraction text; the message carries the offending position."""


class IndexArityError(EntmonoError):
    pass


class SlotArityError(EntmonoError):
    pass


class EpsDimensionError(EntmonoError):
    pass


class DegreeImbalanceError(EntmonoError):
    """Unequal psi and psi* factors evaluated on a density operator."""


class ValueOverflow(EntmonoError):
    """A contraction's value, or its round-off scale, overflows a float."""


class PartyCountUnsupported(EntmonoError):
    pass


class NotSimpleForm(EntmonoError):
    pass


# -- convertibility analysis --

class NotNormalized(EntmonoError):
    pass


class StructureMismatch(EntmonoError):
    pass


class DegreeImbalanceWarning(UserWarning):
    """Contraction has unequal numbers of psi and psi* factors."""
