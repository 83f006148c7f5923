"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all subtv errors."""


class DuplicateCoordinate(Error):
    """A condition fixes the same coordinate to two different bits."""


class IndexOutOfRange(Error):
    """A coordinate index is outside the hypercube dimension."""


class DimensionMismatch(Error):
    """Two objects disagree on the hypercube dimension n."""


class InvalidParameter(Error):
    """A tolerance/confidence/count parameter is outside its legal range."""


class BudgetExhausted(Error):
    """A sampling budget ran out before the procedure could finish.

    Carries enough state for callers to emit a partial report.
    """

    def __init__(self, message, draws=0, partial_terms=None):
        super().__init__(message)
        self.draws = draws
        self.partial_terms = tuple(partial_terms or ())


class ParseError(Error):
    """An instance document is malformed."""


class CycleError(Error):
    """Declared order relations are cyclic (not a partial order)."""


class ContradictionError(Error):
    """Orienting a pair would create a cycle; the subcube has zero mass."""


class TooLarge(Error):
    """A bound is passed: LISTING_BYTES, COUNT_CAP, ELEMENT_CAP or the oracle's cap."""


class InvalidEncoding(Error):
    """A free-bit string does not encode any linear extension."""


class ZeroMassPrefix(Error):
    """A conditional marginal was requested under a zero-mass prefix."""


class UsageError(Error):
    """Bad command-line arguments."""
