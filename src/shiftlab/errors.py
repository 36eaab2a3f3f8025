"""Exception types shared across the package."""


class ShiftlabError(Exception):
    """Base class for all package errors."""


class AlphabetMismatch(ShiftlabError):
    """Two words (or a word and an oracle) use different alphabets."""


class HorizonExceeded(ShiftlabError):
    """A query needs factor data beyond the oracle's horizon."""


class NotAFactor(ShiftlabError):
    """The queried word is not in the language."""


class PreconditionFailure(ShiftlabError):
    """A documented operation precondition does not hold for the input."""


class InadmissibleMove(ShiftlabError):
    """A graph rewrite whose result violates the structural rules."""


class InvariantViolation(ShiftlabError):
    """An internal consistency check failed; indicates a bug, not bad input."""
