"""Exception types shared across the package.

Every error raised on purpose by this package derives from NclatError so the
CLI can map failures to stable exit codes.
"""


class NclatError(Exception):
    """Base class for all package errors."""


class DuplicatePoint(NclatError):
    """Two configuration points coincide."""


class LabelMismatch(NclatError):
    """Label list length does not match the point list."""


class UnknownFamily(NclatError):
    """Family tag is not one of P, Q, T, U, V, S."""


class EmptyBlock(NclatError):
    """A partition was given an empty block."""


class GroundMismatch(NclatError):
    """Two partitions do not share the same ground set size."""


class TooLarge(NclatError):
    """A size cap was exceeded."""


class NotGraded(NclatError):
    """Operation requires a graded poset."""


class NotRankSymmetric(NclatError):
    """Operation requires a palindromic rank vector."""


class NotNoncrossing(NclatError):
    """A partition argument is not noncrossing for the configuration."""


class InvalidInput(NclatError):
    """Malformed input value."""


class AssemblyFailure(NclatError):
    """A chain-decomposition assembly step could not be completed."""


class Undecided(NclatError):
    """A search used up its work budget before reaching a verdict."""
