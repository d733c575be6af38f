"""Exception types shared across the library.

Every error condition a caller can trigger maps to one of these; the CLI
translates them to exit codes (config errors -> 2, size caps -> 3).
"""


class MacPolarError(Exception):
    """Base class for all library errors."""


class NotFullRankError(MacPolarError, ValueError):
    """Matrix does not have the full rank required by the operation."""


class AmbientMismatchError(MacPolarError, ValueError):
    """Subspaces live in different ambient spaces (m or q differ)."""


class BadIndexSetError(MacPolarError, ValueError):
    """User index set is empty or out of range."""


class BadRowSumError(MacPolarError, ValueError):
    """A conditional probability row, or a vector of channel weights, does
    not sum to one."""


class NegativeProbabilityError(MacPolarError, ValueError):
    """A conditional probability entry is negative, or a channel weight is
    not positive."""


class NonFiniteError(MacPolarError, ValueError):
    """A probability, weight or state entry is NaN or infinite."""


class BadToleranceError(MacPolarError, ValueError):
    """A tolerance is NaN or negative."""


class NotSingleUserError(MacPolarError, ValueError):
    """Operation requires a single-user channel (m = 1)."""


class TooLargeError(MacPolarError, ValueError):
    """A configured size cap would be exceeded."""


class TooDeepError(MacPolarError, ValueError):
    """An exact enumeration would expand more states than its cap."""


class SpecMismatchError(MacPolarError, ValueError):
    """Message, codeword or channel is inconsistent with the code spec."""


class BadGridError(MacPolarError, ValueError):
    """Probe grid is empty or malformed."""


class ParseError(MacPolarError, ValueError):
    """Input file could not be parsed; message carries the location."""
