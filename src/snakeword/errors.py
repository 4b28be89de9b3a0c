"""Exception types shared across the package."""


class SnakewordError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCharacterError(SnakewordError):
    """A word contained a character other than 0 or 1."""


class LeadingZeroError(SnakewordError):
    """A nonempty word started with 0."""


class EmptyWordError(SnakewordError):
    """The operation needs a nonempty word."""


class CapExceededError(SnakewordError):
    """A brute-force enumeration was asked to run past its size cap."""


class NotASubwordError(SnakewordError):
    """The given word does not embed as a subword of the host word."""


class IndexOutOfRangeError(SnakewordError):
    """A poset element index was outside 1..d."""


class MalformedPathError(SnakewordError):
    """A label path was not a strictly increasing sequence starting at 0."""


class NotAnAntichainError(SnakewordError):
    """The given element set contains two comparable elements."""


class NotAFilterError(SnakewordError):
    """The given element set is not upward closed."""


class NoQualifyingRegionError(SnakewordError):
    """No run of tiles satisfies the filter-region condition (internal
    consistency failure; unreachable for well-formed inputs)."""


class InvariantError(SnakewordError):
    """An internal invariant failed to hold (a bug, not bad input)."""
