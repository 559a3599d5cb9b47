"""Exception types shared across the package."""


class ConespecError(Exception):
    """Base class for all conespec errors."""


class MixedPolesError(ConespecError):
    """A vector would contain both a zero and an infinite entry."""


class EmptySupportError(ConespecError):
    """A weight vector has no positive entries."""


class ZeroRowError(ConespecError):
    """A map coordinate has no positive coefficient at all."""


class DimensionTooLargeError(ConespecError):
    """The generic subset sweep is capped; use the convex fast path instead."""


class NumericRangeError(ConespecError):
    """A value of the problem does not fit the floating-point range."""


class FlagMissingError(ConespecError):
    """An operation requiring a capability flag was called on an unflagged map."""


class ParseError(ConespecError):
    """Positioned syntax error in a map document."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class SemanticError(ConespecError):
    """A map document parsed but violates a semantic rule."""


class ValidationError(ConespecError):
    """A game document violates its schema; `pointer` is a JSON pointer."""

    def __init__(self, message, pointer=""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
