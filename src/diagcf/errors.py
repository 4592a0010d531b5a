"""Exception types shared across the package."""

__all__ = ("DomainError", "InputError", "RangeError")


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class RangeError(ValueError):
    """A count, depth or index exceeds what the input can supply."""


class InputError(ValueError):
    """A stream or row set cannot feed the requested construction."""
