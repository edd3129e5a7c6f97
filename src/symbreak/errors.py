"""Exceptions shared across the package."""


class SymbreakError(Exception):
    """Base class for errors raised by this package."""


class CapExceededError(SymbreakError):
    """An operation would exceed a configured enumeration or exhaustion cap.

    Raised instead of silently truncating.  The CLI maps this to exit code 3.
    """

    def __init__(self, message, *, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class InvariantError(SymbreakError):
    """An internal consistency check failed: a bug, not a bad input.

    Raised where a computed result contradicts an identity it must satisfy,
    so the check survives ``python -O``, which strips ``assert``.
    """


class GraphFormatError(SymbreakError):
    """A graph file or graph JSON object could not be parsed.

    ``line`` is the 1-based line number for text-format input, when known.
    """

    def __init__(self, message, *, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
