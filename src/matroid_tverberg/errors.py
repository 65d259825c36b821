"""Exception types shared across the package."""


class MatroidTverbergError(Exception):
    """Base class for every error raised by this package."""


class UnknownElement(MatroidTverbergError):
    """An element id is not part of the matroid's ground set."""


class UnknownColor(MatroidTverbergError):
    """An index of a sequence has no color in its coloring."""


class LoopInInput(MatroidTverbergError):
    """The input sequence contains a loop; the solvers require non-loops."""


class PreconditionViolated(MatroidTverbergError):
    """The instance does not meet the documented preconditions of a solver."""


class InternalInvariantBroken(MatroidTverbergError):
    """A runtime invariant of the algorithm failed; this always indicates a bug."""


class BudgetExceeded(MatroidTverbergError):
    """A brute-force enumeration hit one of its fixed caps."""


class InfeasibleRequest(MatroidTverbergError):
    """A random-instance request cannot be satisfied (e.g. length too small)."""


class ParseError(MatroidTverbergError):
    """Instance or partition text could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
