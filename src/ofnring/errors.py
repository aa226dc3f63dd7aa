"""Exception hierarchy shared across the package.

Every error raised on purpose derives from OfnError so callers can tell
semantic failures from plain bugs.  Each class carries the CLI's exit code.
"""


class OfnError(Exception):
    """Base class for all deliberate failures."""
    exit_code = 4  # a failure of the mathematics; bad input is 2, mixed types 3


class DomainError(OfnError):
    """An argument is outside the function's domain (alpha, grids, corners)."""
    exit_code = 2


class ArithmeticOverflow(OfnError):
    """A ring operation on finite tuples produced a component beyond float range."""


class RangeError(OfnError):
    """An inverse was queried outside the closure of the function's range."""


class UnknownBaseError(OfnError):
    """A base tag is not in the registry."""
    exit_code = 2


class MixedTypeError(OfnError):
    """Arithmetic attempted across distinct bases (and neither side rectangular)."""
    exit_code = 3


class DivisionByZero(OfnError, ZeroDivisionError):
    """A divisor tuple has a zero component, or a corner divisor is zero."""


class ImproperError(OfnError):
    """An operation required a proper ordered fuzzy number."""


class DegenerateError(OfnError):
    """A membership branch degenerated over a nontrivial interval."""


class WrongPathology(OfnError):
    """A targeted correction was applied to the wrong pathology class."""


class DegreeCapError(OfnError):
    """A piecewise-polynomial product exceeded the degree cap."""


class NegativeCycle(OfnError):
    """The digraph contains a cycle whose total weight keeps improving."""


class ParseError(OfnError):
    """Expression text failed to parse; `position` is a 0-based offset."""
    exit_code = 2

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DocumentError(OfnError):
    """A JSON document does not match the expected shape."""
    exit_code = 2
