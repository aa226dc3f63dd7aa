"""Essential-tuple arithmetic for typed ordered fuzzy numbers.

A typed OFN over a base h is a pair of side functions

    up(alpha)   = up_slope   * h(alpha) + up_offset
    down(alpha) = down_slope * h(alpha) + down_offset

so the number is captured by the four coefficients (the essential tuple) plus
the base tag.  Addition, subtraction, multiplication and division act
componentwise on the tuples, which makes each fixed-base family a commutative
ring with zero (0,0,0,0) and unit (1,1,1,1).  Division is strict: any zero
component in the divisor raises.

Rectangular tuples (both slopes zero) are base-polymorphic: they combine with
operands of any base and the result adopts the typed operand's base.  Mixing
two genuinely typed bases raises MixedTypeError.

Side values at alpha=0 may be infinite for unbounded bases; infinities are
ordinary signed floats here, never sentinels.  Side values and the side order
never form 0 * inf or inf - inf: a side with slope 0 is its offset at every
alpha in [0, 1], and the gap between the sides is taken from halved
coefficients when a difference would overflow.

One number rule checks each coefficient a caller passes in: an int or a float,
not a bool, whose float value is finite, so an int beyond the float range is
refused, and the float is what is kept.  EssentialTuple(...), Side(...) and
scalar_mul() apply it.  TypedOfn(...) requires a registered base tag and an
EssentialTuple, whose numbers have passed the rule.  typed() and its
shorthands check the numbers with EssentialTuple(...) and the tag with
get_base, then build through TypedOfn._make; the expression parser builds
through typed().  Interval(...) applies the rule but for finiteness, since an
end may be infinite.  The document loader resolves the tag to its registry
record itself, checks the numbers through EssentialTuple(...), and joins the
two with TypedOfn._make, which looks nothing up again.  Ring results skip the
checks: _result builds a number from components computed out of checked
operands, so it tests them only for overflow (ArithmeticOverflow) and uses
the operands' base tag as it is.  The sides of a number (up_side, down_side)
are built unchecked too, by Side._make.  Each checked constructor checks its
arguments and then sets the slots through the generic _Value.__init__; code
that builds from values it has already checked calls the class's _make.
"""
from __future__ import annotations

import math
import operator
from math import isfinite
from typing import Callable, Literal

from .bases import IDENTITY, BaseFunction, _Value, get_base
from .errors import ArithmeticOverflow, DivisionByZero, DomainError, MixedTypeError

SideName = Literal["up", "down"]

Orientation = Literal["increasing", "decreasing", "degenerate"]


_FIELDS = ("up_slope", "up_offset", "down_slope", "down_offset")


def _number(v: object, field: str) -> float:
    """The number rule: v as a float if it is a finite int or float, not a bool."""
    if v.__class__ is float and isfinite(v):  # the common case, decided at once
        return v
    if v.__class__ is not bool and isinstance(v, (int, float)):
        try:
            f = float(v)
        except OverflowError:  # an int too large for a float
            f = math.inf
        if isfinite(f):
            return f
    raise DomainError(f"{field} must be finite, got {v!r}")


class EssentialTuple(tuple):
    """(up_slope, up_offset, down_slope, down_offset); ordering is lexicographic.

    A tuple of four finite floats, so equality, hashing and order are the
    tuple's own.  Four floats whose sum is finite are all finite and are taken
    at once; any other value goes through the number rule.
    """

    __slots__ = ()

    def __new__(cls, up_slope: float, up_offset: float,
                down_slope: float, down_offset: float) -> "EssentialTuple":
        if (up_slope.__class__ is up_offset.__class__ is down_slope.__class__
                is down_offset.__class__ is float
                and isfinite(up_slope + up_offset + down_slope + down_offset)):
            return tuple.__new__(cls, (up_slope, up_offset, down_slope, down_offset))
        return tuple.__new__(cls, (_number(up_slope, "tuple component up_slope"),
                                   _number(up_offset, "tuple component up_offset"),
                                   _number(down_slope, "tuple component down_slope"),
                                   _number(down_offset, "tuple component down_offset")))

    up_slope = property(operator.itemgetter(0))
    up_offset = property(operator.itemgetter(1))
    down_slope = property(operator.itemgetter(2))
    down_offset = property(operator.itemgetter(3))

    def __getnewargs__(self) -> tuple[float, float, float, float]:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(_FIELDS, self))
        return f"EssentialTuple({fields})"

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


class Interval(_Value):
    """A closed interval; endpoints may be infinite."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        _Value.__init__(self, *_endpoints(lo, hi))

    def contains_value(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def encloses(self, other: "Interval") -> bool:
        """True when `other` is a subset of self."""
        return self.lo <= other.lo and other.hi <= self.hi


def _endpoints(lo: object, hi: object) -> tuple[float, float]:
    """The endpoints as floats if each is an int or float, not a bool, and lo <= hi.

    The number rule without its finiteness test: an endpoint may be infinite,
    but not NaN, and an int beyond the float range is refused.
    """
    if (lo.__class__ is not bool and hi.__class__ is not bool
            and isinstance(lo, (int, float)) and isinstance(hi, (int, float))):
        try:
            flo, fhi = float(lo), float(hi)
        except OverflowError:  # an int too large for a float
            flo = fhi = math.nan
        if flo <= fhi:  # False for NaN
            return flo, fhi
    raise DomainError(f"bad interval [{lo}, {hi}]")


class Side(_Value):
    """One affine-in-h side, carrying its own base tag.

    TypedOfn keeps both sides on a single base; Side exists so that level-set
    and membership geometry can also be asked about classic mixed-base pairs
    such as (sqrt(alpha), 2 - alpha).
    """

    __slots__ = ("base", "slope", "offset")

    def __init__(self, base: str, slope: float, offset: float) -> None:
        get_base(base)
        _Value.__init__(self, base, _number(slope, "side slope"), _number(offset, "side offset"))

    def value(self, alpha: float) -> float:
        return _affine(get_base(self.base), self.slope, self.offset, alpha)

    def value_limits(self) -> tuple[float, float]:
        """(value at alpha -> 0, value at alpha = 1), extended reals."""
        b = get_base(self.base)
        return (_affine(b, self.slope, self.offset, 0.0),
                self.slope * b.value_at_one + self.offset)


def _affine(b: BaseFunction, slope: float, offset: float, alpha: float) -> float:
    h = b.value(alpha)  # checks alpha, for a constant side too
    return offset if slope == 0.0 else slope * h + offset


class TypedOfn(_Value):
    """A typed ordered fuzzy number: base tag plus essential tuple; immutable."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: str, coeffs: EssentialTuple) -> None:
        get_base(base)
        if not isinstance(coeffs, EssentialTuple):
            raise DomainError(f"coeffs must be an EssentialTuple, got {coeffs!r}")
        _Value.__init__(self, base, coeffs)

    @property
    def is_rectangular(self) -> bool:
        return self.coeffs.up_slope == 0.0 and self.coeffs.down_slope == 0.0

    def up_side(self) -> Side:
        return Side._make(self.base, self.coeffs.up_slope, self.coeffs.up_offset)

    def down_side(self) -> Side:
        return Side._make(self.base, self.coeffs.down_slope, self.coeffs.down_offset)

    def __add__(self, other: "TypedOfn") -> "TypedOfn":
        return add(self, other)

    def __sub__(self, other: "TypedOfn") -> "TypedOfn":
        return sub(self, other)

    def __mul__(self, other: "TypedOfn") -> "TypedOfn":
        return mul(self, other)

    def __truediv__(self, other: "TypedOfn") -> "TypedOfn":
        return div(self, other)

    def __neg__(self) -> "TypedOfn":
        return neg(self)


_make_typed = TypedOfn._make


def typed(base: str, up_slope: float, up_offset: float,
          down_slope: float, down_offset: float) -> TypedOfn:
    coeffs = EssentialTuple(up_slope, up_offset, down_slope, down_offset)
    get_base(base)
    return _make_typed(base, coeffs)


def trapezoid(up_slope: float, up_offset: float,
              down_slope: float, down_offset: float) -> TypedOfn:
    """Identity-base OFN (affine sides in alpha)."""
    return typed(IDENTITY, up_slope, up_offset, down_slope, down_offset)


def rectangular(up_offset: float, down_offset: float, base: str = IDENTITY) -> TypedOfn:
    return typed(base, 0.0, up_offset, 0.0, down_offset)


def crisp(v: float, base: str = IDENTITY) -> TypedOfn:
    return rectangular(v, v, base)


def zero(base: str = IDENTITY) -> TypedOfn:
    return typed(base, 0.0, 0.0, 0.0, 0.0)


def one(base: str = IDENTITY) -> TypedOfn:
    return typed(base, 1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# evaluation and geometry
# ---------------------------------------------------------------------------

def side_eval(x: TypedOfn, which: SideName, alpha: float) -> float:
    """Value of one side at alpha; may be +-inf at alpha=0 for unbounded bases."""
    b = get_base(x.base)
    t = x.coeffs
    if which == "up":
        return _affine(b, t.up_slope, t.up_offset, alpha)
    if which == "down":
        return _affine(b, t.down_slope, t.down_offset, alpha)
    raise DomainError(f"side must be 'up' or 'down', got {which!r}")


def sampled_sides(x: TypedOfn, alpha: float) -> tuple[float, float]:
    """(up, down) at alpha, as the sample and plot outputs write them.

    Only the pole of an unbounded base, alpha = 0, gives +-inf; any other side
    value that is not finite overflowed and raises ArithmeticOverflow.
    """
    b = get_base(x.base)
    t = x.coeffs
    u = _affine(b, t.up_slope, t.up_offset, alpha)
    d = _affine(b, t.down_slope, t.down_offset, alpha)
    if (alpha > 0.0 or not b.unbounded) and not (math.isfinite(u) and math.isfinite(d)):
        raise ArithmeticOverflow(f"overflow: a side value at alpha={alpha!r} is not finite")
    return u, d


def level_set(x: TypedOfn, alpha: float) -> Interval:
    return level_set_of_sides(x.up_side(), x.down_side(), alpha)


def level_set_of_sides(up: Side, down: Side, alpha: float) -> Interval:
    """Level set of an arbitrary (possibly mixed-base) side pair."""
    u = up.value(alpha)
    d = down.value(alpha)
    return Interval(min(u, d), max(u, d))


def _gap(b: BaseFunction, up_slope: float, up_offset: float,
         down_slope: float, down_offset: float) -> tuple[float, float]:
    """The gap down - up at alpha -> 0 and at alpha = 1 (halved if it overflows).

    Taking the coefficient differences first makes sides that meet at an
    endpoint give an exact zero there.  Halving is exact for floats large
    enough to overflow a difference, and their halves differ by a finite amount.
    """
    slope, offset = down_slope - up_slope, down_offset - up_offset
    if math.isinf(slope) or math.isinf(offset):
        slope = 0.5 * down_slope - 0.5 * up_slope
        offset = 0.5 * down_offset - 0.5 * up_offset
    g1 = slope * b.value_at_one + offset
    g0 = offset if slope == 0.0 else slope * b.limit_at_zero + offset
    return g0, g1


def _up_is_low(g0: float, g1: float) -> bool:
    """The side order: the gap near alpha=0 decides; at alpha=1 it breaks a tie."""
    return g0 > 0.0 or (g0 == 0.0 and g1 >= 0.0)


def _orientation(identical: bool, g0: float, g1: float) -> Orientation:
    """The orientation of sides that are identical or have the gaps g0, g1."""
    if identical:
        return "degenerate"
    return "increasing" if _up_is_low(g0, g1) else "decreasing"


def orientation(x: TypedOfn) -> Orientation:
    """Increasing when up is the low side; identical sides are degenerate."""
    t = x.coeffs
    return _orientation(t.up_slope == t.down_slope and t.up_offset == t.down_offset,
                        *_gap(get_base(x.base), *t))


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _result_base(x: TypedOfn, y: TypedOfn) -> str:
    if x.base == y.base:
        return x.base
    if x.is_rectangular:
        return y.base
    if y.is_rectangular:
        return x.base
    raise MixedTypeError(
        f"cannot combine base {x.base!r} with base {y.base!r}; "
        "arithmetic across types is not defined")


def _result(base: str, up_slope: float, up_offset: float,
            down_slope: float, down_offset: float) -> TypedOfn:
    """A computed number; a component beyond the float range is ArithmeticOverflow.

    The components come from checked operands, so only their finiteness is
    tested, and `base` is already a registered tag.
    """
    if not (isfinite(up_slope) and isfinite(up_offset)
            and isfinite(down_slope) and isfinite(down_offset)):
        values = (up_slope, up_offset, down_slope, down_offset)
        name, v = next((n, v) for n, v in zip(_FIELDS, values) if not isfinite(v))
        raise ArithmeticOverflow(f"overflow: tuple component {name} must be finite, got {v!r}")
    return _make_typed(base, tuple.__new__(EssentialTuple,
                                           (up_slope, up_offset, down_slope, down_offset)))


def add(x: TypedOfn, y: TypedOfn) -> TypedOfn:
    a, b = x.coeffs, y.coeffs
    return _result(_result_base(x, y), a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def sub(x: TypedOfn, y: TypedOfn) -> TypedOfn:
    a, b = x.coeffs, y.coeffs
    return _result(_result_base(x, y), a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def mul(x: TypedOfn, y: TypedOfn) -> TypedOfn:
    a, b = x.coeffs, y.coeffs
    return _result(_result_base(x, y), a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3])


def div(x: TypedOfn, y: TypedOfn) -> TypedOfn:
    """x / y componentwise; a zero divisor component is refused before the bases are."""
    a, b = x.coeffs, y.coeffs
    if 0.0 in b:
        raise DivisionByZero(
            f"divisor tuple {b.as_tuple()} has a zero component")
    return _result(_result_base(x, y), a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3])


def neg(x: TypedOfn) -> TypedOfn:
    return scalar_mul(-1.0, x)


def scalar_mul(r: float, x: TypedOfn) -> TypedOfn:
    """Scale all four components by r (not the same as mul by crisp(r))."""
    r = _number(r, "scalar")  # a float, so the components stay floats
    us, uo, ds, do = x.coeffs
    return _result(x.base, r * us, r * uo, r * ds, r * do)
