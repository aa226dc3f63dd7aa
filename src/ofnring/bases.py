"""Base functions for typed ordered fuzzy numbers.

A base is a strictly monotone map h on (0, 1] with a closed-form inverse; the
sides of a typed OFN are affine images slope * h(alpha) + offset.  Everything
the rest of the package needs from h lives in one record: evaluation, the
inverse on the closure of the range, the (possibly infinite) limit at 0, the
value at 1, the integral over [0, 1] used by the ranking functional, and the
names it is written under (document tag, render symbol, expression literal).

The registry is closed at import time with the four shipped bases; additional
bases can be registered explicitly and are validated by a monotonicity sweep.
It keeps one map per name field (tag, doc_tag, literal), so finding a base
by any of its names is one dict lookup.

This module also holds _Value, the frozen base of every record class in the
package, because every other module imports this one.
"""
from __future__ import annotations

import math
import re
from operator import attrgetter
from typing import Callable

from .errors import DomainError, RangeError, UnknownBaseError

IDENTITY = "identity"
SQRT = "sqrt"
GAUSSIAN_INVERSE = "gaussian-inverse"
LOG = "log"

# what the expression parser reads as a literal's name, and the literals of
# rectangular numbers with their argument counts, which no base may take
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TYPELESS_ARITY = {"rect": 2, "crisp": 1}


class _Value:
    """A frozen value whose fields are its __slots__, or `_fields` where they differ.

    Fields are read-only.  Two values are equal when they are of the same
    class and their fields are equal, and equal values hash alike; the repr is
    Name(field=value, ...), and pickling and copying call the class with the
    fields in order.  __init__ sets the slots in order, from arguments given
    by position or by slot name; a class that checks its arguments writes its
    own.  `_setters` holds one setter per slot.

    A class of two to five slots also has `_make(*slots)`, which sets the
    slots in order and checks nothing, at about the cost of setting them by
    hand and well under that of __init__.  It is for fields computed from
    values that were already checked, such as a ring result or a report on a
    number, never for what a user passes in.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if vars(cls).get("__slots__"):  # a subclass that adds no slot keeps its parent's
            cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)
            cls._fields = vars(cls).get("_fields", cls.__slots__)
            cls._field_values = attrgetter(*cls._fields)
        make = _maker(cls)  # a subclass's own, so that it builds the subclass
        if make is not None:
            cls._make = staticmethod(make)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, self.__slots__[len(args):]))
            except KeyError as e:
                raise TypeError(f"{type(self).__name__}() missing argument {e}") from None
        if kwargs or len(args) != len(setters):
            raise TypeError(f"{type(self).__name__}() takes the arguments {self.__slots__}")
        for set_slot, value in zip(setters, args):
            set_slot(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._field_values(self))


def _maker(cls: type) -> Callable[..., _Value] | None:
    """cls._make for two to five slots, else None: a closure with the slot
    setters bound as locals and unrolled, so that building it compiles nothing."""
    new, setters = object.__new__, cls._setters
    if len(setters) == 2:
        s0, s1 = setters
        def _make(a, b):
            x = new(cls)
            s0(x, a)
            s1(x, b)
            return x
    elif len(setters) == 3:
        s0, s1, s2 = setters
        def _make(a, b, c):
            x = new(cls)
            s0(x, a)
            s1(x, b)
            s2(x, c)
            return x
    elif len(setters) == 4:
        s0, s1, s2, s3 = setters
        def _make(a, b, c, d):
            x = new(cls)
            s0(x, a)
            s1(x, b)
            s2(x, c)
            s3(x, d)
            return x
    elif len(setters) == 5:
        s0, s1, s2, s3, s4 = setters
        def _make(a, b, c, d, e):
            x = new(cls)
            s0(x, a)
            s1(x, b)
            s2(x, c)
            s3(x, d)
            s4(x, e)
            return x
    else:  # BaseFunction's ten: built once per registration, through __init__
        return None
    return _make


class BaseFunction(_Value):
    """A generator h with its inverse and the constants derived from it.

    doc_tag defaults to the tag and symbol to "<tag>(x)"; a base whose
    literal is None has no expression literal.
    """

    __slots__ = ("tag", "func", "inverse_func", "increasing", "limit_at_zero",
                 "value_at_one", "integral", "doc_tag", "symbol", "literal")

    def __init__(self, tag: str, func: Callable[[float], float],
                 inverse_func: Callable[[float], float], increasing: bool,
                 limit_at_zero: float, value_at_one: float, integral: float,
                 doc_tag: str | None = None, symbol: str | None = None,
                 literal: str | None = None) -> None:
        _Value.__init__(self, tag, func, inverse_func, increasing, limit_at_zero,
                        value_at_one, integral, doc_tag or tag, symbol or f"{tag}(x)", literal)

    def value(self, alpha: float) -> float:
        """h(alpha); the alpha=0 endpoint returns the limit, which may be infinite."""
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
        if alpha == 0.0:
            return self.limit_at_zero
        return self.func(alpha)

    def inverse(self, t: float) -> float:
        """The alpha in [0, 1] with h(alpha) = t; t must lie in the range closure."""
        lo, hi = sorted((self.limit_at_zero, self.value_at_one))
        slack = 1e-9 * max(1.0, abs(t))
        if math.isnan(t) or t < lo - slack or t > hi + slack:
            raise RangeError(f"{t!r} is outside the range of {self.tag}")
        if t == self.limit_at_zero:
            return 0.0
        if t == self.value_at_one:
            return 1.0
        return min(1.0, max(0.0, self.inverse_func(t)))

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.limit_at_zero)


_NAME_FIELDS = ("tag", "doc_tag", "literal")
_REGISTRY: dict[str, dict[str, BaseFunction]] = {f: {} for f in _NAME_FIELDS}


def _validate(b: BaseFunction) -> None:
    if not math.isfinite(b.integral):  # rank() weighs the slopes by it
        raise DomainError(f"{b.tag}: integral is not finite")
    n = 1000
    prev = None
    for k in range(1, n + 1):
        alpha = k / n
        v = b.func(alpha)
        if not math.isfinite(v):
            raise DomainError(f"{b.tag}: h({alpha}) is not finite")
        if prev is not None:
            if b.increasing and not v > prev:
                raise DomainError(f"{b.tag}: h is not strictly increasing near {alpha}")
            if not b.increasing and not v < prev:
                raise DomainError(f"{b.tag}: h is not strictly decreasing near {alpha}")
        prev = v
    if abs(b.func(1.0) - b.value_at_one) > 1e-12:
        raise DomainError(f"{b.tag}: value_at_one does not match h(1)")
    if not math.isinf(b.limit_at_zero):
        # the recorded limit must continue the sweep's direction
        first = b.func(1.0 / n)
        if b.increasing and not b.limit_at_zero < first:
            raise DomainError(f"{b.tag}: limit_at_zero inconsistent with direction")
        if not b.increasing and not b.limit_at_zero > first:
            raise DomainError(f"{b.tag}: limit_at_zero inconsistent with direction")
    for k in range(1, 101):
        alpha = k / 100
        back = b.inverse_func(b.func(alpha))
        if abs(back - alpha) > 1e-9:
            raise DomainError(f"{b.tag}: inverse round trip fails at alpha={alpha}")


def register_base(b: BaseFunction) -> BaseFunction:
    """Validate a base record and add it to the registry (names are unique)."""
    for field in ("tag", "doc_tag"):  # each name is a key of its registry map
        if not isinstance(getattr(b, field), str):
            raise DomainError(f"{field} {getattr(b, field)!r} is not a string")
    lit = b.literal
    if lit is not None and not (isinstance(lit, str) and _NAME.fullmatch(lit)):
        raise DomainError(f"literal {lit!r} is not a name the expression parser reads")
    if lit in _TYPELESS_ARITY:
        raise DomainError(f"literal {lit!r} is taken by rectangular numbers")
    names = [(f, getattr(b, f)) for f in _NAME_FIELDS if getattr(b, f) is not None]
    for field, name in names:
        if name in _REGISTRY[field]:
            raise DomainError(f"{field} {name!r} is already taken")
    _validate(b)
    for field, name in names:
        _REGISTRY[field][name] = b
    return b


def get_base(tag: str) -> BaseFunction:
    try:
        return _REGISTRY["tag"][tag]
    except KeyError:
        raise UnknownBaseError(f"unknown base tag {tag!r}") from None


def available_tags() -> tuple[str, ...]:
    return tuple(_REGISTRY["tag"])


def base_named(field: str, name: object) -> BaseFunction | None:
    """The registered base whose `field` (tag, doc_tag or literal) is `name`."""
    try:
        return _REGISTRY[field].get(name)
    except TypeError:  # an unhashable name, such as a list read from JSON
        return None


register_base(BaseFunction(
    tag=IDENTITY,
    func=lambda a: a,
    inverse_func=lambda t: t,
    increasing=True,
    limit_at_zero=0.0,
    value_at_one=1.0,
    integral=0.5,
    symbol="x", literal="trap",
))

register_base(BaseFunction(
    tag=SQRT,
    func=math.sqrt,
    inverse_func=lambda t: t * t,
    increasing=True,
    limit_at_zero=0.0,
    value_at_one=1.0,
    integral=2.0 / 3.0,
    symbol="sqrt(x)", literal="sqrtb",
))

# h(alpha) = sqrt(-2 log alpha): decreasing, +inf at 0, 0 at 1.  Inverting a side
# slope * h + offset produces the two branches of a Gaussian bell.
register_base(BaseFunction(
    tag=GAUSSIAN_INVERSE,
    func=lambda a: math.sqrt(-2.0 * math.log(a)),
    inverse_func=lambda t: math.exp(-0.5 * t * t),
    increasing=False,
    limit_at_zero=math.inf,
    value_at_one=0.0,
    integral=math.sqrt(math.pi / 2.0),
    doc_tag="gaussian", symbol="sqrt(-2 log x)", literal="gauss",
))

# h(alpha) = log alpha: increasing from -inf to 0; sides invert to exponentials.
register_base(BaseFunction(
    tag=LOG,
    func=math.log,
    inverse_func=math.exp,
    increasing=True,
    limit_at_zero=-math.inf,
    value_at_one=0.0,
    integral=-1.0,
    doc_tag="exponential", symbol="log(x)", literal="expo",
))
