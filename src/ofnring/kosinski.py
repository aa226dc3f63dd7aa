"""Componentwise arithmetic on ordered fuzzy numbers as function pairs.

Kosinski's space treats an ordered fuzzy number as an ordinary pair of
continuous functions on [0, 1] and combines pairs pointwise:

    (f, g) * (f', g') = (f f', g g')        and likewise for + and -.

The space here is restricted to one polynomial per side on [0, 1] (degree cap
8), which is closed under + - * and rich enough to hold every counterexample
this package reproduces, including the product escapes of the trapezoid
family.  Division is deliberately absent: quotients of polynomials leave the
representation.

k_is_proper re-derives propriety analytically: side monotonicity from
derivative sign analysis and dominance from the extrema of the difference,
with no sampling: the roots of a polynomial are isolated between the roots of
its derivative, found the same way, and each is then pinned down by bisection.
"""
from __future__ import annotations

import math
from functools import partial
from itertools import zip_longest

from .bases import IDENTITY, _Value
from .errors import DegreeCapError, DomainError, MixedTypeError
from .ring import OPERATORS, TypedOfn, _number

MAX_DEGREE = 8
_UNIT = (0.0, 1.0)


def _poly_eval(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_zip(star: str, p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    """p star q coefficient by coefficient (star + or -), the shorter padded with zeros."""
    op = OPERATORS[star]
    return tuple(op(a, b) for a, b in zip_longest(p, q, fillvalue=0.0))


def _poly_mul(p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0.0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_deriv(p: tuple[float, ...]) -> tuple[float, ...]:
    if len(p) <= 1:
        return (0.0,)
    return tuple(i * c for i, c in enumerate(p) if i > 0)


def _poly_trim(p: tuple[float, ...]) -> tuple[float, ...]:
    lst = list(p)
    while len(lst) > 1 and lst[-1] == 0.0:
        lst.pop()
    return tuple(lst)


def _poly_degree(p: tuple[float, ...]) -> int:
    return len(_poly_trim(p)) - 1


class PiecewisePoly(_Value):
    """One polynomial on [0, 1]: a side function of a function-pair OFN.

    `coeffs` is a 1-tuple holding the ascending-power coefficients, and
    `breaks` is always (0.0, 1.0): the fields keep the shape of a piecewise
    polynomial with a single piece.
    """

    __slots__ = ("breaks", "coeffs")

    def __init__(self, breaks: tuple[float, ...], coeffs: tuple[tuple[float, ...], ...]) -> None:
        if breaks is not _UNIT and tuple(_number(b, "breakpoint") for b in breaks) != _UNIT:
            raise DomainError(f"a side is one polynomial on [0, 1], got breaks {breaks!r}")
        if len(coeffs) != 1:
            raise DomainError(f"a side is one polynomial, got {len(coeffs)} pieces")
        p = coeffs[0]
        if _poly_degree(p) > MAX_DEGREE:
            raise DegreeCapError(f"degree exceeds {MAX_DEGREE}")
        _Value.__init__(self, _UNIT, (tuple(_number(c, "coefficient") for c in p),))

    @classmethod
    def constant(cls, c: float) -> "PiecewisePoly":
        return cls._make(_UNIT, ((_number(c, "constant"),),))

    @classmethod
    def affine(cls, slope: float, offset: float) -> "PiecewisePoly":
        return cls._make(_UNIT, ((_number(offset, "offset"), _number(slope, "slope")),))

    def eval(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"argument must lie in [0, 1], got {t!r}")
        return _poly_eval(self.coeffs[0], t)

    def degree(self) -> int:
        return _poly_degree(self.coeffs[0])


class PiecewisePolyOfn(_Value):
    """An ordered fuzzy number given directly by its two side functions up and down."""

    __slots__ = ("up", "down")

    @classmethod
    def from_typed(cls, x: TypedOfn) -> "PiecewisePolyOfn":
        if x.base != IDENTITY and not x.is_rectangular:
            raise MixedTypeError(
                f"only identity-base numbers embed as polynomials, got {x.base!r}")
        t = x.coeffs
        return cls._make(PiecewisePoly.affine(t.up_slope, t.up_offset),
                         PiecewisePoly.affine(t.down_slope, t.down_offset))


_COMBINERS = {"+": partial(_poly_zip, "+"), "-": partial(_poly_zip, "-"), "*": _poly_mul}


def _combine(star: str, p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    """p star q, trimmed; beyond the degree cap or the float range it raises."""
    try:
        combine = _COMBINERS[star]
    except KeyError:
        raise DomainError(f"unsupported operation {star!r}") from None
    r = _poly_trim(combine(p, q))
    if len(r) > MAX_DEGREE + 1:
        raise DegreeCapError(f"product degree {len(r) - 1} exceeds {MAX_DEGREE}")
    if not math.isfinite(sum(r)):  # a finite sum clears every coefficient at once
        for c in r:
            _number(c, "coefficient")
    return r


def combine_sides(star: str, a: PiecewisePoly, b: PiecewisePoly) -> PiecewisePoly:
    """Pointwise combination of two side functions; star is one of + - *."""
    return PiecewisePoly._make(_UNIT, (_combine(star, a.coeffs[0], b.coeffs[0]),))


def k_op(star: str, x: PiecewisePolyOfn, y: PiecewisePolyOfn) -> PiecewisePolyOfn:
    """Side-for-side combination of two function-pair OFNs."""
    return PiecewisePolyOfn._make(combine_sides(star, x.up, y.up),
                                  combine_sides(star, x.down, y.down))


# ---------------------------------------------------------------------------
# root isolation on [0, 1]
# ---------------------------------------------------------------------------

def _bisect_root(p: tuple[float, ...], lo: float, hi: float) -> float:
    """The root of p in [lo, hi], where p(lo) and p(hi) differ in sign."""
    flo = _poly_eval(p, lo)
    top_down = p[::-1]
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = 0.0  # _poly_eval(p, mid), inline: the loop runs about 50 times
        for c in top_down:
            fmid = fmid * mid + c
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
    return mid


def _knots(p: tuple[float, ...]) -> list[float]:
    """[0, *roots of p' in [0, 1], 1]: p is monotone between neighbours."""
    return [0.0, *_roots(_poly_deriv(p)), 1.0]


def _roots(p: tuple[float, ...]) -> list[float]:
    """Every root of p in [0, 1], ascending.

    The recursion on p' ends at a constant, at most MAX_DEGREE levels down.
    """
    p = _poly_trim(p)
    if len(p) == 1:
        return []
    return _sign_changes(p, _knots(p))


def _sign_changes(p: tuple[float, ...], knots: list[float]) -> list[float]:
    """The roots of p, given knots between which p is monotone, so that it
    changes sign at most once between neighbours."""
    values = [_poly_eval(p, t) for t in knots]
    roots: list[float] = []
    for a, b, fa, fb in zip(knots, knots[1:], values, values[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect_root(p, a, b))
    if values[-1] == 0.0:
        roots.append(knots[-1])
    return roots


def _coeff_scale(p: tuple[float, ...]) -> float:
    return max((1.0, *map(abs, p)))


def _direction(p: tuple[float, ...]) -> str:
    """'inc', 'dec', 'const' or 'mixed', from the signs of p' between its roots."""
    tol = 1e-12 * _coeff_scale(p)
    d = _poly_deriv(p)
    knots = _knots(p)
    slopes = [_poly_eval(d, 0.5 * (a + b)) for a, b in zip(knots, knots[1:])]
    rising = any(v > tol for v in slopes)
    falling = any(v < -tol for v in slopes)
    if rising:
        return "mixed" if falling else "inc"
    return "dec" if falling else "const"


class FunctionProprietyReport(_Value):
    """k_is_proper's verdict: proper (bool) and the first violated condition, or None."""

    __slots__ = ("proper", "violation")


# the seven verdicts, built once: values are immutable, so k_is_proper shares them
_VERDICTS = {v: FunctionProprietyReport(v is None, v) for v in (
    None, "up-not-monotonic", "down-not-monotonic", "both-increasing", "both-decreasing",
    "twisted", "dominance")}


def k_is_proper(x: PiecewisePolyOfn) -> FunctionProprietyReport:
    """Propriety of a function-pair OFN, with the first violated condition."""
    up, down = x.up.coeffs[0], x.down.coeffs[0]
    du = _direction(up)
    dd = _direction(down)
    if du == "mixed":
        return _VERDICTS["up-not-monotonic"]
    if dd == "mixed":
        return _VERDICTS["down-not-monotonic"]
    if du == dd and du in ("inc", "dec"):
        return _VERDICTS["both-increasing" if du == "inc" else "both-decreasing"]

    tol = 1e-9 * max(_coeff_scale(up), _coeff_scale(down))
    u0, d0 = _poly_eval(up, 0.0), _poly_eval(down, 0.0)
    if abs(u0 - d0) > tol:
        up_below = u0 < d0
    else:
        u1, d1 = _poly_eval(up, 1.0), _poly_eval(down, 1.0)
        if abs(u1 - d1) <= tol:
            # coincident at both ends with compatible directions: degenerate
            return _VERDICTS[None]
        up_below = u1 < d1

    if up_below:
        ok_dirs = du in ("inc", "const") and dd in ("dec", "const")
    else:
        ok_dirs = du in ("dec", "const") and dd in ("inc", "const")
    if not ok_dirs:
        return _VERDICTS["twisted"]

    # dominance: the gap between the sides must stay nonnegative
    gap = _combine("-", down, up) if up_below else _combine("-", up, down)
    if min(_poly_eval(gap, t) for t in _knots(gap)) < -tol:
        return _VERDICTS["dominance"]
    return _VERDICTS[None]


# ---------------------------------------------------------------------------
# corresponding membership
# ---------------------------------------------------------------------------

def value_preimages(pp: PiecewisePoly, v: float) -> list[float]:
    """All alpha in [0, 1] with pp(alpha) = v (a constant side reports both ends)."""
    p = pp.coeffs[0]
    shifted = _poly_trim(_poly_zip("-", p, (v,)))
    if shifted == (0.0,):
        return [0.0, 1.0]
    # p - v has the same derivative, hence the same knots, as p; a tangency
    # that rounding keeps off zero shows at an interior knot
    knots = _knots(p)
    out = _sign_changes(shifted, knots)
    out.extend(t for t in knots[1:-1] if abs(_poly_eval(p, t) - v) <= 1e-11)
    out.sort()
    dedup: list[float] = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-9:
            dedup.append(t)
    return dedup


def corresponding_membership(x: PiecewisePolyOfn, v: float) -> float:
    """Largest alpha at which either side attains v; 1 across the core band.

    Equals the inverted membership of propriety for proper numbers, and stays
    well defined (if not a genuine membership function) for improper ones.
    """
    cands = value_preimages(x.up, v) + value_preimages(x.down, v)
    u1, d1 = _poly_eval(x.up.coeffs[0], 1.0), _poly_eval(x.down.coeffs[0], 1.0)
    core_lo, core_hi = min(u1, d1), max(u1, d1)
    if core_lo - 1e-12 <= v <= core_hi + 1e-12:
        cands.append(1.0)
    if not cands:
        return 0.0
    return min(1.0, max(0.0, max(cands)))
