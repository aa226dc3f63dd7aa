"""Componentwise arithmetic on ordered fuzzy numbers as function pairs.

Kosinski's space treats an ordered fuzzy number as an ordinary pair of
continuous functions on [0, 1] and combines pairs pointwise:

    (f, g) * (f', g') = (f f', g g')        and likewise for + and -.

The space here is restricted to piecewise polynomials (degree cap 8), which is
closed under + - * and rich enough to hold every counterexample this package
reproduces, including the product escapes of the trapezoid family.  Division
is deliberately absent: quotients of polynomials leave the representation.

k_is_proper re-derives propriety analytically: side monotonicity from
derivative sign analysis and dominance from the extrema of the difference,
with no sampling: the roots of a piece are isolated between the roots of its
derivative, found the same way, and each is then pinned down by bisection.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import zip_longest

from .bases import IDENTITY, _Value
from .errors import DegreeCapError, DomainError, MixedTypeError
from .ring import OPERATORS, TypedOfn, _number

MAX_DEGREE = 8


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
    """A continuous piecewise polynomial on [0, 1].

    `breaks` is the strictly increasing knot vector from 0 to 1; piece k uses
    ascending-power coefficients in the global variable on
    [breaks[k], breaks[k+1]].
    """

    __slots__ = ("breaks", "coeffs")

    def __init__(self, breaks: tuple[float, ...], coeffs: tuple[tuple[float, ...], ...]) -> None:
        br, cs = breaks, coeffs
        for b in br:
            if b.__class__ is not float:  # floats pass inline: the tiling checks bound them
                br = tuple(_number(b, "breakpoint") for b in breaks)
                break
        if len(br) < 2 or len(cs) != len(br) - 1:
            raise DomainError("breaks and pieces do not line up")
        if br[0] != 0.0 or br[-1] != 1.0:
            raise DomainError("pieces must tile [0, 1]")
        for a, b in zip(br, br[1:]):
            if not a < b:
                raise DomainError("breakpoints must be strictly increasing")
        floats = True
        for p in cs:
            if _poly_degree(p) > MAX_DEGREE:
                raise DegreeCapError(f"piece degree exceeds {MAX_DEGREE}")
            for c in p:
                if c.__class__ is not float or not math.isfinite(c):  # floats pass inline
                    _number(c, "piece coefficient")
                    floats = False
        if not floats:  # every coefficient passed the rule: keep the floats it returns
            cs = tuple(tuple(map(float, p)) for p in cs)
        _set_breaks(self, br)  # the oracles build many: set the slots directly,
        _set_coeffs(self, cs)  # before the continuity check, as _coeff_scale reads them
        scale = _coeff_scale(self)
        for k in range(1, len(br) - 1):
            left = _poly_eval(cs[k - 1], br[k])
            right = _poly_eval(cs[k], br[k])
            if abs(left - right) > 1e-9 * scale:
                raise DomainError(f"discontinuity at breakpoint {br[k]}")

    @classmethod
    def constant(cls, c: float) -> "PiecewisePoly":
        return cls((0.0, 1.0), ((_number(c, "constant"),),))

    @classmethod
    def affine(cls, slope: float, offset: float) -> "PiecewisePoly":
        return cls((0.0, 1.0), ((_number(offset, "offset"), _number(slope, "slope")),))

    def piece_at(self, t: float) -> tuple[float, ...]:
        k = bisect_right(self.breaks, t) - 1
        return self.coeffs[min(max(k, 0), len(self.coeffs) - 1)]

    def eval(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"argument must lie in [0, 1], got {t!r}")
        return _poly_eval(self.piece_at(t), t)

    def degree(self) -> int:
        return max(_poly_degree(p) for p in self.coeffs)


_set_breaks, _set_coeffs = PiecewisePoly._setters


def _merge_breaks(x: PiecewisePoly, y: PiecewisePoly) -> tuple[float, ...]:
    merged: list[float] = []
    for v in sorted(set(x.breaks) | set(y.breaks)):
        if merged and v - merged[-1] <= 1e-12:
            continue
        merged.append(v)
    merged[0], merged[-1] = 0.0, 1.0
    return tuple(merged)


class PiecewisePolyOfn(_Value):
    """An ordered fuzzy number given directly by its two side functions up and down."""

    __slots__ = ("up", "down")

    @classmethod
    def from_typed(cls, x: TypedOfn) -> "PiecewisePolyOfn":
        if x.base != IDENTITY and not x.is_rectangular:
            raise MixedTypeError(
                f"only identity-base numbers embed as polynomials, got {x.base!r}")
        t = x.coeffs
        return cls(PiecewisePoly.affine(t.up_slope, t.up_offset),
                   PiecewisePoly.affine(t.down_slope, t.down_offset))


_COMBINERS = {"+": partial(_poly_zip, "+"), "-": partial(_poly_zip, "-"), "*": _poly_mul}


def combine_sides(star: str, a: PiecewisePoly, b: PiecewisePoly) -> PiecewisePoly:
    """Pointwise combination of two side functions; star is one of + - *."""
    try:
        combine = _COMBINERS[star]
    except KeyError:
        raise DomainError(f"unsupported operation {star!r}") from None
    breaks = _merge_breaks(a, b)
    pieces = []
    for lo, hi in zip(breaks, breaks[1:]):
        mid = 0.5 * (lo + hi)
        p = combine(a.piece_at(mid), b.piece_at(mid))
        if _poly_degree(p) > MAX_DEGREE:
            raise DegreeCapError(
                f"product degree {_poly_degree(p)} exceeds {MAX_DEGREE}")
        pieces.append(_poly_trim(p))
    return PiecewisePoly(breaks, tuple(pieces))


def k_op(star: str, x: PiecewisePolyOfn, y: PiecewisePolyOfn) -> PiecewisePolyOfn:
    """Side-for-side combination of two function-pair OFNs."""
    return PiecewisePolyOfn(combine_sides(star, x.up, y.up),
                            combine_sides(star, x.down, y.down))


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def _bisect_root(p: tuple[float, ...], lo: float, hi: float) -> float:
    """The root of p in [lo, hi], where p(lo) and p(hi) differ in sign."""
    flo = _poly_eval(p, lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = _poly_eval(p, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
    return mid


def _knots(p: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """[lo, *roots of p' in [lo, hi], hi]: p is monotone between neighbours."""
    return [lo, *_roots(_poly_deriv(p), lo, hi), hi]


def _roots(p: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Every root of p in [lo, hi], ascending.

    The recursion on p' ends at a constant, at most MAX_DEGREE levels down.
    """
    p = _poly_trim(p)
    if len(p) == 1:
        return []
    return _sign_changes(p, _knots(p, lo, hi))


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


def _piece_min(p: tuple[float, ...], lo: float, hi: float) -> float:
    return min(_poly_eval(p, t) for t in _knots(p, lo, hi))


def _coeff_scale(pp: PiecewisePoly) -> float:
    return max(1.0, max((abs(c) for p in pp.coeffs for c in p), default=1.0))


def _direction(pp: PiecewisePoly) -> str:
    """'inc', 'dec', 'const' or 'mixed', from derivative signs piece by piece."""
    tol = 1e-12 * _coeff_scale(pp)
    rising = falling = False
    for (lo, hi), p in zip(zip(pp.breaks, pp.breaks[1:]), pp.coeffs):
        d = _poly_deriv(p)
        knots = _knots(p, lo, hi)
        for a, b in zip(knots, knots[1:]):
            v = _poly_eval(d, 0.5 * (a + b))
            if v > tol:
                rising = True
            elif v < -tol:
                falling = True
        if rising and falling:
            return "mixed"
    if rising:
        return "inc"
    if falling:
        return "dec"
    return "const"


class FunctionProprietyReport(_Value):
    """k_is_proper's verdict: proper (bool) and the first violated condition, or None."""

    __slots__ = ("proper", "violation")


def k_is_proper(x: PiecewisePolyOfn) -> FunctionProprietyReport:
    """Propriety of a function-pair OFN, with the first violated condition."""
    du = _direction(x.up)
    dd = _direction(x.down)
    if du == "mixed":
        return FunctionProprietyReport(False, "up-not-monotonic")
    if dd == "mixed":
        return FunctionProprietyReport(False, "down-not-monotonic")
    if du == dd and du in ("inc", "dec"):
        return FunctionProprietyReport(
            False, "both-increasing" if du == "inc" else "both-decreasing")

    tol = 1e-9 * max(_coeff_scale(x.up), _coeff_scale(x.down))
    u0, d0 = x.up.eval(0.0), x.down.eval(0.0)
    if abs(u0 - d0) > tol:
        up_below = u0 < d0
    else:
        u1, d1 = x.up.eval(1.0), x.down.eval(1.0)
        if abs(u1 - d1) <= tol:
            # coincident at both ends with compatible directions: degenerate
            return FunctionProprietyReport(True, None)
        up_below = u1 < d1

    if up_below:
        ok_dirs = du in ("inc", "const") and dd in ("dec", "const")
    else:
        ok_dirs = du in ("dec", "const") and dd in ("inc", "const")
    if not ok_dirs:
        return FunctionProprietyReport(False, "twisted")

    # dominance: the gap between the sides must stay nonnegative
    if up_below:
        gap = combine_sides("-", x.down, x.up)
    else:
        gap = combine_sides("-", x.up, x.down)
    for (lo, hi), p in zip(zip(gap.breaks, gap.breaks[1:]), gap.coeffs):
        if _piece_min(p, lo, hi) < -tol:
            return FunctionProprietyReport(False, "dominance")
    return FunctionProprietyReport(True, None)


# ---------------------------------------------------------------------------
# corresponding membership
# ---------------------------------------------------------------------------

def value_preimages(pp: PiecewisePoly, v: float) -> list[float]:
    """All alpha in [0, 1] with pp(alpha) = v (intervals report both ends)."""
    out: list[float] = []
    for (lo, hi), p in zip(zip(pp.breaks, pp.breaks[1:]), pp.coeffs):
        shifted = _poly_trim(_poly_zip("-", p, (v,)))
        if shifted == (0.0,):
            out.extend((lo, hi))
            continue
        # p - v has the same derivative, hence the same knots, as p; a
        # tangency that rounding keeps off zero shows at an interior knot
        knots = _knots(p, lo, hi)
        out.extend(_sign_changes(shifted, knots))
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
    u1, d1 = x.up.eval(1.0), x.down.eval(1.0)
    core_lo, core_hi = min(u1, d1), max(u1, d1)
    if core_lo - 1e-12 <= v <= core_hi + 1e-12:
        cands.append(1.0)
    if not cands:
        return 0.0
    return min(1.0, max(0.0, max(cands)))
