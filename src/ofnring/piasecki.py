"""Revised trapezoid arithmetic and its closure check.

Piasecki's proposal fixes the corner tuple of a combined trapezoid first and
keeps the original pointwise side functions wherever the corners leave room
for them.  Writing bb, cc, aa, dd for the starred combinations of the two
core corners and the two support corners, the result corners are

    (min(aa, bb), bb, cc, max(dd, cc))   when bb < cc, or bb = cc and aa <= dd
    (max(aa, bb), bb, cc, min(dd, cc))   otherwise

with each side kept as the pointwise star of the operand sides when its two
corners differ and collapsed to the constant corner value otherwise.

The interesting output is the closure check: multiplying sides pointwise can
bend a side into a quadratic that is not monotone, so the result leaves the
trapezoid family (and the proper numbers) even though every corner looks
fine.  p_closure_check hands the side functions to the analytical propriety
checker to decide exactly that.
"""
from __future__ import annotations

from .bases import IDENTITY, _Value
from .errors import DivisionByZero, DomainError, MixedTypeError
from .kosinski import (PiecewisePoly, PiecewisePolyOfn, _pair, combine_sides,
                       k_is_proper)
from .ring import OPERATORS, TypedOfn

CONSTANT = "constant"
PRODUCT_FORM = "product-form"


class TrapezoidCorners(_Value):
    """Support and core corners (a, b, c, d) = (up(0), up(1), down(1), down(0))."""

    __slots__ = ("a", "b", "c", "d")

    @classmethod
    def from_ofn(cls, x: TypedOfn) -> "TrapezoidCorners":
        if x.base != IDENTITY and not x.is_rectangular:
            raise MixedTypeError(
                f"corner extraction needs the identity base, got {x.base!r}")
        t = x.coeffs
        return _record(cls, t.up_offset, t.up_slope + t.up_offset,
                       t.down_slope + t.down_offset, t.down_offset)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _record(cls: type, *fields: object):
    """A record of class cls with these fields, its slots set directly: p_op
    builds four per call."""
    r = object.__new__(cls)
    for set_slot, value in zip(cls._setters, fields):
        set_slot(r, value)
    return r


class PiaseckiResult(_Value):
    """p_op's result: the corners, the rule that made each side (CONSTANT or
    PRODUCT_FORM), and the side functions up_fn and down_fn."""

    __slots__ = ("corners", "up_rule", "down_rule", "up_fn", "down_fn")

    def as_ofn(self) -> PiecewisePolyOfn:
        return _pair(PiecewisePolyOfn, self.up_fn, self.down_fn)


def _side_poly(star: str, xs: tuple[float, float], ys: tuple[float, float]) -> PiecewisePoly:
    """Pointwise star of two affine sides given as (slope, offset)."""
    if star in ("+", "-", "*"):
        return combine_sides(star, PiecewisePoly.affine(*xs), PiecewisePoly.affine(*ys))
    # star == "/": exact only against a constant divisor; affine quotients
    # are rational and leave the polynomial representation
    yslope, yoffset = ys
    if yslope != 0.0:
        raise DomainError(
            "side functions of a quotient are rational unless the divisor "
            "side is constant")
    return PiecewisePoly.affine(xs[0] / yoffset, xs[1] / yoffset)


def p_op(star: str, x: TypedOfn, y: TypedOfn) -> PiaseckiResult:
    """Combine two identity-base trapezoids by the revised corner rules."""
    op = OPERATORS.get(star)
    if op is None:
        raise DomainError(f"star must be one of + - * /, got {star!r}")
    cx = TrapezoidCorners.from_ofn(x)
    cy = TrapezoidCorners.from_ofn(y)
    if star == "/" and any(v == 0.0 for v in cy.as_tuple()):
        raise DivisionByZero(f"corner divisor is zero in {cy.as_tuple()}")

    # + 0.0 turns negative zeros from products into plain zeros
    aa = op(cx.a, cy.a) + 0.0
    bb = op(cx.b, cy.b) + 0.0
    cc = op(cx.c, cy.c) + 0.0
    dd = op(cx.d, cy.d) + 0.0
    if bb < cc or (bb == cc and aa <= dd):
        a_w, d_w = min(aa, bb), max(dd, cc)
    else:
        a_w, d_w = max(aa, bb), min(dd, cc)
    corners = _record(TrapezoidCorners, a_w, bb, cc, d_w)

    tx, ty = x.coeffs, y.coeffs
    if a_w == bb:
        up_rule, up_fn = CONSTANT, PiecewisePoly.constant(bb)
    else:
        up_rule = PRODUCT_FORM
        up_fn = _side_poly(star, (tx.up_slope, tx.up_offset),
                           (ty.up_slope, ty.up_offset))
    if cc == d_w:
        down_rule, down_fn = CONSTANT, PiecewisePoly.constant(cc)
    else:
        down_rule = PRODUCT_FORM
        down_fn = _side_poly(star, (tx.down_slope, tx.down_offset),
                             (ty.down_slope, ty.down_offset))
    return _record(PiaseckiResult, corners, up_rule, down_rule, up_fn, down_fn)


def p_closure_check(r: PiaseckiResult) -> bool:
    """Did the revised operation stay inside the proper numbers?"""
    return k_is_proper(r.as_ofn()).proper
