"""Propriety analysis: classification, pathology repair, membership inversion.

A typed OFN is proper when its sides are monotone the right way round for its
orientation and the up side stays on the correct side of the down side.  Both
facts are decided in closed form: the difference down - up is affine in h, so
its sign over [0, 1] is read off the h-range endpoint limits, never sampled.

Improper numbers fall into three repairable classes:

* type-ii: both slopes share a sign (the sides march in the same direction);
* type-iii: the sides have a coherent opposite-slope shape but their vertical
  order is violated somewhere (twisted or crossing sides);
* combined: same-sign slopes whose difference also changes sign.

correct() applies the class-specific repair; when a repair leaves the result
improper (the printed formulas do not always succeed) the rectangular collapse
of the original number is used instead and labelled "fallback".
"""
from __future__ import annotations

import math

from .bases import BaseFunction, _Value, get_base
from .errors import DegenerateError, ImproperError, WrongPathology
from .ring import (Interval, Side, TypedOfn, _gap, _orientation,
                   _result, _up_is_low, side_eval)

PATHOLOGY_NONE = "none"
PATHOLOGY_II = "type-ii"
PATHOLOGY_III = "type-iii"
PATHOLOGY_COMBINED = "combined"


class ProprietyReport(_Value):
    """classify's verdict: proper (bool), orientation, same_sign (bool),
    crossing (bool) and pathology, one of the PATHOLOGY_* names."""

    __slots__ = ("proper", "orientation", "same_sign", "crossing", "pathology")


def _direction(b: BaseFunction, slope: float) -> int:
    """Which way a side moves as alpha rises: slope sign times base direction."""
    sign = (slope > 0.0) - (slope < 0.0)
    return sign if b.increasing else -sign


def classify(x: TypedOfn) -> ProprietyReport:
    b = get_base(x.base)
    t = x.coeffs
    up_dir, down_dir = _direction(b, t.up_slope), _direction(b, t.down_slope)
    same_sign = up_dir == down_dir != 0
    g0, g1 = _gap(b, t.up_slope, t.up_offset, t.down_slope, t.down_offset)

    identical = (t.up_slope == t.down_slope and t.up_offset == t.down_offset)
    if identical:
        # identical non-constant sides overlap on their whole range
        crossing = t.up_slope != 0.0
        pathology = PATHOLOGY_COMBINED if crossing else PATHOLOGY_NONE
    elif same_sign:
        crossing = (g0 < 0.0 < g1) or (g1 < 0.0 < g0)
        pathology = PATHOLOGY_COMBINED if crossing else PATHOLOGY_II
    elif up_dir == 0 and down_dir == 0:
        # rectangular: constant sides are compatible with either orientation
        crossing = False
        pathology = PATHOLOGY_NONE
    else:
        increasing_shape = up_dir > 0 or down_dir < 0
        if increasing_shape:
            crossing = min(g0, g1) < 0.0
        else:
            crossing = max(g0, g1) > 0.0
        pathology = PATHOLOGY_III if crossing else PATHOLOGY_NONE

    return ProprietyReport._make(pathology == PATHOLOGY_NONE, _orientation(identical, g0, g1),
                                 same_sign, crossing, pathology)


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------

def _require(x: TypedOfn, wanted: str) -> ProprietyReport:
    rep = classify(x)
    if rep.pathology != wanted:
        raise WrongPathology(f"expected {wanted}, classified {rep.pathology}")
    return rep


def _keep_one_flank(x: TypedOfn, rep: ProprietyReport) -> TypedOfn:
    b = get_base(x.base)
    t = x.coeffs
    if (rep.orientation == "increasing") == (_direction(b, t.up_slope) > 0):
        return _result(x.base, t.up_slope, t.up_offset, 0.0, t.down_offset)
    return _result(x.base, 0.0, t.up_offset, t.down_slope, t.down_offset)


def _swap_offsets(x: TypedOfn, rep: ProprietyReport) -> TypedOfn:
    t = x.coeffs
    return _result(x.base, t.up_slope, t.down_offset, t.down_slope, t.up_offset)


def _collapse(x: TypedOfn, rep: ProprietyReport) -> TypedOfn:
    return _result(x.base, 0.0, side_eval(x, "up", 1.0),
                   0.0, side_eval(x, "down", 1.0))


def correct_type_ii(x: TypedOfn) -> TypedOfn:
    """Replace the side that fights the orientation by its constant offset.

    Both sides move the same way as alpha rises (slope sign times the base's
    direction); an increasing number keeps the side that rises, a decreasing
    one the side that falls.
    """
    return _keep_one_flank(x, _require(x, PATHOLOGY_II))


def correct_type_iii(x: TypedOfn) -> TypedOfn:
    """Untwist by exchanging the constant terms of the two sides."""
    return _swap_offsets(x, _require(x, PATHOLOGY_III))


# pathology -> (label, repair); a repair takes the number and its report
_REPAIRS = {
    PATHOLOGY_II: ("ii", _keep_one_flank),
    PATHOLOGY_III: ("iii", _swap_offsets),
    PATHOLOGY_COMBINED: ("combined", _collapse),
}


def correct(x: TypedOfn) -> tuple[TypedOfn, str]:
    """Repair x if needed; returns (result, applied label).

    Labels: "none" (already proper), "ii", "iii", "combined", or "fallback"
    when the class-specific repair did not produce a proper number and the
    rectangular collapse of the original was used instead.
    """
    rep = classify(x)
    if rep.proper:
        return x, "none"
    label, repair = _REPAIRS[rep.pathology]
    fixed = repair(x, rep)
    if not classify(fixed).proper:
        return _collapse(x, rep), "fallback"
    return fixed, label


# ---------------------------------------------------------------------------
# membership functions
# ---------------------------------------------------------------------------

class MembershipBranch(_Value):
    """One invertible flank: alpha = h_inverse((v - offset) / slope) on [lo, hi]."""

    __slots__ = ("side", "lo", "hi")

    def __init__(self, side: Side, lo: float, hi: float) -> None:
        if side.slope == 0.0:  # invert() divides by the slope
            raise DegenerateError("a constant side cannot be inverted")
        _Value.__init__(self, side, lo, hi)

    def invert(self, v: float) -> float:
        b = get_base(self.side.base)
        return b.inverse((v - self.side.offset) / self.side.slope)


class MembershipFunction(_Value):
    """The core and support intervals, and the branch of each flank that is
    not constant (None for a constant one)."""

    __slots__ = ("lower", "upper", "core", "support")


def membership_from_sides(up: Side, down: Side) -> MembershipFunction:
    """Invert an arbitrary proper side pair (bases may differ per side)."""
    ub, db = get_base(up.base), get_base(down.base)
    if ub is db:
        g0, g1 = _gap(ub, up.slope, up.offset, down.slope, down.offset)
    else:
        (u0, u1), (d0, d1) = up.value_limits(), down.value_limits()
        g0, g1 = (0.0 if d0 == u0 else d0 - u0), d1 - u1
    if _up_is_low(g0, g1):
        low, high, lb, hb = up, down, ub, db
    else:
        low, high, lb, hb, g1 = down, up, db, ub, -g1
    # the lower flank must rise to the core, the upper must fall to it
    if _direction(lb, low.slope) < 0 or _direction(hb, high.slope) > 0:
        raise ImproperError("side directions do not match the orientation")
    if g1 < 0.0:
        raise ImproperError("sides overlap beyond the core")
    low_limits, high_limits = low.value_limits(), high.value_limits()
    # at a tie the separately evaluated core ends may cross by rounding; both
    # intervals are ordered here, and register_base refuses a base whose h(1)
    # or limit is NaN, so they pass what Interval(...) would check
    core = Interval._make(*sorted((low_limits[1], high_limits[1])))
    supp = Interval._make(min(low_limits[0], core.lo), max(high_limits[0], core.hi))
    lower = None
    if low.slope != 0.0:  # the one check MembershipBranch(...) makes
        lower = MembershipBranch._make(low, low_limits[0], core.lo)
    upper = None
    if high.slope != 0.0:
        upper = MembershipBranch._make(high, core.hi, high_limits[0])
    return MembershipFunction._make(lower, upper, core, supp)


def membership(x: TypedOfn) -> MembershipFunction:
    """Membership function of a proper typed OFN (ImproperError otherwise).

    membership_from_sides reads the same side order as classify, so it
    rejects exactly the numbers classify calls improper.
    """
    return membership_from_sides(x.up_side(), x.down_side())


def membership_eval(m: MembershipFunction, v: float) -> float:
    if math.isnan(v):
        return 0.0
    if m.core.contains_value(v):
        return 1.0
    if m.lower is not None and m.lower.lo <= v < m.lower.hi:
        return m.lower.invert(v)
    if m.upper is not None and m.upper.lo < v <= m.upper.hi:
        return m.upper.invert(v)
    return 0.0

