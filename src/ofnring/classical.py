"""Classical L-R fuzzy numbers and extension-principle oracles.

This module is the reference semantics the ring is audited against: orthodox
fuzzy numbers with convex level sets, level-set (interval) arithmetic, and
two extension-principle evaluators: the sup-min of a sum, sampled, and the
level sets of a product from endpoint products.  Nothing here knows about
orientation; that is the point.  The flanks are linear only: membership
rises in a straight line from a support end to the core, so a number is its
four corners, which is how a proper identity-base OFN reads classically.

Only the sampled sup-min grid, `zadeh_add_grid`, needs numpy, and it imports
numpy when it is called: importing this module, the package or the CLI never
loads numpy.
"""
from __future__ import annotations

from math import isfinite

from .bases import _Value
from .errors import ArithmeticOverflow, DomainError, ImproperError, MixedTypeError
from .ring import Interval, TypedOfn, _number, level_set
from .propriety import classify

_CORNERS = ("corner support_lo", "corner core_lo", "corner core_hi", "corner support_hi")


class LRFuzzyNumber(_Value):
    """Corners support_lo <= core_lo <= core_hi <= support_hi; the flanks are straight."""

    __slots__ = ("support_lo", "core_lo", "core_hi", "support_hi")

    def __init__(self, support_lo: float, core_lo: float,
                 core_hi: float, support_hi: float) -> None:
        c = [_number(v, name) for v, name in
             zip((support_lo, core_lo, core_hi, support_hi), _CORNERS)]
        if not (c[0] <= c[1] <= c[2] <= c[3]):
            raise DomainError(f"corners must be ordered, got {tuple(c)}")
        _Value.__init__(self, *c)

    @property
    def left_spread(self) -> float:
        return self.core_lo - self.support_lo

    @property
    def right_spread(self) -> float:
        return self.support_hi - self.core_hi

    def corners(self) -> tuple[float, float, float, float]:
        return (self.support_lo, self.core_lo, self.core_hi, self.support_hi)


def lr_membership(n: LRFuzzyNumber, x: float) -> float:
    """Membership level at x; zero spreads degenerate into jumps."""
    if x < n.support_lo or x > n.support_hi:
        return 0.0
    if n.core_lo <= x <= n.core_hi:
        return 1.0
    if x < n.core_lo:
        return (x - n.support_lo) / n.left_spread
    return (n.support_hi - x) / n.right_spread


def lr_level_set(n: LRFuzzyNumber, alpha: float) -> Interval:
    """[support_lo + alpha * left_spread, support_hi - alpha * right_spread]."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    return Interval(n.support_lo + alpha * n.left_spread,
                    n.support_hi - alpha * n.right_spread)


def levelset_add(x: LRFuzzyNumber, y: LRFuzzyNumber) -> LRFuzzyNumber:
    """Cornerwise sum: with linear flanks, every level set adds as an interval."""
    return LRFuzzyNumber(x.support_lo + y.support_lo,
                         x.core_lo + y.core_lo,
                         x.core_hi + y.core_hi,
                         x.support_hi + y.support_hi)


def _linspace_top(lo: float, hi: float, grid: int) -> float:
    """The largest value np.linspace(lo, hi, grid) forms before it sets its end to hi."""
    return lo + (grid - 1) * ((hi - lo) / (grid - 1))


def zadeh_add_grid(x: LRFuzzyNumber, y: LRFuzzyNumber, grid: int = 2001):
    """Sup-min convolution of the sum, sampled on `grid` output points.

    Returns (zs, levels), two numpy arrays of length `grid`: zs spans the
    corner sums, and levels[j] is the largest min(mu_x(t), mu_y(zs[j] - t))
    over the `grid` samples t of x's support.  This is the extension
    principle evaluated directly, to audit levelset_add, and the result is
    exactly, bit for bit, the maximum over all grid x grid sample pairs.

    That maximum is found without reading every pair.  In the sample index
    i, both f_i = mu_x(ts[i]) and g_i = mu_y(zs[j] - ts[i]) rise to a peak
    and then fall, because rounded subtraction and division by a positive
    spread keep weak monotonicity.  So min(f, g) peaks between the two peaks,
    where one falls and the other rises: at the last index where the falling
    one is still the larger, or at the next.  The peak of g and that crossing
    are each found by bisection, for all output points at once, and every
    value is computed by the same expression a full grid would use.

    `grid` is an int of at least 101 (DomainError otherwise).  A grid whose
    values would leave the float range raises ArithmeticOverflow before
    numpy computes anything.
    """
    if grid.__class__ is bool or not isinstance(grid, int):
        raise DomainError(f"grid must be an int, got {grid!r}")
    if grid < 101:
        raise DomainError(f"grid must be at least 101, got {grid}")
    lo_sum = x.support_lo + y.support_lo
    hi_sum = x.support_hi + y.support_hi
    # the spans, corner sums and differences that bound every value the grid
    # forms: if these are finite, numpy never overflows
    for value in (lo_sum, hi_sum, _linspace_top(x.support_lo, x.support_hi, grid),
                  _linspace_top(lo_sum, hi_sum, grid), hi_sum - x.support_lo,
                  lo_sum - x.support_hi, y.support_hi - y.support_lo):
        if not isfinite(value):
            raise ArithmeticOverflow(f"the sampled sum of {x} and {y} leaves the float range")

    import numpy as np

    def membership_grid(n: LRFuzzyNumber, xs):
        out = np.zeros_like(xs, dtype=float)
        inside = (xs >= n.support_lo) & (xs <= n.support_hi)
        core = (xs >= n.core_lo) & (xs <= n.core_hi)
        out[core] = 1.0
        if n.left_spread > 0.0:
            left = inside & (xs < n.core_lo)
            out[left] = (xs[left] - n.support_lo) / n.left_spread
        if n.right_spread > 0.0:
            right = inside & (xs > n.core_hi)
            out[right] = (n.support_hi - xs[right]) / n.right_spread
        return out

    ts = np.linspace(x.support_lo, x.support_hi, grid)
    mu_x = membership_grid(x, ts)
    zs = np.linspace(lo_sum, hi_sum, grid)
    steps = [1 << k for k in reversed(range(grid.bit_length()))]

    def mu_y(i):  # g at index i[j] of output point j, for every j
        return membership_grid(y, zs - ts[i])

    def first(fails, start, stop):
        """Per point, the first index in [start, stop) that no longer fails, else stop.

        fails(i) must hold on a prefix of [start, stop) and nowhere after.
        """
        at = start
        for step in steps:
            nxt = at + step
            moved = (nxt <= stop) & fails(np.minimum(nxt, stop) - 1)
            at = np.where(moved, nxt, at)
        return at

    a = np.argmax(mu_x)  # a peak of f
    # g rises while zs[j] - ts[i] > core_hi and falls from there on
    p = first(lambda i: zs - ts[i] > y.core_hi, np.zeros(grid, np.intp), grid)
    before, after = np.clip(p - 1, 0, grid - 1), np.minimum(p, grid - 1)
    b = np.where(mu_y(before) >= mu_y(after), before, after)  # a peak of g
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    f_falls = a <= b  # on [lo, hi] the one peaking at lo falls, the other rises

    def falling_ahead(i):
        f, g = mu_x[i], mu_y(i)
        return np.where(f_falls, f >= g, g >= f)

    # on [lo, c) min(f, g) is the rising one, on [c, hi] the falling one
    c = first(falling_ahead, lo, hi + 1)

    def level(i):
        return np.minimum(mu_x[i], mu_y(i))

    return zs, np.maximum(level(np.maximum(c - 1, lo)), level(np.minimum(c, hi)))


def zadeh_mul_levelsets(x: LRFuzzyNumber, y: LRFuzzyNumber, alpha: float) -> Interval:
    """Level set of the product: endpoint products of the operand level sets."""
    ix = lr_level_set(x, alpha)
    iy = lr_level_set(y, alpha)
    products = (ix.lo * iy.lo, ix.lo * iy.hi, ix.hi * iy.lo, ix.hi * iy.hi)
    return Interval(min(products), max(products))


# ---------------------------------------------------------------------------
# bridge to the typed ring
# ---------------------------------------------------------------------------

def from_typed_trapezoid(x: TypedOfn) -> LRFuzzyNumber:
    """Forget orientation: a proper identity-base OFN as a classical number."""
    if x.base != "identity" and not x.is_rectangular:
        raise MixedTypeError(f"expected the identity base, got {x.base!r}")
    if not classify(x).proper:
        raise ImproperError("only proper numbers have a classical reading")
    outer = level_set(x, 0.0)
    core = level_set(x, 1.0)
    return LRFuzzyNumber(outer.lo, core.lo, core.hi, outer.hi)

