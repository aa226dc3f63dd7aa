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
from .ring import Interval, TypedOfn, _number
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


def _membership_grid(n: LRFuzzyNumber, xs):
    """lr_membership of n at every value of the numpy array xs, by the same expressions."""
    import numpy as np

    out = ((xs >= n.core_lo) & (xs <= n.core_hi)).astype(float)
    if n.left_spread > 0.0:
        left = (xs >= n.support_lo) & (xs < n.core_lo)
        np.subtract(xs, n.support_lo, out=out, where=left)
        np.divide(out, n.left_spread, out=out, where=left)
    if n.right_spread > 0.0:
        right = (xs > n.core_hi) & (xs <= n.support_hi)
        np.subtract(n.support_hi, xs, out=out, where=right)
        np.divide(out, n.right_spread, out=out, where=right)
    return out


def _first(fails, start, stop, guess, rounds: int):
    """Per point, the first index in [start, stop) where `fails` no longer holds, else stop.

    fails(i) must hold on a prefix of [start, stop) and nowhere after.  It is
    called once per round with one index per point, so every point moves
    together.  A point first probes the floor of its `guess` (a float array,
    clipped into the range), then gallops out from there by 1, 2, 4, ...
    until a probe answers the other way, and bisects the bracket that is
    left; a point whose guess is not finite bisects from the start.  Every
    probe asks the same question of the same index, so the guess decides how
    many rounds run, never the answer.  A point gallops only while a miss
    leaves bisection enough rounds, so none takes more than `rounds`, which
    must be at least ceil(log2(stop - start + 1)) + 2.
    """
    import numpy as np

    lo = np.zeros(guess.shape, np.intp) + start  # the answer lies in [lo, hi]
    hi = np.zeros(guess.shape, np.intp) + stop
    last = hi - 1
    galloping = np.isfinite(guess)
    origin = np.floor(guess)
    if not galloping.all():  # without a guess, the first probe bisects
        origin = np.where(galloping, origin, (lo + hi) >> 1)
    origin = m = np.minimum(np.maximum(origin, lo), last).astype(np.intp)
    for r in range(rounds):
        # a settled point probes its answer (the last index if that is stop),
        # which leaves it settled
        held = fails(m)
        np.copyto(lo, m + 1, where=held)
        np.copyto(hi, m, where=~held)
        unsettled = lo < hi
        if not np.count_nonzero(unsettled):
            break
        if r == 0:
            up = held  # the side each guess missed on
        galloping &= held == up
        m = (lo + hi) >> 1
        if np.count_nonzero(galloping & unsettled):
            step = 1 << r
            ahead = np.maximum(np.minimum(np.where(up, origin + step, origin - step), hi - 1), lo)
            if r:  # the first two rounds always leave bisection time
                galloping &= np.maximum(hi - ahead, ahead + 1 - lo) <= 1 << (rounds - r - 2)
            m = np.where(galloping, ahead, m)
        m = np.minimum(m, last)
    return lo


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
    are each found by a search (`_first`), for all output points at once, and
    every value is computed by the same expression a full grid would use.

    Each search starts from a guess.  The flanks are straight lines, so the
    peak of g lies near the sample zs[j] - core_hi of y, and the crossing
    near the point where the falling flank meets the rising one: where
    (support_hi - t) / right_spread of x equals (support_hi - zs[j] + t) /
    right_spread of y when f falls, and where the two left flanks meet when
    f rises.  A good guess settles the search in two rounds; a poor one
    (a clamped flank, a zero spread, a crisp number) only costs rounds, at
    most ceil(log2 grid) + 3 of them, because every probe tests the same
    monotone predicate and the guess never changes the answer.

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

    ts = np.linspace(x.support_lo, x.support_hi, grid)
    mu_x = _membership_grid(x, ts)
    zs = np.linspace(lo_sum, hi_sum, grid)
    rounds = (grid - 1).bit_length() + 3

    def mu_y(i):  # g at index i[j] of output point j, for every j
        return _membership_grid(y, zs - ts[i])

    a = np.argmax(mu_x)  # a peak of f
    dt = (x.support_hi - x.support_lo) / (grid - 1)  # the step of ts
    with np.errstate(all="ignore"):  # a guess may be anything; a bad one costs rounds
        guess = (zs - y.core_hi - x.support_lo) / dt
    # g rises while zs[j] - ts[i] > core_hi and falls from there on
    p = _first(lambda i: zs - ts[i] > y.core_hi, 0, grid, guess, rounds)
    before, after = np.clip(p - 1, 0, grid - 1), np.minimum(p, grid - 1)
    b = np.where(mu_y(before) >= mu_y(after), before, after)  # a peak of g
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    f_falls = a <= b  # on [lo, hi] the one peaking at lo falls, the other rises

    def falling_ahead(i):
        f, g = mu_x[i], mu_y(i)
        return np.where(f_falls, f >= g, g >= f)

    with np.errstate(all="ignore"):
        rx, ry = x.right_spread, y.right_spread
        lx, ly = x.left_spread, y.left_spread
        meet = np.where(f_falls, (ry * x.support_hi - rx * (y.support_hi - zs)) / (rx + ry),
                        (lx * (zs - y.support_lo) + ly * x.support_lo) / (lx + ly))
        guess = (meet - x.support_lo) / dt
    # on [lo, c) min(f, g) is the rising one, on [c, hi] the falling one
    c = _first(falling_ahead, lo, hi + 1, guess, rounds)

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
    # the sides at alpha = 0 and 1 as level_set forms them, with h(0) = 0 and
    # h(1) = 1: slope * 0.0 keeps the sign that zero offsets get there
    us, uo, ds, do = x.coeffs
    u0 = uo if us == 0.0 else us * 0.0 + uo
    d0 = do if ds == 0.0 else ds * 0.0 + do
    u1 = uo if us == 0.0 else us + uo
    d1 = do if ds == 0.0 else ds + do
    corners = (min(u0, d0), min(u1, d1), max(u1, d1), max(u0, d0))
    if not corners[0] <= corners[1] <= corners[2] <= corners[3]:  # also if a sum overflowed
        return LRFuzzyNumber(*corners)  # which raises the checked constructor's error
    return LRFuzzyNumber._make(*corners)
