"""Classical L-R fuzzy numbers and extension-principle oracles.

This module is the reference semantics the ring is audited against: orthodox
fuzzy numbers with convex level sets, level-set (interval) arithmetic, and
two brute-force extension-principle evaluators.  Nothing here knows about
orientation; that is the point.  The flanks are linear only: membership
rises in a straight line from a support end to the core, so a number is its
four corners, which is how a proper identity-base OFN reads classically.

Only the sampled sup-min grid, `zadeh_add_grid`, needs numpy, and it imports
numpy when it is called: importing this module, the package or the CLI never
loads numpy.
"""
from __future__ import annotations

from .bases import _Value
from .errors import DomainError, ImproperError, MixedTypeError
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


def zadeh_add_grid(x: LRFuzzyNumber, y: LRFuzzyNumber, grid: int = 2001):
    """Sup-min convolution of the sum, sampled on `grid` output points.

    Returns (zs, levels), two numpy arrays of length `grid`.  This is the
    extension principle evaluated head on; it exists to audit levelset_add,
    not to be fast or exact.
    """
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

    if grid < 101:
        raise DomainError(f"grid must be at least 101, got {grid}")
    ts = np.linspace(x.support_lo, x.support_hi, grid)
    mu_x = membership_grid(x, ts)
    zs = np.linspace(x.support_lo + y.support_lo, x.support_hi + y.support_hi, grid)
    levels = np.empty(grid)
    chunk = 256
    for start in range(0, grid, chunk):
        block = zs[start:start + chunk, None] - ts[None, :]
        mu_y = membership_grid(y, block.ravel()).reshape(block.shape)
        levels[start:start + chunk] = np.minimum(mu_x[None, :], mu_y).max(axis=1)
    return zs, levels


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

