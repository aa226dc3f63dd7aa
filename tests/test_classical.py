"""Classical L-R numbers and the extension-principle oracles."""
import math

import numpy as np
import pytest

from ofnring import (GAUSSIAN_INVERSE, DomainError, ImproperError, Interval,
                     LRFuzzyNumber, MixedTypeError, from_typed_trapezoid,
                     levelset_add, lr_level_set, lr_membership, rectangular,
                     trapezoid, typed, zadeh_add_grid, zadeh_mul_levelsets)


def test_corner_validation():
    with pytest.raises(DomainError):
        LRFuzzyNumber(0.0, 2.0, 1.0, 3.0)
    with pytest.raises(DomainError):
        LRFuzzyNumber(0.0, 1.0, 2.0, math.inf)
    n = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    assert n.left_spread == 1.0 and n.right_spread == 1.0
    assert n.corners() == (0.0, 1.0, 2.0, 3.0)


def test_corners_follow_the_number_rule():
    for corners in ((0, 1, 2, 10**400), (-10**400, 1, 2, 3), (0.0, True, 2.0, 3.0)):
        with pytest.raises(DomainError):
            LRFuzzyNumber(*corners)
    assert repr(LRFuzzyNumber(0, 1, 2, 3)) == (  # the floats the rule returns are kept
        "LRFuzzyNumber(support_lo=0.0, core_lo=1.0, core_hi=2.0, support_hi=3.0)")


def test_membership_five_cases():
    n = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    assert lr_membership(n, -1.0) == 0.0
    assert lr_membership(n, 0.5) == 0.5
    assert lr_membership(n, 1.5) == 1.0
    assert lr_membership(n, 2.5) == 0.5
    assert lr_membership(n, 4.0) == 0.0
    assert lr_membership(n, 0.0) == 0.0
    assert lr_membership(n, 1.0) == 1.0


def test_zero_spread_jumps():
    n = LRFuzzyNumber(1.0, 1.0, 2.0, 2.0)
    assert lr_membership(n, 1.0) == 1.0
    assert lr_membership(n, 0.999) == 0.0
    assert lr_level_set(n, 0.0) == Interval(1.0, 2.0)
    assert lr_level_set(n, 1.0) == Interval(1.0, 2.0)


def test_level_sets():
    n = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    assert lr_level_set(n, 0.5) == Interval(0.5, 2.5)
    assert lr_level_set(n, 0.0) == Interval(0.0, 3.0)
    assert lr_level_set(n, 1.0) == Interval(1.0, 2.0)
    with pytest.raises(DomainError):
        lr_level_set(n, 1.5)


def test_levelset_add_is_cornerwise():
    x = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    y = LRFuzzyNumber(0.0, 2.0, 2.0, 4.0)
    assert levelset_add(x, y).corners() == (0.0, 3.0, 4.0, 7.0)


def test_sup_min_grid_matches_levelset_sum():
    x = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    y = LRFuzzyNumber(0.0, 2.0, 2.0, 4.0)
    s = levelset_add(x, y)
    zs, levels = zadeh_add_grid(x, y, grid=2001)
    want = np.array([lr_membership(s, z) for z in zs])
    assert float(np.max(np.abs(levels - want))) <= 0.01
    # the core midpoint is sampled exactly
    mid = int(np.argmin(np.abs(zs - 3.5)))
    assert zs[mid] == 3.5
    assert levels[mid] == 1.0


def test_grid_floor():
    x = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(DomainError):
        zadeh_add_grid(x, x, grid=50)


def _brute_product_cut(x, y, alpha, n=100):
    ix = lr_level_set(x, alpha)
    iy = lr_level_set(y, alpha)
    ss = np.linspace(ix.lo, ix.hi, n)
    ts = np.linspace(iy.lo, iy.hi, n)
    prods = ss[:, None] * ts[None, :]
    return float(prods.min()), float(prods.max())


@pytest.mark.parametrize("x,y", [
    (LRFuzzyNumber(1.0, 2.0, 3.0, 4.0), LRFuzzyNumber(2.0, 3.0, 3.0, 5.0)),
    (LRFuzzyNumber(-2.0, -1.0, 1.0, 2.0), LRFuzzyNumber(0.5, 1.0, 2.0, 3.0)),
    (LRFuzzyNumber(-4.0, -3.0, -2.0, -1.0), LRFuzzyNumber(-2.0, -1.0, 0.0, 1.0)),
])
def test_product_levelsets_against_brute_force(x, y):
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        got = zadeh_mul_levelsets(x, y, alpha)
        lo, hi = _brute_product_cut(x, y, alpha)
        assert abs(got.lo - lo) <= 2e-3
        assert abs(got.hi - hi) <= 2e-3


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------

def test_bridge_from_typed():
    n = from_typed_trapezoid(trapezoid(1, 0, -1, 2))
    assert n.corners() == (0.0, 1.0, 1.0, 2.0)
    r = from_typed_trapezoid(rectangular(1.0, 2.0, base=GAUSSIAN_INVERSE))
    assert r.corners() == (1.0, 1.0, 2.0, 2.0)
    # orientation is forgotten: the decreasing twin reads the same
    d = from_typed_trapezoid(trapezoid(-1, 2, 1, 0))
    assert d.corners() == n.corners()


def test_bridge_guards():
    with pytest.raises(ImproperError):
        from_typed_trapezoid(trapezoid(1, 2, 1, 0))
    with pytest.raises(MixedTypeError):
        from_typed_trapezoid(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1))


def test_bridge_round_trip():
    n = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    assert from_typed_trapezoid(trapezoid(1.0, 0.0, -1.0, 3.0)).corners() == n.corners()
