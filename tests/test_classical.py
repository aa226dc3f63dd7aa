"""Classical L-R numbers and the extension-principle oracles."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofnring import (GAUSSIAN_INVERSE, ArithmeticOverflow, DomainError, ImproperError,
                     Interval, LRFuzzyNumber, MixedTypeError, classical, from_typed_trapezoid,
                     levelset_add, lr_level_set, lr_membership, rectangular,
                     trapezoid, typed, zadeh_add_grid, zadeh_mul_levelsets)

from helpers import LR_FAMILIES, random_lr, reference_zadeh_add_grid


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


@pytest.mark.parametrize("grid", [2001.0, "2001", True, None, np.int64(2001)])
def test_grid_must_be_an_int(grid):
    x = LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(DomainError, match="grid must be an int"):
        zadeh_add_grid(x, x, grid)


@pytest.mark.parametrize("x,y", [
    (LRFuzzyNumber(-1e308, 0.0, 0.0, 1e308),) * 2,  # the span of x
    (LRFuzzyNumber(0.0, 1.0, 2.0, 1e308), LRFuzzyNumber(0.0, 1.0, 2.0, 1e308)),  # a corner sum
    (LRFuzzyNumber(0.0, 1.0, 2.0, 3.0), LRFuzzyNumber(-1e308, 0.0, 0.0, 1e308)),  # the span of y
    (LRFuzzyNumber(-1e308, -1e308, 0.0, 0.0),
     LRFuzzyNumber(1e308, 1e308, 1e308, 1e308)),  # z - t
    (LRFuzzyNumber(1e308, 1e308, 1e308, 1.7976931348623157e308),
     LRFuzzyNumber(0.0, 0.0, 0.0, 0.0)),  # the last step np.linspace forms
])
def test_grid_overflow_raises_before_numpy(x, y):
    # pytest turns numpy's RuntimeWarning into an error, so a warning fails here
    with pytest.raises(ArithmeticOverflow):
        zadeh_add_grid(x, y, 101)


def _grid_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        first = LR_FAMILIES[k % len(LR_FAMILIES)]
        second = first if k % 2 == 0 else rng.choice(LR_FAMILIES)
        yield random_lr(rng, first), random_lr(rng, second)


@pytest.mark.parametrize("grid", [101, 257, 1000, 2001])
def test_grid_is_the_full_sup_min_bit_for_bit(grid):
    for x, y in _grid_pairs(grid, 240 if grid < 1000 else 24):
        zs, levels = zadeh_add_grid(x, y, grid)
        ref_zs, ref_levels = reference_zadeh_add_grid(x, y, grid)
        assert zs.tobytes() + levels.tobytes() == ref_zs.tobytes() + ref_levels.tobytes(), \
            (x, y, grid)


# one point of a search: its range [start, start + length), where its
# predicate stops holding (an offset into the range, or past its end), and a
# guess inside it, outside it, far off or not finite
_POINTS = st.tuples(
    st.integers(0, 40), st.integers(1, 300), st.integers(0, 310),
    st.one_of(st.floats(-5.0, 305.0), st.floats(-1e300, 1e300),
              st.sampled_from([math.nan, math.inf, -math.inf, -1e300, 1e300])))


@settings(max_examples=200, deadline=None)
@given(st.lists(_POINTS, min_size=1, max_size=40), st.integers(2, 4))
def test_first_from_a_guess_is_a_linear_scan_within_its_rounds(points, slack):
    start, length, edge, offset = (np.array(v) for v in zip(*points))
    stop = start + length
    edge = start + edge  # fails(i) holds for i < edge: a prefix of each range
    guess = start + offset
    rounds = int(np.max(np.ceil(np.log2(length + 1)))) + slack
    calls = []

    def fails(i):
        assert i.dtype == np.intp and np.all((start <= i) & (i < stop))
        calls.append(i)
        return i < edge

    got = classical._first(fails, start, stop, guess, rounds)
    want = [next((i for i in range(a, b) if not i < e), b) for a, b, e in zip(start, stop, edge)]
    assert got.tolist() == want
    assert len(calls) <= rounds


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
