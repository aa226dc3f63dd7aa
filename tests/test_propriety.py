"""Classification, corrections, membership inversion."""
import math
import random

import pytest

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, BaseFunction,
                     DegenerateError, ImproperError, MembershipBranch, OfnError,
                     Side, WrongPathology, classify, correct, correct_type_ii,
                     correct_type_iii, get_base, membership, membership_eval,
                     membership_from_sides, orientation, rectangular,
                     register_base, side_eval, trapezoid, typed)
from ofnring.demo import failed_repair

from helpers import (ALL_BASES, assert_tuple, random_any, random_improper, random_proper,
                     unregister)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,pathology", [
    (trapezoid(1, 0, -1, 2), "none"),            # triangle, increasing
    (trapezoid(-1, 2, 1, 0), "none"),            # same triangle, decreasing
    (rectangular(0.0, 3.0), "none"),
    (rectangular(3.0, 0.0), "none"),
    (trapezoid(0, 1, 0, 1), "none"),             # crisp point
    (trapezoid(1, 2, 1, 0), "type-ii"),          # both sides rise
    (trapezoid(-1, 1, -1, -1), "type-ii"),       # both sides fall
    (trapezoid(-2, 3, 2, 1), "type-iii"),        # twisted pair
    (trapezoid(1, 3, -1, 1), "type-iii"),        # ordered wrong way round
    (trapezoid(1, 2, -1, 0), "type-iii"),        # proper triangle, offsets swapped
    (trapezoid(1, 0, 2, -0.5), "combined"),      # same-sign slopes that cross
    (trapezoid(1, 1, 1, 1), "combined"),         # identical non-constant sides
])
def test_classification_identity_base(x, pathology):
    rep = classify(x)
    assert rep.pathology == pathology
    assert rep.proper == (pathology == "none")


def test_classification_report_fields():
    rep = classify(trapezoid(1, 2, 1, 0))
    assert rep.same_sign and not rep.crossing
    assert rep.orientation == "decreasing"
    rep = classify(trapezoid(1, 0, 2, -0.5))
    assert rep.same_sign and rep.crossing
    rep = classify(trapezoid(1, 0, -1, 2))
    assert not rep.same_sign and not rep.crossing
    assert rep.orientation == "increasing"


def test_classification_unbounded_bases():
    assert classify(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1)).proper
    assert classify(typed(LOG, 1, 0, -1, 0)).proper
    assert classify(typed(GAUSSIAN_INVERSE, 1, 0, 2, 1)).pathology == "type-ii"
    assert classify(typed(LOG, -1, 0, -2, 1)).pathology == "type-ii"
    # proper gaussian with offsets exchanged twists the sides
    assert classify(typed(GAUSSIAN_INVERSE, -1, 1, 1, 0)).pathology == "type-iii"


@pytest.mark.parametrize("base", ALL_BASES)
def test_generated_proper_numbers_classify_proper(base):
    rng = random.Random(5)
    for orient in ("increasing", "decreasing"):
        for _ in range(50):
            x = random_proper(rng, base, orient)
            rep = classify(x)
            assert rep.proper, x
            assert rep.orientation == orient


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------

# a registered base that, like gaussian-inverse, decreases, but stays bounded
ONE_MINUS_CUBE = "one-minus-cube-test"


@pytest.fixture
def one_minus_cube():
    register_base(BaseFunction(
        tag=ONE_MINUS_CUBE, func=lambda a: 1.0 - a ** 3,
        inverse_func=lambda t: (1.0 - t) ** (1 / 3), increasing=False,
        limit_at_zero=1.0, value_at_one=0.0, integral=0.75))
    try:
        yield ONE_MINUS_CUBE
    finally:
        unregister(ONE_MINUS_CUBE)


@pytest.mark.parametrize("base,tup,want", [
    (IDENTITY, (1, 2, 1, 0), (0, 2, 1, 0)),
    (SQRT, (1, 2, 1, 0), (0, 2, 1, 0)),
    (LOG, (1, 5, 2, 0), (0, 5, 2, 0)),
    (GAUSSIAN_INVERSE, (1, 0, 2, 5), (0, 0, 2, 5)),  # both sides fall
    (ONE_MINUS_CUBE, (1, 0, 2, 5), (0, 0, 2, 5)),
])
def test_type_ii_repair_keeps_the_side_whose_direction_fits(one_minus_cube,
                                                            base, tup, want):
    x = typed(base, *tup)
    assert correct(x) == (typed(base, *want), "ii")


@pytest.mark.parametrize("base", ALL_BASES + (ONE_MINUS_CUBE,))
def test_type_ii_repair_keeps_a_flank_of_the_orientation(one_minus_cube, base):
    # an increasing number's up side rises and its down side falls; a
    # decreasing number's sides do the opposite
    rng = random.Random(5)
    direction = 1 if get_base(base).increasing else -1
    repaired = 0
    while repaired < 200:
        x = typed(base, *(rng.uniform(-10, 10) for _ in range(4)))
        rep = classify(x)
        if rep.pathology != "type-ii":
            continue
        fixed = correct_type_ii(x).coeffs
        kept_up = fixed.down_slope == 0.0
        slope = fixed.up_slope if kept_up else fixed.down_slope
        moves = direction * ((slope > 0) - (slope < 0))
        want = 1 if (rep.orientation == "increasing") == kept_up else -1
        assert moves == want, x
        repaired += 1


@pytest.mark.parametrize("base", ALL_BASES + (ONE_MINUS_CUBE,))
def test_type_iii_repair_swaps_offsets_on_every_base(one_minus_cube, base):
    rng = random.Random(13)
    repaired = 0
    while repaired < 100:
        x = typed(base, *(rng.uniform(-10, 10) for _ in range(4)))
        if classify(x).pathology != "type-iii":
            continue
        t = x.coeffs
        assert_tuple(correct_type_iii(x),
                     (t.up_slope, t.down_offset, t.down_slope, t.up_offset))
        fixed, label = correct(x)
        assert label in ("iii", "fallback")
        assert classify(fixed).proper
        repaired += 1


@pytest.mark.parametrize("base", ALL_BASES + (ONE_MINUS_CUBE,))
def test_classify_reads_the_orientation_rule(one_minus_cube, base):
    rng = random.Random(29)
    xs = [random_any(rng, base) for _ in range(500)]
    # identical sides, sides that meet at one end, and gaps that overflow
    xs += [typed(base, 1, 2, 1, 2), typed(base, 0, 1, 0, 1), typed(base, 1, 0, -1, 0),
           typed(base, 0, 1, 0, 2), typed(base, -1e308, 1e308, 1e308, -1e308)]
    for x in xs:
        assert classify(x).orientation == orientation(x), x


def test_correct_type_iii_swaps_offsets():
    assert_tuple(correct_type_iii(trapezoid(1, 2, -1, 0)), (1, 0, -1, 2))
    assert classify(correct_type_iii(trapezoid(1, 2, -1, 0))).proper


def test_correct_combined_collapses_to_core():
    fixed, label = correct(trapezoid(1, 0, 2, -0.5))
    assert label == "combined"
    assert_tuple(fixed, (0, 1, 0, 1.5))


def test_correct_dispatch_labels():
    assert correct(trapezoid(1, 0, -1, 2)) == (trapezoid(1, 0, -1, 2), "none")
    assert correct(trapezoid(1, 2, 1, 0))[1] == "ii"
    assert correct(trapezoid(1, 2, -1, 0))[1] == "iii"
    assert correct(trapezoid(1, 0, 2, -0.5))[1] == "combined"


def test_targeted_corrections_reject_wrong_class():
    with pytest.raises(WrongPathology):
        correct_type_ii(trapezoid(1, 0, -1, 2))
    with pytest.raises(WrongPathology):
        correct_type_ii(trapezoid(-2, 3, 2, 1))
    with pytest.raises(WrongPathology):
        correct_type_iii(trapezoid(1, 2, 1, 0))


@pytest.mark.parametrize("base", ALL_BASES)
def test_correct_always_lands_proper_or_degenerate(base):
    rng = random.Random(11)
    for _ in range(300):
        assert failed_repair(random_improper(rng, base)) is None


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_triangle_membership():
    m = membership(trapezoid(1, 0, -1, 2))
    assert m.core.lo == m.core.hi == 1.0
    assert m.support.lo == 0.0 and m.support.hi == 2.0
    assert membership_eval(m, -0.5) == 0.0
    assert membership_eval(m, 0.5) == 0.5
    assert membership_eval(m, 1.0) == 1.0
    assert membership_eval(m, 1.25) == 0.75
    assert membership_eval(m, 2.5) == 0.0
    assert membership_eval(m, math.nan) == 0.0


def test_membership_orientation_blind():
    inc = membership(trapezoid(1, 0, -1, 2))
    dec = membership(trapezoid(-1, 2, 1, 0))
    for v in (-0.5, 0.25, 1.0, 1.75, 2.5):
        assert membership_eval(inc, v) == membership_eval(dec, v)


def test_rectangular_membership_is_an_indicator():
    m = membership(rectangular(1.0, 2.0))
    assert m.lower is None and m.upper is None
    assert membership_eval(m, 0.99) == 0.0
    assert membership_eval(m, 1.0) == 1.0
    assert membership_eval(m, 1.7) == 1.0
    assert membership_eval(m, 2.01) == 0.0


def test_gaussian_membership_values():
    m = membership(typed(GAUSSIAN_INVERSE, -1, 0, 1, 0))
    assert m.core.lo == 0.0 and m.core.hi == 0.0
    assert membership_eval(m, 1.0) == pytest.approx(0.6065306597126334, abs=1e-15)
    assert membership_eval(m, -1.0) == pytest.approx(0.6065306597126334, abs=1e-15)
    assert membership_eval(m, math.sqrt(2.0)) == pytest.approx(
        0.36787944117144233, abs=1e-15)
    shifted = membership(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1))
    assert membership_eval(shifted, 2.0) == pytest.approx(
        0.6065306597126334, abs=1e-15)


def test_exponential_membership_values():
    m = membership(typed(LOG, 1, 1, -1, 1))
    assert membership_eval(m, 0.0) == pytest.approx(0.36787944117144233, abs=1e-15)
    assert membership_eval(m, 2.0) == pytest.approx(0.36787944117144233, abs=1e-15)
    assert membership_eval(m, 1.0) == 1.0


def test_mixed_side_membership():
    # up side sqrt(x) inverts to x^2 on [0,1]; down side 2-x inverts on [1,2]
    m = membership_from_sides(Side(SQRT, 1.0, 0.0), Side(IDENTITY, -1.0, 2.0))
    for k in range(51):
        x = 2.0 * k / 50
        want = x * x if x <= 1.0 else 2.0 - x
        assert abs(membership_eval(m, x) - want) <= 1e-12


def test_membership_requires_proper():
    with pytest.raises(ImproperError):
        membership(trapezoid(1, 2, 1, 0))
    with pytest.raises(ImproperError):
        membership_from_sides(Side(IDENTITY, 1.0, 2.0), Side(IDENTITY, 1.0, 0.0))


@pytest.mark.parametrize("x", [
    typed(IDENTITY, 1.3, -1.66, -0.931, 0.571),
    typed(SQRT, 1.5, -2.3, -0.9, 0.1),
], ids=[IDENTITY, SQRT])
def test_membership_accepts_proper_numbers_whose_cores_tie(x):
    # up(1) = down(1) exactly, but evaluated one by one they round apart
    assert side_eval(x, "up", 1.0) != side_eval(x, "down", 1.0)
    assert classify(x).proper
    m = membership(x)
    for which in ("up", "down"):
        assert membership_eval(m, side_eval(x, which, 1.0)) == 1.0
        v = side_eval(x, which, 0.5)
        assert abs(membership_eval(m, v) - 0.5) <= 1e-9


def _property_numbers(rng, base, count):
    """Random, small-integer, near-tie, float-range-scale and subnormal-scale
    numbers on base."""
    h1 = get_base(base).value_at_one
    for k in range(count):
        kind = k % 5
        if kind == 0:
            tup = [rng.uniform(-10, 10) for _ in range(4)]
        elif kind == 1:
            tup = [float(rng.randint(-2, 2)) for _ in range(4)]
        elif kind == 2:
            # up(1) = down(1) before rounding
            us, uo, ds = (rng.uniform(-10, 10) for _ in range(3))
            tup = [us, uo, ds, us * h1 + uo - ds * h1]
        elif kind == 3:
            tup = [rng.choice((-1, 1)) * rng.choice((rng.uniform(1e307, 1.7e308),
                                                     1e308, rng.uniform(0, 10)))
                   for _ in range(4)]
        else:
            tup = [rng.choice((-1, 1)) * rng.choice((5e-324, 1e-323, 0.0,
                                                     rng.uniform(0, 1e-310)))
                   for _ in range(4)]
        yield typed(base, *tup)


@pytest.mark.parametrize("base", ALL_BASES + (ONE_MINUS_CUBE,))
def test_membership_rejects_exactly_what_classify_calls_improper(one_minus_cube, base):
    rng = random.Random(29)
    for x in _property_numbers(rng, base, 5000):
        proper = classify(x).proper
        try:
            membership(x)
        except ImproperError:
            assert not proper, x
        else:
            assert proper, x


def _outcome(f, *args):
    """f(*args), or the class and message of the OfnError it raised."""
    try:
        return f(*args)
    except OfnError as e:
        return type(e), str(e)


@pytest.mark.parametrize("base", ALL_BASES + (ONE_MINUS_CUBE,))
def test_sides_of_a_number_match_checked_sides(one_minus_cube, base):
    # up_side/down_side skip Side's checks; the results must not notice
    rng = random.Random(31)
    for x in _property_numbers(rng, base, 1000):
        us, uo, ds, do = x.coeffs
        up, down = Side(base, us, uo), Side(base, ds, do)
        assert (x.up_side(), x.down_side()) == (up, down)
        assert _outcome(membership, x) == _outcome(membership_from_sides, up, down), x


@pytest.mark.parametrize("x", [
    trapezoid(1e308, 0, -1e308, 1),        # core [-1e308, 1e308] wider than [0, 1]
    typed(LOG, 1e308, 1, -1e308, 0),       # up(1) = 1 > down(1) = 0
], ids=[IDENTITY, LOG])
def test_coefficient_differences_beyond_the_float_range(x):
    rep = classify(x)
    assert not rep.proper and rep.pathology == "type-iii"
    with pytest.raises(ImproperError):
        membership(x)
    assert correct(x)[1] != "none"


def test_membership_branch_guard():
    for lo, hi in ((0.0, 1.0), (0.0, 0.0)):
        with pytest.raises(DegenerateError):
            MembershipBranch(Side(IDENTITY, 0.0, 1.0), lo, hi)
