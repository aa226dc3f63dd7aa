"""Essential-tuple ring: pinned arithmetic, axioms, geometry."""
import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, ArithmeticOverflow,
                     DivisionByZero, DomainError, EssentialTuple, Interval, MixedTypeError,
                     Side, TypedOfn, UnknownBaseError, add, crisp, div, level_set,
                     level_set_of_sides, membership_from_sides, mul, neg, one, orientation,
                     rectangular, ring, scalar_mul, side_eval, sub, trapezoid,
                     typed, zero)
from ofnring.demo import broken_ring_law, check_ring_axioms
from ofnring.ring import OPERATORS, sampled_sides

from helpers import ALL_BASES, assert_tuple, close, random_any, random_proper

finite = st.floats(allow_nan=False, allow_infinity=False)
# k/1024 with |k| <= 2**17: on triples of these the checker also states
# associativity and distributivity, bit for bit
dyadic = st.integers(min_value=-2**17, max_value=2**17).map(lambda k: k / 1024)


def triple(base, coefficients):
    return [typed(base, *coefficients[i:i + 4]) for i in (0, 4, 8)]


# ---------------------------------------------------------------------------
# pinned arithmetic
# ---------------------------------------------------------------------------

def test_operator_overloads_match_functions():
    x, y = trapezoid(1, -5, -1, -3), trapezoid(1, 5, -1, 3)
    assert x + y == add(x, y)
    assert x - y == sub(x, y)
    assert x * y == mul(x, y)
    assert x / y == div(x, y)
    assert -x == neg(x)


def test_crisp_product_annihilates():
    assert_tuple(mul(crisp(5), crisp(0)), (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_tuple_rejects_non_finite():
    # an int beyond the float range counts as not finite; a bool is no number
    for bad in (math.inf, -math.inf, math.nan, 10**400, -10**400, True):
        with pytest.raises(DomainError):
            EssentialTuple(1.0, bad, 0.0, 0.0)
        with pytest.raises(DomainError):
            typed(IDENTITY, bad, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        EssentialTuple("1", 0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="component down_offset must be finite"):
        EssentialTuple(1, 0, -1, math.nan)


def test_tuple_coerces_ints_to_floats():
    t = EssentialTuple(1, 2, 3, 4)
    assert t.as_tuple() == (1.0, 2.0, 3.0, 4.0)
    assert all(isinstance(v, float) for v in t.as_tuple())


# ---------------------------------------------------------------------------
# value semantics of EssentialTuple and TypedOfn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", ALL_BASES)
def test_values_survive_pickle_and_copy(base):
    x = random_proper(random.Random(5), base)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for value in (x, x.coeffs):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value)
    for clone in (copy.copy, copy.deepcopy):
        y = clone(x)
        assert y == x and y.base == base and type(y.coeffs) is EssentialTuple
        assert clone(x.coeffs) == x.coeffs and type(clone(x.coeffs)) is EssentialTuple


def test_unpickling_checks_like_the_constructors():
    bad_base = pickle.dumps(crisp(1.0)).replace(b"identity", b"nobase__")
    with pytest.raises(UnknownBaseError):
        pickle.loads(bad_base)


@pytest.mark.parametrize("base", ALL_BASES)
def test_equal_numbers_hash_alike(base):
    x = random_proper(random.Random(9), base)
    y = typed(base, *x.coeffs.as_tuple())
    assert x is not y and x == y and hash(x) == hash(y)
    assert x.coeffs == y.coeffs and hash(x.coeffs) == hash(y.coeffs)
    assert len({x, y, x + zero(base)}) == 1
    assert x != x + one(base)
    other = next(b for b in ALL_BASES if b != base)
    assert typed(other, *x.coeffs.as_tuple()) != x
    assert crisp(2.0, base) != crisp(2.0, other)
    assert x != x.coeffs and x.__eq__(x.coeffs) is NotImplemented


@pytest.mark.parametrize("base", ALL_BASES)
def test_fields_are_read_only(base):
    x = typed(base, 1, 2, 3, 4)
    for name in ("base", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        del x.coeffs
    for name in ("up_slope", "up_offset", "down_slope", "down_offset"):
        with pytest.raises(AttributeError):
            setattr(x.coeffs, name, 0.0)
    with pytest.raises(AttributeError):
        x.coeffs.extra = 0.0
    assert x == typed(base, 1, 2, 3, 4)


def test_tuple_order_is_lexicographic():
    ts = [EssentialTuple(*t) for t in ((1, 0, 0, 0), (0, 9, 9, 9), (0, 9, 9, -1),
                                       (0, -1, 5, 5), (0, 9, -9, 9))]
    assert sorted(ts) == [EssentialTuple(*t) for t in ((0, -1, 5, 5), (0, 9, -9, 9),
                                                       (0, 9, 9, -1), (0, 9, 9, 9),
                                                       (1, 0, 0, 0))]
    assert EssentialTuple(0, 0, 0, 1) < EssentialTuple(0, 0, 1, 0) <= EssentialTuple(0, 0, 1, 0)
    t = EssentialTuple(1, 2, 3, 4)
    assert (t.up_slope, t.up_offset, t.down_slope, t.down_offset) == (1.0, 2.0, 3.0, 4.0)


def test_repr_is_pinned():
    x = typed(GAUSSIAN_INVERSE, 1, -0.5, -2, 3.25)
    assert repr(x.coeffs) == ("EssentialTuple(up_slope=1.0, up_offset=-0.5, "
                              "down_slope=-2.0, down_offset=3.25)")
    assert repr(x) == ("TypedOfn(base='gaussian-inverse', coeffs=EssentialTuple("
                       "up_slope=1.0, up_offset=-0.5, down_slope=-2.0, down_offset=3.25))")
    assert repr(x + zero(GAUSSIAN_INVERSE)) == repr(x)


def test_ring_results_have_the_checked_types():
    x = trapezoid(1, 2, 3, 4) * typed(IDENTITY, 0.5, 0.5, 0.5, 0.5)
    assert type(x) is TypedOfn and type(x.coeffs) is EssentialTuple
    assert all(type(v) is float for v in x.coeffs)
    assert x == typed(IDENTITY, 0.5, 1.0, 1.5, 2.0)
    assert scalar_mul(2, crisp(1.0)).coeffs.as_tuple() == (0.0, 2.0, 0.0, 2.0)


def test_unknown_base_rejected():
    with pytest.raises(UnknownBaseError):
        typed("unregistered", 1, 0, -1, 2)
    with pytest.raises(UnknownBaseError):
        TypedOfn("unregistered", EssentialTuple(1, 0, -1, 2))
    with pytest.raises(UnknownBaseError):
        Side("unregistered", 1.0, 0.0)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, -1.0, 2.0), [1, 0, -1, 2], "abcd", None])
def test_typed_ofn_takes_only_an_essential_tuple(coeffs):
    # anything else would reach classify without up_slope, or make the value
    # unhashable
    with pytest.raises(DomainError, match="^coeffs must be an EssentialTuple"):
        TypedOfn(IDENTITY, coeffs)


def test_rectangular_and_crisp():
    r = rectangular(1.0, 2.0)
    assert r.is_rectangular
    assert_tuple(r, (0, 1, 0, 2))
    assert crisp(3.0, base=LOG).base == LOG
    assert_tuple(crisp(3.0), (0, 3, 0, 3))


def test_zero_and_one_identities():
    for base in ALL_BASES:
        x = typed(base, 1.5, -2.0, 0.5, 3.0)
        assert add(x, zero(base)) == x
        assert mul(x, one(base)) == x


def test_interval_validation_and_relations():
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(math.nan, 1.0)
    i = Interval(0.0, 2.0)
    assert i.contains_value(0.0) and i.contains_value(2.0)
    assert not i.contains_value(2.1)
    assert i.encloses(Interval(0.5, 1.5))
    assert not Interval(0.5, 1.5).encloses(i)


def test_interval_rejects_ints_beyond_the_float_range():
    with pytest.raises(DomainError):
        Interval(10**400, 10**401)
    with pytest.raises(DomainError):
        Interval(0.0, -10**400)


def test_interval_keeps_floats_and_refuses_bools():
    i = Interval(0, 5)
    assert repr(i) == "Interval(lo=0.0, hi=5.0)"
    assert i.lo.__class__ is float and i.hi.__class__ is float
    for ends in ((True, 2), (0, False), (False, True), ("0", 1.0), (None, 1.0)):
        with pytest.raises(DomainError):
            Interval(*ends)
    assert Interval(-math.inf, math.inf) == Interval(-math.inf, math.inf)  # infinite ends pass
    assert Interval(-math.inf, 0).hi.__class__ is float


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", ALL_BASES)
@settings(max_examples=150, deadline=None)
@given(c=st.one_of(st.tuples(*[finite] * 12), st.tuples(*[dyadic] * 12)))
def test_ring_axioms(base, c):
    assert broken_ring_law(*triple(base, c)) is None


@settings(max_examples=150, deadline=None)
@given(c=st.tuples(*[finite] * 4, *[finite.filter(lambda v: v != 0.0)] * 4, *[finite] * 4))
def test_division_inverts_multiplication(c):
    # the checker states that div rounds each component once, so
    # mul(div(x, y), y) is x within two roundings, barring underflow
    assert broken_ring_law(*triple(IDENTITY, c)) is None


def test_the_checker_finds_a_mul_one_ulp_high(monkeypatch):
    def mul(x, y):  # one ulp high on each component where no operand is 0 or 1
        return typed(x.base, *(p * q if {p, q} & {0.0, 1.0} else math.nextafter(p * q, math.inf)
                               for p, q in zip(x.coeffs, y.coeffs)))
    monkeypatch.setattr(ring, "mul", mul)
    rng = random.Random(20261022)
    for base in ALL_BASES:
        for _ in range(25):
            assert broken_ring_law(*(random_any(rng, base) for _ in range(3))) == "mul rounding"
    ok, detail = check_ring_axioms()
    assert not ok and detail.startswith("mul rounding"), detail


# zero or magnitude well clear of the subnormal range: scaling by 2^-8 must
# not shift mantissa bits out, or the round trip stops being exact
scalable = st.one_of(st.just(0.0),
                     st.floats(min_value=1e-300, max_value=1e3),
                     st.floats(min_value=-1e3, max_value=-1e-300))


@settings(max_examples=100, deadline=None)
@given(x=st.builds(lambda a, b, c, d: typed(SQRT, a, b, c, d),
                   scalable, scalable, scalable, scalable),
       k=st.integers(min_value=-8, max_value=8))
def test_power_of_two_scaling_is_exact(x, k):
    r = 2.0 ** k
    scaled = scalar_mul(r, x)
    back = scalar_mul(1.0 / r, scaled)
    assert back == x


def test_division_strictness():
    x = trapezoid(1, 1, 1, 1)
    for bad in (trapezoid(0, 1, 1, 1), trapezoid(1, 0, 1, 1),
                trapezoid(1, 1, 0, 1), trapezoid(1, 1, 1, 0),
                zero(IDENTITY)):
        with pytest.raises(DivisionByZero):
            div(x, bad)
    # 0/0 components are not special-cased
    with pytest.raises(DivisionByZero):
        div(zero(IDENTITY), zero(IDENTITY))
    with pytest.raises(ZeroDivisionError):
        div(x, zero(IDENTITY))


def test_overflow_is_an_arithmetic_error_not_a_domain_error():
    big = trapezoid(1e200, 0, 1, 1)
    huge = trapezoid(1e308, 1, 1, 1)
    for op, x, y in ((mul, big, big), (add, huge, huge), (sub, huge, neg(huge)),
                     (div, big, trapezoid(1e-200, 1, 1, 1))):
        with pytest.raises(ArithmeticOverflow):
            op(x, y)
    with pytest.raises(ArithmeticOverflow):
        scalar_mul(1e200, big)
    with pytest.raises(ArithmeticOverflow, match="component up_offset must be finite"):
        trapezoid(0, 1e308, 0, 1) + trapezoid(0, 1e308, 0, 1)
    assert not issubclass(ArithmeticOverflow, DomainError)


@pytest.mark.parametrize("base", ALL_BASES)
def test_ops_are_the_operator_table_componentwise(base):
    rng = random.Random(20261018)
    for op, fn in ((add, "+"), (sub, "-"), (mul, "*"), (div, "/")):
        for _ in range(200):
            # a rectangle takes the other operand's base; divisors have no zero
            x = rectangular(rng.uniform(-5, 5), rng.uniform(-5, 5)) \
                if rng.random() < 0.2 else typed(base, *(rng.uniform(-5, 5) for _ in range(4)))
            y = typed(base, *(rng.uniform(0.5, 5) for _ in range(4)))
            got = op(x, y)
            assert got.base == base
            assert [c.hex() for c in got.coeffs] == \
                [OPERATORS[fn](a, b).hex() for a, b in zip(x.coeffs, y.coeffs)]


def test_op_errors_are_pinned():
    huge = trapezoid(1e308, 1, 1, 1)
    for op, y in ((add, huge), (sub, neg(huge)), (mul, trapezoid(10, 1, 1, 1)),
                  (div, trapezoid(0.1, 1, 1, 1))):
        with pytest.raises(ArithmeticOverflow) as info:
            op(huge, y)
        assert str(info.value) == "overflow: tuple component up_slope must be finite, got inf"
    g, e = typed(GAUSSIAN_INVERSE, 1, 0, 1, 1), typed(LOG, 1, 1, -1, 1)
    with pytest.raises(MixedTypeError, match="^cannot combine base 'gaussian-inverse' "
                                             "with base 'log'; "):
        div(g, e)
    # a zero divisor component is refused before the bases are compared
    with pytest.raises(DivisionByZero,
                       match=r"^divisor tuple \(1\.0, 0\.0, -1\.0, 1\.0\) has a zero component$"):
        div(g, typed(LOG, 1, 0, -1, 1))


def test_scalar_mul_scales_whole_tuple():
    x = trapezoid(1, -2, 3, -4)
    assert_tuple(scalar_mul(2.0, x), (2, -4, 6, -8))
    assert_tuple(scalar_mul(0.0, x), (0, 0, 0, 0))
    for bad in (math.inf, 10**400, True, "2"):
        with pytest.raises(DomainError):
            scalar_mul(bad, x)
    # differs from ring product with crisp(r), which fixes the slopes' offsets
    assert scalar_mul(2.0, x) != mul(crisp(2.0), x)


# ---------------------------------------------------------------------------
# mixed types and rectangular polymorphism
# ---------------------------------------------------------------------------

def test_mixed_bases_raise():
    g = typed(GAUSSIAN_INVERSE, 1, 0, 1, 1)
    e = typed(LOG, 1, 0, -1, 1)
    for op in (add, sub, mul):
        with pytest.raises(MixedTypeError):
            op(g, e)


def test_rectangular_adopts_other_base():
    r = rectangular(1.0, 2.0)              # identity-tagged rectangle
    g = typed(GAUSSIAN_INVERSE, -1, 0, 1, 1)
    assert add(r, g).base == GAUSSIAN_INVERSE
    assert add(g, r).base == GAUSSIAN_INVERSE
    assert add(r, rectangular(1.0, 1.0, base=LOG)).is_rectangular
    assert_tuple(add(r, g), (-1, 1, 1, 3))


# ---------------------------------------------------------------------------
# evaluation and geometry
# ---------------------------------------------------------------------------

def test_side_eval_and_level_set_sqrt():
    x = typed(SQRT, 1, 0, -1, 2)
    assert side_eval(x, "up", 0.25) == 0.5
    assert side_eval(x, "down", 0.25) == 1.5
    assert level_set(x, 0.25) == Interval(0.5, 1.5)
    assert level_set(x, 1.0) == Interval(1.0, 1.0)
    assert level_set(x, 0.0) == Interval(0.0, 2.0)
    with pytest.raises(DomainError):
        side_eval(x, "middle", 0.5)


def test_side_coefficients_follow_the_number_rule():
    for bad in (10**400, "a", True, math.nan):
        with pytest.raises(DomainError, match="side slope must be finite"):
            Side(IDENTITY, bad, 0.0)
        with pytest.raises(DomainError, match="side offset must be finite"):
            Side(IDENTITY, 1.0, bad)
    # a side keeps the floats the rule returns, and so does what is built from it
    s = Side(IDENTITY, 0, 5)
    assert repr(s) == "Side(base='identity', slope=0.0, offset=5.0)"
    assert repr(s.value(0.5)) == "5.0"
    support = membership_from_sides(Side(IDENTITY, 1, 0), s).support
    assert repr(support) == "Interval(lo=0.0, hi=5.0)"


def test_unbounded_side_values():
    g = typed(GAUSSIAN_INVERSE, 0.25, 0, -0.25, 0)
    assert side_eval(g, "up", 0.0) == math.inf
    assert side_eval(g, "down", 0.0) == -math.inf
    assert side_eval(g, "up", 0.5) == pytest.approx(0.29435250562886867, abs=1e-15)
    assert level_set(g, 1.0) == Interval(0.0, 0.0)
    e = typed(LOG, 1, 0, -1, 0)
    assert side_eval(e, "up", 0.0) == -math.inf
    assert side_eval(e, "down", 0.0) == math.inf


@pytest.mark.parametrize("base", ALL_BASES)
@pytest.mark.parametrize("alpha", [5.0, -1.0, math.nan])
def test_constant_sides_refuse_alpha_outside_the_unit_interval(base, alpha):
    # a slope-0 side is its offset at every alpha in [0, 1], and nowhere else
    r = rectangular(1.0, 2.0, base=base)
    calls = [lambda: side_eval(r, "up", alpha), lambda: level_set(r, alpha),
             lambda: level_set_of_sides(r.up_side(), r.down_side(), alpha),
             lambda: sampled_sides(r, alpha)]
    for call in calls:
        with pytest.raises(DomainError, match="alpha must lie in"):
            call()


def test_rectangular_sides_stay_finite_at_zero():
    r = rectangular(1.0, 2.0, base=GAUSSIAN_INVERSE)
    assert side_eval(r, "up", 0.0) == 1.0
    assert side_eval(r, "down", 0.0) == 2.0


def test_orientation_bounded():
    assert orientation(trapezoid(1, 0, -1, 2)) == "increasing"
    assert orientation(trapezoid(-1, 2, 1, 0)) == "decreasing"
    assert orientation(trapezoid(2, 1, 2, 1)) == "degenerate"
    assert orientation(rectangular(1.0, 2.0)) == "increasing"
    assert orientation(rectangular(2.0, 1.0)) == "decreasing"
    # equal values at alpha=0 break the tie at alpha=1
    assert orientation(trapezoid(1, 0, 2, 0)) == "increasing"
    assert orientation(trapezoid(2, 0, 1, 0)) == "decreasing"


def test_orientation_unbounded():
    assert orientation(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1)) == "increasing"
    assert orientation(typed(GAUSSIAN_INVERSE, 1, 1, -1, 0)) == "decreasing"
    assert orientation(typed(LOG, 1, 0, -1, 1)) == "increasing"
    assert orientation(typed(LOG, -1, 1, 1, 0)) == "decreasing"
    # equal slopes: offsets decide
    assert orientation(typed(GAUSSIAN_INVERSE, 1, 0, 1, 5)) == "increasing"
    assert orientation(typed(LOG, 1, 5, 1, 0)) == "decreasing"


@pytest.mark.parametrize("base", ALL_BASES)
def test_level_set_additivity_for_matching_orientations(base):
    rng = random.Random(77)
    alphas = [k / 20 for k in range(1, 21)]
    for _ in range(40):
        x = random_proper(rng, base)
        y = random_proper(rng, base)
        s = add(x, y)
        for alpha in alphas:
            ix, iy = level_set(x, alpha), level_set(y, alpha)
            want = Interval(ix.lo + iy.lo, ix.hi + iy.hi)
            got = level_set(s, alpha)
            assert close(got.lo, want.lo, 1e-12)
            assert close(got.hi, want.hi, 1e-12)


def test_level_set_additivity_fails_for_opposed_orientations():
    # this is the escape the propriety machinery exists for
    x = trapezoid(1, 0, -1, 2)
    y = trapezoid(-2, 1, 0, -3)
    s = add(x, y)
    ix, iy = level_set(x, 1.0), level_set(y, 1.0)
    assert level_set(s, 1.0) == Interval(ix.lo + iy.lo, ix.hi + iy.hi) == Interval(-2.0, 0.0)
    ix, iy = level_set(x, 0.5), level_set(y, 0.5)
    assert level_set(s, 0.5) != Interval(ix.lo + iy.lo, ix.hi + iy.hi)
