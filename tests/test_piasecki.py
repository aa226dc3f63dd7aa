"""Revised trapezoid arithmetic: corner rules, side rules, closure check."""
import random

import pytest

from ofnring import (CONSTANT, GAUSSIAN_INVERSE, PRODUCT_FORM, DivisionByZero,
                     DomainError, MixedTypeError, TrapezoidCorners, crisp,
                     from_typed_trapezoid, levelset_add, p_closure_check, p_op,
                     trapezoid, typed)

from helpers import random_proper


def test_corner_extraction():
    c = TrapezoidCorners.from_ofn(trapezoid(1, 0, -1, 2))
    assert c.as_tuple() == (0.0, 1.0, 1.0, 2.0)
    c = TrapezoidCorners.from_ofn(trapezoid(0, -1, -1, 0))
    assert c.as_tuple() == (-1.0, -1.0, -1.0, 0.0)
    with pytest.raises(MixedTypeError):
        TrapezoidCorners.from_ofn(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1))


def test_addition_keeps_both_sides():
    r = p_op("+", trapezoid(1, 0, -1, 2), trapezoid(1, 1, -1, 3))
    assert r.corners.as_tuple() == (1.0, 3.0, 3.0, 5.0)
    assert r.up_rule == PRODUCT_FORM and r.down_rule == PRODUCT_FORM
    assert r.up_fn.coeffs == ((1.0, 2.0),)        # 2x + 1
    assert r.down_fn.coeffs == ((5.0, -2.0),)     # 5 - 2x
    assert p_closure_check(r)


def test_crisp_product_collapses_to_constants():
    r = p_op("*", crisp(2.0), crisp(3.0))
    assert r.corners.as_tuple() == (6.0, 6.0, 6.0, 6.0)
    assert r.up_rule == CONSTANT and r.down_rule == CONSTANT
    assert r.up_fn.eval(0.7) == 6.0


def test_tie_branch_takes_outer_extremes():
    # corners (3,1,1,-2) against crisp 1: bb = cc and aa > dd selects max/min
    x = trapezoid(-2, 3, 3, -2)
    r = p_op("*", x, crisp(1.0))
    assert r.corners.as_tuple() == (3.0, 1.0, 1.0, -2.0)
    assert r.up_fn.coeffs == ((3.0, -2.0),)
    assert r.down_fn.coeffs == ((-2.0, 3.0),)
    assert p_closure_check(r)


def test_division_by_constant_sides():
    r = p_op("/", trapezoid(1, 0, -1, 2), crisp(2.0))
    assert r.corners.as_tuple() == (0.0, 0.5, 0.5, 1.0)
    assert r.up_fn.coeffs == ((0.0, 0.5),)
    assert r.down_fn.coeffs == ((1.0, -0.5),)


def test_division_guards():
    x = trapezoid(1, 0, -1, 2)
    with pytest.raises(DivisionByZero):
        p_op("/", x, trapezoid(1, 0, -1, 2))      # corner a = 0
    with pytest.raises(DomainError):
        p_op("/", x, trapezoid(1, 1, -1, 3))      # affine divisor sides
    with pytest.raises(DomainError):
        p_op("%", x, x)


def test_addition_agrees_with_classical_levelsets():
    rng = random.Random(41)
    for _ in range(50):
        x = random_proper(rng, "identity")
        y = random_proper(rng, "identity")
        r = p_op("+", x, y)
        want = levelset_add(from_typed_trapezoid(x), from_typed_trapezoid(y))
        got = r.corners.as_tuple()
        for g, w in zip(got, want.corners()):
            assert abs(g - w) <= 1e-12
        assert p_closure_check(r)


def test_subtraction_of_self_is_crisp_zero_here():
    # the revised rules cancel a number against itself, unlike level sets
    x = trapezoid(1, 0, -1, 2)
    r = p_op("-", x, x)
    assert r.corners.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert r.up_rule == CONSTANT and r.down_rule == CONSTANT
