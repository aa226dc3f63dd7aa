"""Function-pair arithmetic: one polynomial per side, propriety, preimages."""
import hashlib
import random

import pytest

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, DegreeCapError, DomainError,
                     MixedTypeError, PiecewisePoly, PiecewisePolyOfn,
                     combine_sides, corresponding_membership, k_is_proper,
                     k_op, membership, membership_eval, p_closure_check, p_op,
                     rectangular, trapezoid, typed, value_preimages)

from helpers import random_proper


def affine_pair(up, down):
    return PiecewisePolyOfn(PiecewisePoly.affine(*up), PiecewisePoly.affine(*down))


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_piecewise_validation():
    with pytest.raises(DomainError):
        PiecewisePoly((0.0, 1.0), ((float("nan"), 1.0),))
    with pytest.raises(DomainError):
        PiecewisePoly((0.0, 1.0), ((1.0, float("inf")),))
    with pytest.raises(DegreeCapError):
        PiecewisePoly((0.0, 1.0), (tuple(range(10)),))
    # trailing zeros do not count towards the degree
    assert PiecewisePoly((0.0, 1.0), ((*range(9), 0.0),)).degree() == 8


@pytest.mark.parametrize("breaks,coeffs", [
    ((0.0, 0.5), ((1.0,),)),                          # does not reach 1
    ((0.5, 1.0), ((1.0,),)),                          # does not start at 0
    ((0.0, 0.5, 0.5, 1.0), ((1.0,),) * 3),            # repeated knot
    ((0.0, 1.0), ((1.0,), (2.0,))),                   # two pieces on one interval
    ((0.0, 1.0), ()),                                 # no piece
    ((0.0, 0.5, 1.0), ((0.0,), (1.0,))),              # jump at 0.5
    ((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, -1.0))),     # continuous, in two pieces
], ids=["short", "late-start", "repeated-knot", "two-pieces", "no-piece", "jump", "two-piece"])
def test_a_side_is_one_polynomial_on_the_unit_interval(breaks, coeffs):
    with pytest.raises(DomainError):
        PiecewisePoly(breaks, coeffs)


def test_piecewise_coefficients_follow_the_number_rule():
    with pytest.raises(DomainError):
        PiecewisePoly.affine(10**400, 0)
    with pytest.raises(DomainError):
        PiecewisePoly.constant(10**400)
    with pytest.raises(DomainError):
        PiecewisePoly((0.0, 1.0), ((True,),))
    with pytest.raises(DomainError):
        PiecewisePoly((0.0, 1.0), ((0.0, 10**400),))
    assert PiecewisePoly.affine(2, 1).coeffs == ((1.0, 2.0),)


def test_piecewise_breaks_and_coefficients_keep_the_floats_of_the_rule():
    p = PiecewisePoly((0, 1), ((1, 2),))
    assert repr(p) == "PiecewisePoly(breaks=(0.0, 1.0), coeffs=((1.0, 2.0),))"
    assert all(v.__class__ is float for v in p.breaks + p.coeffs[0])
    for breaks in ((False, 1.0), (0.0, True), (0.0, "1"), (0.0, 10**400)):
        with pytest.raises(DomainError):
            PiecewisePoly(breaks, ((1.0,),))


def test_list_built_and_tuple_built_values_are_equal_and_hash_alike():
    by_list = PiecewisePoly([0.0, 1.0], [[1.0, 2.0]])
    by_tuple = PiecewisePoly((0.0, 1.0), ((1.0, 2.0),))
    assert repr(by_list) == "PiecewisePoly(breaks=(0.0, 1.0), coeffs=((1.0, 2.0),))"
    assert by_list == by_tuple and hash(by_list) == hash(by_tuple)
    assert by_list == PiecewisePoly.affine(2.0, 1.0) and len({by_list, by_tuple}) == 1


def test_piecewise_eval():
    p = PiecewisePoly.affine(2.0, 1.0)
    assert p.eval(0.0) == 1.0
    assert p.eval(0.5) == 2.0
    assert p.eval(1.0) == 3.0
    assert p.degree() == 1
    assert PiecewisePoly.constant(4.0).eval(0.3) == 4.0
    with pytest.raises(DomainError):
        p.eval(1.5)


def test_from_typed_requires_identity_or_rectangular():
    k = PiecewisePolyOfn.from_typed(trapezoid(1, 0, -1, 2))
    assert k.up.coeffs == ((0.0, 1.0),)
    assert k.down.coeffs == ((2.0, -1.0),)
    r = PiecewisePolyOfn.from_typed(rectangular(1.0, 2.0, base=GAUSSIAN_INVERSE))
    assert r.up.eval(0.5) == 1.0
    with pytest.raises(MixedTypeError):
        PiecewisePolyOfn.from_typed(typed(GAUSSIAN_INVERSE, -1, 0, 1, 1))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_addition_matches_ring_on_identity_base():
    rng = random.Random(3)
    for _ in range(50):
        x = typed(IDENTITY, *(rng.uniform(-5, 5) for _ in range(4)))
        y = typed(IDENTITY, *(rng.uniform(-5, 5) for _ in range(4)))
        for star, ringed in (("+", x + y), ("-", x - y)):
            k = k_op(star, PiecewisePolyOfn.from_typed(x),
                     PiecewisePolyOfn.from_typed(y))
            want = PiecewisePolyOfn.from_typed(ringed)
            for j in range(21):
                t = j / 20
                assert abs(k.up.eval(t) - want.up.eval(t)) <= 1e-12
                assert abs(k.down.eval(t) - want.down.eval(t)) <= 1e-12


def test_pointwise_product_disagrees_with_componentwise():
    x = trapezoid(1, 0, -1, 2)
    k = k_op("*", PiecewisePolyOfn.from_typed(x), PiecewisePolyOfn.from_typed(x))
    ringed = PiecewisePolyOfn.from_typed(x * x)
    # (alpha)^2 vs alpha at the half level
    assert abs(k.up.eval(0.5) - 0.25) <= 1e-12
    assert abs(ringed.up.eval(0.5) - 0.5) <= 1e-12


def test_product_bends_a_side():
    a = affine_pair((1.0, 0.0), (-1.0, 2.0))      # (x, 2-x)
    b = affine_pair((-2.0, 1.0), (0.0, -3.0))     # (1-2x, -3)
    prod = k_op("*", a, b)
    assert prod.up.coeffs == ((0.0, 1.0, -2.0),)  # x - 2x^2
    assert prod.down.coeffs == ((-6.0, 3.0),)     # 3x - 6
    rep = k_is_proper(prod)
    assert not rep.proper
    assert rep.violation == "up-not-monotonic"


def test_degree_cap_on_products():
    quintic = PiecewisePoly((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0),))
    quartic = PiecewisePoly((0.0, 1.0), ((0.0, 0.0, 0.0, 0.0, 1.0),))
    x = PiecewisePolyOfn(quintic, quintic)
    y = PiecewisePolyOfn(quartic, quartic)
    with pytest.raises(DegreeCapError):
        k_op("*", x, y)
    with pytest.raises(DomainError):
        combine_sides("/", quintic, quartic)


def test_combining_sides_gives_one_trimmed_polynomial():
    up = PiecewisePoly.affine(1.0, 1.0)                 # 1 + x
    down = PiecewisePoly.affine(-1.0, 2.0)              # 2 - x
    s = combine_sides("+", up, down)
    assert s == PiecewisePoly.constant(3.0) and s.breaks == (0.0, 1.0)
    assert combine_sides("*", up, down).coeffs == ((2.0, 1.0, -1.0),)
    assert combine_sides("-", up, up).coeffs == ((0.0,),)
    with pytest.raises(DomainError):                    # beyond the float range
        combine_sides("*", PiecewisePoly.constant(1e300), PiecewisePoly.constant(1e300))


# ---------------------------------------------------------------------------
# propriety analysis
# ---------------------------------------------------------------------------

def test_proper_and_degenerate_pairs():
    assert k_is_proper(affine_pair((1.0, 0.0), (-1.0, 2.0))).proper
    assert k_is_proper(affine_pair((-1.0, 2.0), (1.0, 0.0))).proper
    assert k_is_proper(affine_pair((0.0, 1.0), (0.0, 2.0))).proper
    # coincident constant sides are degenerate but fine
    assert k_is_proper(affine_pair((0.0, 1.0), (0.0, 1.0))).proper


@pytest.mark.parametrize("up,down,violation", [
    ((1.0, 0.0), (1.0, 1.0), "both-increasing"),
    ((-1.0, 1.0), (-1.0, -1.0), "both-decreasing"),
    ((1.0, 1.0), (-1.0, 1.0), "twisted"),
    ((1.0, 0.0), (-1.0, 0.6), "dominance"),
])
def test_affine_violations(up, down, violation):
    rep = k_is_proper(affine_pair(up, down))
    assert not rep.proper
    assert rep.violation == violation


def test_counterexample_sum_fails_monotone_direction_check():
    s = k_op("+", affine_pair((1.0, 0.0), (-1.0, 2.0)),
             affine_pair((-2.0, 1.0), (0.0, -3.0)))
    assert s.up.coeffs == ((1.0, -1.0),)
    assert s.down.coeffs == ((-1.0, -1.0),)
    rep = k_is_proper(s)
    assert rep.violation == "both-decreasing"


def test_nonmonotone_down_side_reported():
    bent = PiecewisePoly((0.0, 1.0), ((0.0, 2.0, -4.0),))
    rep = k_is_proper(PiecewisePolyOfn(PiecewisePoly.constant(-2.0), bent))
    assert not rep.proper
    assert rep.violation == "down-not-monotonic"


def test_side_that_dips_between_close_turning_points_is_not_monotonic():
    # (x - a)^3 / 3 - e^2 x falls on (a - e, a + e): both turning points lie
    # within a thousandth of each other
    a, e = 0.5003, 1e-4
    cube = (-a ** 3 / 3, a * a, -a, 1 / 3)
    up = PiecewisePoly((0.0, 1.0), ((cube[0], cube[1] - e * e, cube[2], cube[3]),))
    rep = k_is_proper(PiecewisePolyOfn(up, PiecewisePoly.affine(-1.0, 5.0)))
    assert not rep.proper
    assert rep.violation == "up-not-monotonic"


def test_random_proper_identity_numbers_pass():
    rng = random.Random(29)
    for orient in ("increasing", "decreasing"):
        for _ in range(40):
            x = random_proper(rng, IDENTITY, orient)
            assert k_is_proper(PiecewisePolyOfn.from_typed(x)).proper


# ---------------------------------------------------------------------------
# preimages and corresponding membership
# ---------------------------------------------------------------------------

def test_value_preimages_linear():
    p = PiecewisePoly.affine(2.0, 0.0)
    assert value_preimages(p, 1.0) == [0.5]
    assert value_preimages(p, 3.0) == []


def test_value_preimages_quadratic_touch_and_cross():
    p = PiecewisePoly((0.0, 1.0), ((0.0, 1.0, -2.0),))   # x - 2x^2
    roots = value_preimages(p, 0.0)
    assert len(roots) == 2
    assert abs(roots[0] - 0.0) <= 1e-9
    assert abs(roots[1] - 0.5) <= 1e-9
    touch = value_preimages(p, 0.125)                    # vertex value
    assert len(touch) == 1
    assert abs(touch[0] - 0.25) <= 1e-9


def test_value_preimages_finds_roots_a_ten_thousandth_apart():
    p = PiecewisePoly((0.0, 1.0), ((0.3 * 0.3001, -0.6001, 1.0),))  # (x-0.3)(x-0.3001)
    roots = value_preimages(p, 0.0)
    assert len(roots) == 2
    assert abs(roots[0] - 0.3) <= 1e-12
    assert abs(roots[1] - 0.3001) <= 1e-12


def test_value_preimages_constant_piece_reports_both_ends():
    assert value_preimages(PiecewisePoly.constant(2.0), 2.0) == [0.0, 1.0]
    assert value_preimages(PiecewisePoly.constant(2.0), 1.0) == []


def test_corresponding_membership_takes_the_max_level():
    prod = k_op("*", affine_pair((1.0, 0.0), (-1.0, 2.0)),
                affine_pair((-2.0, 1.0), (0.0, -3.0)))
    # up side x - 2x^2 revisits 0 at alpha = 1/2; core band is [-3, -1]
    assert corresponding_membership(prod, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert corresponding_membership(prod, -1.0) == 1.0
    assert corresponding_membership(prod, -2.0) == 1.0
    assert corresponding_membership(prod, 0.125) == pytest.approx(0.25, abs=1e-9)
    assert corresponding_membership(prod, 10.0) == 0.0


def test_corresponding_membership_matches_inverted_membership_when_proper():
    rng = random.Random(17)
    for _ in range(20):
        x = random_proper(rng, IDENTITY)
        m = membership(x)
        k = PiecewisePolyOfn.from_typed(x)
        lo = min(k.up.eval(0.0), k.down.eval(0.0))
        hi = max(k.up.eval(0.0), k.down.eval(0.0))
        for j in range(21):
            v = lo + (hi - lo) * j / 20
            assert abs(corresponding_membership(k, v)
                       - membership_eval(m, v)) <= 1e-9


# ---------------------------------------------------------------------------
# the oracle's outputs, bit for bit
# ---------------------------------------------------------------------------

def grid_trapezoid(rng):
    """A proper identity trapezoid whose corners are multiples of 1/256 in [-3, 3]."""
    a, b, c, d = sorted(round(rng.uniform(-3.0, 3.0) * 256) / 256 for _ in range(4))
    if rng.random() < 0.5:
        return trapezoid(b - a, a, c - d, d)
    return trapezoid(c - d, d, b - a, a)


def oracle_outputs(rng):
    """One sum or product chain of 2-4 trapezoids, and what the oracles say of it."""
    ops = [rng.choice("+-*") for _ in range(rng.randrange(1, 4))]
    xs = [grid_trapezoid(rng) for _ in range(len(ops) + 1)]
    kr = PiecewisePolyOfn.from_typed(xs[0])
    for op, x in zip(ops, xs[1:]):
        kr = k_op(op, kr, PiecewisePolyOfn.from_typed(x))
    rep = k_is_proper(kr)
    probes = (kr.up.eval(0.5), kr.down.eval(0.25), kr.up.eval(1.0))
    levels = tuple(corresponding_membership(kr, v).hex() for v in probes)
    closed = p_closure_check(p_op(ops[0], xs[0], xs[1]))
    return ops, rep.proper, rep.violation, levels, closed


# the sha256 of the verdicts, violations, levels and closure flags of 600
# seeded chains: a faster oracle must keep it, and only a deliberate change to
# the oracle's tolerances may change it
PINNED_ORACLE_SHA256 = "e8b236c519c4e079bf0d8899adb75abd5263a284d6ac29b640b2009c479a4c4f"


def test_oracle_outputs_are_pinned_bit_for_bit():
    rng = random.Random(20261020)
    h = hashlib.sha256()
    verdicts = set()
    for _ in range(600):
        out = oracle_outputs(rng)
        verdicts.add(out[1:3])
        h.update(repr(out).encode())
    assert len(verdicts) == 7  # proper, and each of the six violations
    assert h.hexdigest() == PINNED_ORACLE_SHA256


# ---------------------------------------------------------------------------
# the oracle's outputs on near ties
# ---------------------------------------------------------------------------

# down(1) - up(1) of each operand: the near ties of ROADMAP item 5
NEAR_TIES = (0.0, 1e-13, -1e-13, 1e-10, -1e-10, 5e-16)

# the sha256 of the verdicts, violations, levels and closure flags of 600
# seeded near-tie sums and products; unlike PINNED_ORACLE_SHA256 it moves
# when a tolerance of k_is_proper or corresponding_membership moves, so
# tolerance-free verdicts (item 5) change it on purpose
PINNED_NEAR_TIE_SHA256 = "be185ea877c45d865ebe9b91cd8fa9ece52a83ba76a1f95b565abc0591148dca"


def near_tie_trapezoid(rng):
    """An identity trapezoid, at one of three magnitudes, whose core is a near tie."""
    scale = rng.choice((1e-2, 1.0, 1e2))
    lo, core, hi = sorted(rng.uniform(-3.0, 3.0) * scale for _ in range(3))
    tie = rng.choice(NEAR_TIES)
    if rng.random() < 0.5:  # increasing: up rises lo -> core, down falls hi -> core + tie
        return trapezoid(core - lo, lo, core + tie - hi, hi)
    return trapezoid(core - hi, hi, core + tie - lo, lo)


def near_tie_outputs(rng):
    """A sum or product of two near ties, and what the oracles say of it."""
    op = rng.choice("+*")
    x, y = near_tie_trapezoid(rng), near_tie_trapezoid(rng)
    kr = k_op(op, PiecewisePolyOfn.from_typed(x), PiecewisePolyOfn.from_typed(y))
    rep = k_is_proper(kr)
    # the core ends, and values a ten-thousandth of alpha inside them
    probes = (kr.up.eval(1.0), kr.down.eval(1.0), kr.up.eval(0.9999), kr.down.eval(0.9999))
    levels = tuple(corresponding_membership(kr, v).hex() for v in probes)
    return op, rep.proper, rep.violation, levels, p_closure_check(p_op(op, x, y))


def test_oracle_outputs_on_near_ties_are_pinned_bit_for_bit():
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(600):
        h.update(repr(near_tie_outputs(rng)).encode())
    assert h.hexdigest() == PINNED_NEAR_TIE_SHA256
