"""End-to-end reproduction of the package's headline facts.

Each row re-derives one worked result from scratch and checks it exactly.
Rows 4 and 7 run seeded samples through broken_ring_law and failed_repair,
the one statement of the ring laws and of the repair law, which the
property tests draw through too.  The runner prints one PASS/FAIL row per
item and returns a nonzero exit code if any row fails, so it doubles as a
smoke gate.
"""
from __future__ import annotations

import random
from typing import Callable, Iterator

from . import kosinski, piasecki, propriety, ring
from .bases import GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT
from .errors import ArithmeticOverflow
from .ring import Interval, Side, TypedOfn, level_set, level_set_of_sides, trapezoid, typed

_SEED = 20240811
_BASES = (IDENTITY, SQRT, GAUSSIAN_INVERSE, LOG)
# general samples: uniform(-10, 10) scaled to ordinary, huge, tiny or subnormal
_DECADES = (0, 150, -150, -310)
# each ring op's exact value on floats n/d and m/e: the denominators are powers
# of two, and int / int rounds once, raising OverflowError past the float range
_EXACT = {"add": lambda n, d, m, e: (n * e + m * d) / (d * e),
          "sub": lambda n, d, m, e: (n * e - m * d) / (d * e),
          "mul": lambda n, d, m, e: n * m / (d * e),
          "div": lambda n, d, m, e: n * e / (d * m)}


def _outcome(op: Callable[[TypedOfn, TypedOfn], TypedOfn], x: TypedOfn,
             y: TypedOfn) -> TypedOfn | None:
    """op(x, y), or None where it overflows."""
    try:
        return op(x, y)
    except ArithmeticOverflow:
        return None


def _rounded(exact: Callable[..., float], x: TypedOfn, y: TypedOfn) -> tuple[float, ...] | None:
    """Each component's exact value rounded once, or None where one overflows."""
    try:
        return tuple(exact(*a.as_integer_ratio(), *b.as_integer_ratio())
                     for a, b in zip(x.coeffs, y.coeffs))
    except OverflowError:
        return None


def _ring_laws(x: TypedOfn, y: TypedOfn, z: TypedOfn) -> Iterator[tuple[str, bool]]:
    base, add, mul = x.base, ring.add, ring.mul
    yield "add commutes", _outcome(add, x, y) == _outcome(add, y, x)
    yield "mul commutes", _outcome(mul, x, y) == _outcome(mul, y, x)
    yield "additive identity", add(x, ring.zero(base)) == x
    yield "multiplicative identity", mul(x, ring.one(base)) == x
    yield "additive inverse", add(x, ring.neg(x)) == ring.zero(base)
    for name, exact in _EXACT.items():
        if name != "div" or 0.0 not in y.coeffs:
            got = _outcome(getattr(ring, name), x, y)
            yield "closure", got is None or got.base == base
            yield f"{name} rounding", \
                (None if got is None else got.coeffs) == _rounded(exact, x, y)
    if all((c * 1024).is_integer() and abs(c) <= 128 for t in (x, y, z) for c in t.coeffs):
        yield "add associativity", add(add(x, y), z) == add(x, add(y, z))
        yield "mul associativity", mul(mul(x, y), z) == mul(x, mul(y, z))
        yield "distributivity", mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def broken_ring_law(x: TypedOfn, y: TypedOfn, z: TypedOfn) -> str | None:
    """The name of the first ring law that a triple of one base breaks, or None.

    Bit for bit (float ==, blind to the sign of zero): + and * commute, zero
    and one are identities, x + (-x) is zero, and each result keeps the base.
    Each component of add, sub, mul and div (when y has no zero component) is
    its exact value rounded once, and the op raises ArithmeticOverflow exactly
    where that rounding overflows.  On a dyadic triple (coefficients k/1024,
    |k| <= 2**17) every sum and product of three is exact, so associativity
    and distributivity hold bit for bit; elsewhere they follow from rounding.
    The ops are called as ring.add and so on, so a test can swap one out.
    """
    return next((law for law, holds in _ring_laws(x, y, z) if not holds), None)


def failed_repair(x: TypedOfn) -> str | None:
    """What correct(x) gets wrong, or None: its label is "none" exactly when x
    is proper, and one of the four repairs otherwise; its result is proper or
    degenerate."""
    fixed, label = propriety.correct(x)
    rep = propriety.classify(fixed)
    ok = (label in ("none", "ii", "iii", "combined", "fallback")
          and (label == "none") == propriety.classify(x).proper
          and (rep.proper or rep.orientation == "degenerate"))
    return None if ok else \
        f"correct({x.coeffs.as_tuple()}) gave {label!r}, {fixed.coeffs.as_tuple()}"


def check_level_set_example() -> tuple[bool, str]:
    up = Side(SQRT, 1.0, 0.0)
    down = Side(IDENTITY, -1.0, 2.0)
    quarter = level_set_of_sides(up, down, 0.25)
    core = level_set_of_sides(up, down, 1.0)
    outer = level_set_of_sides(up, down, 0.0)
    m = propriety.membership_from_sides(up, down)
    ok = (quarter == Interval(0.5, 1.75)
          and core == Interval(1.0, 1.0)
          and outer == Interval(0.0, 2.0)
          and propriety.membership_eval(m, 0.5) == 0.25
          and propriety.membership_eval(m, 1.5) == 0.5)
    return ok, f"quarter cut {quarter.lo}..{quarter.hi}, support {outer.lo}..{outer.hi}"


def check_trapezoid_ops() -> tuple[bool, str]:
    x = trapezoid(1, -5, -1, -3)
    y = trapezoid(1, 5, -1, 3)
    ok = ((x + y).coeffs == (2, 0, -2, 0)
          and (x - y).coeffs == (0, -10, 0, -6)
          and (x * y).coeffs == (1, -25, 1, -9)
          and (x / y).coeffs == (1, -1, 1, -1))
    return ok, "add/sub/mul/div on (x-5, -x-3) and (x+5, -x+3)"


def check_one_sided_add() -> tuple[bool, str]:
    z = trapezoid(0, -1, -1, 0) + trapezoid(0, 2, 4, -2)
    return z.coeffs == (0, 1, 3, -2), f"sum tuple {z.coeffs.as_tuple()}"


def check_gaussian_add() -> tuple[bool, str]:
    z = typed(GAUSSIAN_INVERSE, 0.25, 0, -0.25, 0) \
        + typed(GAUSSIAN_INVERSE, 0.125, 1, -0.125, 1)
    ok = z.coeffs == (0.375, 1, -0.375, 1) and z.base == GAUSSIAN_INVERSE
    return ok, f"sum tuple {z.coeffs.as_tuple()}"


def check_ring_axioms() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    draws = (lambda: rng.uniform(-10, 10) * 10.0 ** rng.choice(_DECADES),
             lambda: rng.randint(-2**17, 2**17) / 1024)  # general, dyadic
    per_base = 500
    for base in _BASES:
        for i in range(per_base):
            draw = draws[i % 2]
            x, y, z = (typed(base, *(draw() for _ in range(4))) for _ in range(3))
            if (law := broken_ring_law(x, y, z)) is not None:
                return False, f"{law} broke on {base}"
    return True, f"{per_base} seeded triples per base, half dyadic, {len(_BASES)} bases"


def check_componentwise_escape() -> tuple[bool, str]:
    a = trapezoid(1, 0, -1, 2)
    b = trapezoid(-2, 1, 0, -3)
    s = a + b
    rep = propriety.classify(s)
    ks = kosinski.k_op("+", kosinski.PiecewisePolyOfn.from_typed(a),
                       kosinski.PiecewisePolyOfn.from_typed(b))
    core = level_set(s, 1.0)
    half = level_set(s, 0.5)
    ok = (s.coeffs == (-1, 1, -1, -1)
          and not rep.proper and rep.pathology == propriety.PATHOLOGY_II
          and ks.up.coeffs == ((1.0, -1.0),) and ks.down.coeffs == ((-1.0, -1.0),)
          and core == Interval(-2.0, 0.0) and half == Interval(-1.5, 0.5)
          and not half.encloses(core))
    return ok, f"core {core.lo}..{core.hi} escapes the half cut {half.lo}..{half.hi}"


def check_trapezoid_product_escape() -> tuple[bool, str]:
    x = trapezoid(0, -1, -1, 0)
    y = trapezoid(0, 2, 4, -2)
    r = piasecki.p_op("*", x, y)
    closed = piasecki.p_closure_check(r)
    hits = kosinski.value_preimages(r.down_fn, 0.0)
    ok = (r.corners.as_tuple() == (-2.0, -2.0, -2.0, 0.0)
          and r.up_rule == piasecki.CONSTANT and r.down_rule == piasecki.PRODUCT_FORM
          and r.down_fn.coeffs == ((0.0, 2.0, -4.0),)
          and not closed
          and hits == [0.0, 0.5]
          and r.down_fn.eval(0.0) == 0.0 and r.down_fn.eval(0.5) == 0.0)
    return ok, f"corners {r.corners.as_tuple()}, down side revisits 0 at alpha 0 and 1/2"


def check_corrections() -> tuple[bool, str]:
    y = trapezoid(1, 2, 1, 0)
    y_fixed = propriety.correct_type_ii(y)
    s = trapezoid(-1, 1, -1, -1)
    s_fixed = propriety.correct_type_ii(s)
    x = trapezoid(-2, 3, 2, 1)
    untwisted = propriety.correct_type_iii(x)
    fell_back, label = propriety.correct(x)
    ok = (y_fixed.coeffs == (0, 2, 1, 0) and propriety.classify(y_fixed).proper
          and s_fixed.coeffs == (-1, 1, 0, -1) and propriety.classify(s_fixed).proper
          and untwisted.coeffs == (-2, 1, 2, 3)
          and not propriety.classify(untwisted).proper
          and fell_back.coeffs == (0, 1, 0, 3) and label == "fallback"
          and propriety.classify(fell_back).proper)
    if not ok:
        return False, "worked corrections disagree"
    rng = random.Random(_SEED + 1)
    per_base = 1000
    for base in _BASES:
        found = 0
        while found < per_base:
            cand = typed(base, *(rng.uniform(-10, 10) for _ in range(4)))
            if propriety.classify(cand).proper:
                continue
            found += 1
            if (fault := failed_repair(cand)) is not None:
                return False, fault
    return True, f"worked repairs plus {per_base} random improper tuples per base"


CHECKS: tuple[tuple[str, str, Callable[[], tuple[bool, str]]], ...] = (
    ("0", "square-root flank level sets and membership", check_level_set_example),
    ("1", "trapezoid ring arithmetic", check_trapezoid_ops),
    ("2", "one-sided trapezoid addition", check_one_sided_add),
    ("3", "gaussian addition", check_gaussian_add),
    ("4", "ring axioms on random tuples", check_ring_axioms),
    ("5", "componentwise sum escapes propriety", check_componentwise_escape),
    ("6", "revised trapezoid product escapes closure", check_trapezoid_product_escape),
    ("7", "pathology corrections", check_corrections),
)


def run_demo() -> int:
    failures = 0
    print("ordered fuzzy number arithmetic: worked-example gate")
    for number, label, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        status = "PASS" if ok else "FAIL"
        print(f" {number}  {label:<46} {status}  {detail}")
        if not ok:
            failures += 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
