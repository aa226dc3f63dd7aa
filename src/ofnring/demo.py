"""End-to-end reproduction of the package's headline facts.

Each row re-derives one worked result from scratch and checks it exactly
(or within the stated tolerance for the randomized law suites).  The runner
prints one PASS/FAIL row per item and returns a nonzero exit code if any
row fails, so it doubles as a smoke gate.
"""
from __future__ import annotations

import random
from typing import Callable

from . import kosinski, piasecki, propriety, ring
from .bases import GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, available_tags
from .ring import Interval, Side, TypedOfn, level_set, level_set_of_sides, trapezoid, typed

_SEED = 20240811
_REL_TOL = 1e-9


def _tuples_equal(x: TypedOfn, want: tuple[float, float, float, float]) -> bool:
    return x.coeffs.as_tuple() == want


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _ofn_close(x: TypedOfn, y: TypedOfn) -> bool:
    return all(_close(a, b) for a, b in zip(x.coeffs.as_tuple(), y.coeffs.as_tuple()))


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
    ok = (_tuples_equal(x + y, (2, 0, -2, 0))
          and _tuples_equal(x - y, (0, -10, 0, -6))
          and _tuples_equal(x * y, (1, -25, 1, -9))
          and _tuples_equal(x / y, (1, -1, 1, -1)))
    return ok, "add/sub/mul/div on (x-5, -x-3) and (x+5, -x+3)"


def check_one_sided_add() -> tuple[bool, str]:
    z = trapezoid(0, -1, -1, 0) + trapezoid(0, 2, 4, -2)
    return _tuples_equal(z, (0, 1, 3, -2)), f"sum tuple {z.coeffs.as_tuple()}"


def check_gaussian_add() -> tuple[bool, str]:
    z = typed(GAUSSIAN_INVERSE, 0.25, 0, -0.25, 0) \
        + typed(GAUSSIAN_INVERSE, 0.125, 1, -0.125, 1)
    ok = _tuples_equal(z, (0.375, 1, -0.375, 1)) and z.base == GAUSSIAN_INVERSE
    return ok, f"sum tuple {z.coeffs.as_tuple()}"


def check_ring_axioms() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    rounds = 10_000
    for base in (IDENTITY, SQRT, GAUSSIAN_INVERSE, LOG):
        zero = ring.zero(base)
        unit = ring.one(base)
        for _ in range(rounds):
            x, y, z = (typed(base, *(rng.uniform(-10, 10) for _ in range(4)))
                       for _ in range(3))
            if not (_tuples_equal(x + y, (y + x).coeffs.as_tuple())
                    and _tuples_equal(x * y, (y * x).coeffs.as_tuple())):
                return False, f"commutativity broke on {base}"
            if (x + zero) != x or (x * unit) != x:
                return False, f"identities broke on {base}"
            if not _tuples_equal(x + (-x), (0.0, 0.0, 0.0, 0.0)):
                return False, f"additive inverse broke on {base}"
            if not (_ofn_close((x + y) + z, x + (y + z))
                    and _ofn_close((x * y) * z, x * (y * z))
                    and _ofn_close(x * (y + z), x * y + x * z)):
                return False, f"associativity/distributivity broke on {base}"
            if (x + y).base != base or (x * y).base != base:
                return False, f"closure broke on {base}"
    return True, f"{rounds} random tuples per base, {len(available_tags())} bases"


def check_componentwise_escape() -> tuple[bool, str]:
    a = trapezoid(1, 0, -1, 2)
    b = trapezoid(-2, 1, 0, -3)
    s = a + b
    rep = propriety.classify(s)
    ks = kosinski.k_op("+", kosinski.PiecewisePolyOfn.from_typed(a),
                       kosinski.PiecewisePolyOfn.from_typed(b))
    core = level_set(s, 1.0)
    half = level_set(s, 0.5)
    ok = (_tuples_equal(s, (-1, 1, -1, -1))
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
          and r.up_rule == piasecki.CONSTANT
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
    ok = (_tuples_equal(y_fixed, (0, 2, 1, 0)) and propriety.classify(y_fixed).proper
          and _tuples_equal(s_fixed, (-1, 1, 0, -1)) and propriety.classify(s_fixed).proper
          and _tuples_equal(untwisted, (-2, 1, 2, 3))
          and not propriety.classify(untwisted).proper
          and _tuples_equal(fell_back, (0, 1, 0, 3)) and label == "fallback"
          and propriety.classify(fell_back).proper)
    if not ok:
        return False, "worked corrections disagree"
    rng = random.Random(_SEED + 1)
    per_base = 10_000
    for base in (IDENTITY, SQRT, GAUSSIAN_INVERSE, LOG):
        found = 0
        while found < per_base:
            cand = typed(base, *(rng.uniform(-10, 10) for _ in range(4)))
            if propriety.classify(cand).proper:
                continue
            found += 1
            fixed, _ = propriety.correct(cand)
            rep = propriety.classify(fixed)
            if not (rep.proper or rep.orientation == "degenerate"):
                return False, f"correction left {cand.coeffs.as_tuple()} improper"
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
