"""Base registry: values, inverses, integrals, validation."""
import math

import pytest
from scipy.integrate import quad

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, BaseFunction,
                     DocumentError, DomainError, RangeError, UnknownBaseError,
                     available_tags, get_base, parse_expression, register_base,
                     typed)
from ofnring.bases import _REGISTRY
from ofnring.documents import ofn_from_doc, ofn_to_doc, render_sides

from helpers import ALL_BASES, unregister


def test_registry_tags():
    assert available_tags() == (IDENTITY, SQRT, GAUSSIAN_INVERSE, LOG)


def test_unknown_tag():
    with pytest.raises(UnknownBaseError):
        get_base("triangular")


def test_identity_values():
    b = get_base(IDENTITY)
    assert b.value(0.0) == 0.0
    assert b.value(0.25) == 0.25
    assert b.value(1.0) == 1.0
    assert b.increasing and not b.unbounded
    assert b.integral == 0.5


def test_sqrt_values():
    b = get_base(SQRT)
    assert b.value(0.25) == 0.5
    assert b.value(1.0) == 1.0
    assert b.integral == 2.0 / 3.0


def test_gaussian_inverse_values():
    b = get_base(GAUSSIAN_INVERSE)
    # sqrt(-2 ln 0.5), cross-checked by high-precision evaluation
    assert b.value(0.5) == pytest.approx(1.1774100225154747, abs=1e-15)
    assert b.value(1.0) == 0.0
    assert b.value(0.0) == math.inf
    assert not b.increasing and b.unbounded
    assert b.integral == pytest.approx(math.sqrt(math.pi / 2.0), abs=5e-16)
    assert b.integral == pytest.approx(1.2533141373155003, abs=5e-16)


def test_log_values():
    b = get_base(LOG)
    assert b.value(1.0) == 0.0
    assert b.value(0.0) == -math.inf
    assert b.value(math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-15)
    assert b.increasing and b.unbounded
    assert b.integral == -1.0


@pytest.mark.parametrize("tag", ALL_BASES)
def test_integral_against_quadrature(tag):
    b = get_base(tag)
    est, err = quad(b.func, 0.0, 1.0, limit=200)
    assert err < 1e-8
    assert abs(est - b.integral) <= 1e-9


@pytest.mark.parametrize("tag", ALL_BASES)
def test_alpha_domain(tag):
    b = get_base(tag)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            b.value(bad)


@pytest.mark.parametrize("tag", ALL_BASES)
def test_strict_monotonicity(tag):
    b = get_base(tag)
    values = [b.value(k / 500) for k in range(1, 501)]
    deltas = [y - x for x, y in zip(values, values[1:])]
    if b.increasing:
        assert all(d > 0 for d in deltas)
    else:
        assert all(d < 0 for d in deltas)


@pytest.mark.parametrize("tag", ALL_BASES)
def test_inverse_round_trip(tag):
    b = get_base(tag)
    for k in range(1, 51):
        alpha = k / 50
        assert abs(b.inverse(b.value(alpha)) - alpha) <= 1e-9


def test_inverse_endpoints():
    g = get_base(GAUSSIAN_INVERSE)
    assert g.inverse(math.inf) == 0.0
    assert g.inverse(0.0) == 1.0
    lg = get_base(LOG)
    assert lg.inverse(-math.inf) == 0.0
    assert lg.inverse(0.0) == 1.0
    ident = get_base(IDENTITY)
    assert ident.inverse(0.0) == 0.0
    assert ident.inverse(1.0) == 1.0


def test_inverse_range_errors():
    ident = get_base(IDENTITY)
    with pytest.raises(RangeError):
        ident.inverse(1.5)
    with pytest.raises(RangeError):
        ident.inverse(-0.5)
    with pytest.raises(RangeError):
        ident.inverse(math.nan)
    lg = get_base(LOG)
    with pytest.raises(RangeError):
        lg.inverse(0.5)


def test_inverse_boundary_slack_clamps():
    # values a hair outside the range from float noise clamp instead of raising
    ident = get_base(IDENTITY)
    assert ident.inverse(1.0 + 1e-12) == 1.0
    assert ident.inverse(-1e-12) == 0.0


def test_register_duplicate_tag():
    with pytest.raises(DomainError):
        register_base(BaseFunction(
            tag=IDENTITY, func=lambda a: a, inverse_func=lambda t: t,
            increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.5))


def test_register_rejects_non_monotone():
    refused = [
        ("bump", lambda a: a * (1.0 - a), True, 0.0, "not strictly increasing"),
        ("rising", lambda a: a, False, 1.0, "not strictly decreasing"),
        ("pole", lambda a: a if a < 0.5 else math.inf, True, math.inf, "is not finite"),
    ]
    for tag, func, increasing, value_at_one, found in refused:
        with pytest.raises(DomainError, match=found):
            register_base(BaseFunction(
                tag=tag, func=func, inverse_func=lambda t: t, increasing=increasing,
                limit_at_zero=0.0, value_at_one=value_at_one, integral=0.5))
        assert tag not in available_tags()


def test_register_rejects_wrong_endpoint():
    # a NaN value at 1 would make membership() fail on a number classify calls proper
    for value_at_one in (2.0, math.nan):
        with pytest.raises(DomainError, match="value_at_one does not match"):
            register_base(BaseFunction(
                tag="offby", func=lambda a: a, inverse_func=lambda t: t,
                increasing=True, limit_at_zero=0.0, value_at_one=value_at_one,
                integral=0.5))
        assert "offby" not in available_tags()


def test_register_rejects_bad_inverse():
    # an inverse that gives NaN would put a membership of 0 inside the support
    for inverse_func in (lambda t: t + 0.1, lambda t: math.nan):
        with pytest.raises(DomainError, match="inverse round trip fails"):
            register_base(BaseFunction(
                tag="badinv", func=lambda a: a, inverse_func=inverse_func,
                increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.5))
        assert "badinv" not in available_tags()


def test_register_rejects_wrong_limit_direction():
    # h is its own inverse; h(0.001) is 0.001 when h rises and -0.001 when it falls
    for func, increasing, limit_at_zero, value_at_one in ((lambda a: a, True, 0.5, 1.0),
                                                          (lambda a: -a, False, -0.5, -1.0)):
        with pytest.raises(DomainError, match="limit_at_zero inconsistent"):
            register_base(BaseFunction(
                tag="badlim", func=func, inverse_func=func,
                increasing=increasing, limit_at_zero=limit_at_zero,
                value_at_one=value_at_one, integral=0.5))
        assert "badlim" not in available_tags()


@pytest.mark.parametrize("integral", [math.inf, math.nan])
def test_register_rejects_non_finite_integral(integral):
    # rank() weighs the slopes by the integral and does not check it
    with pytest.raises(DomainError, match="integral is not finite"):
        register_base(BaseFunction(
            tag="badint", func=lambda a: a, inverse_func=lambda t: t,
            increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=integral))
    assert "badint" not in available_tags()


def test_register_accepts_valid_power_base():
    b = register_base(BaseFunction(
        tag="cube-root-test", func=lambda a: a ** (1 / 3),
        inverse_func=lambda t: t ** 3, increasing=True,
        limit_at_zero=0.0, value_at_one=1.0, integral=0.75))
    try:
        assert get_base("cube-root-test") is b
        assert b.inverse(b.value(0.3)) == pytest.approx(0.3, abs=1e-12)
    finally:
        unregister("cube-root-test")


def _cube(tag: str, **names) -> BaseFunction:
    return BaseFunction(
        tag=tag, func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25,
        **names)


def test_registered_base_is_written_read_and_rendered():
    register_base(_cube("cube-test"))
    register_base(_cube("cube-named-test", doc_tag="cubic", symbol="x^3",
                        literal="cube"))
    try:
        x = typed("cube-test", 1, 0, -1, 2)
        doc = ofn_to_doc(x)
        assert doc == {"base": "cube-test", "tuple": [1.0, 0.0, -1.0, 2.0]}
        assert ofn_from_doc(doc) == x
        assert render_sides(x) == "(cube-test(x), -cube-test(x)+2)"

        y = parse_expression("cube(2,0,-1,2)")
        assert y == typed("cube-named-test", 2, 0, -1, 2)
        assert ofn_to_doc(y)["base"] == "cubic"
        assert ofn_from_doc(ofn_to_doc(y)) == y
        assert render_sides(y) == "(2*x^3, -x^3+2)"
    finally:
        unregister("cube-test")
        unregister("cube-named-test")


def _registry_copy() -> dict:
    return {field: dict(names) for field, names in _REGISTRY.items()}


@pytest.mark.parametrize("tag,names", [
    ("taken-doc-tag-test", {"doc_tag": "gaussian"}),
    ("taken-literal-test", {"literal": "trap"}),
    ("exponential", {}),  # the doc tag defaults to the tag: the log base's
])
def test_register_rejects_taken_document_tag_or_literal(tag, names):
    before = _registry_copy()
    with pytest.raises(DomainError, match="is already taken$"):
        register_base(_cube(tag, **names))
    assert _registry_copy() == before


@pytest.mark.parametrize("literal", ["crisp", "rect", "my-lit", "2cube", "", "cube lit", 5])
def test_register_rejects_a_literal_the_parser_cannot_use(literal):
    before = _registry_copy()
    try:
        with pytest.raises(DomainError, match=f"^literal {literal!r} "):
            register_base(_cube("cube-lit-test", literal=literal))
        assert _registry_copy() == before
    finally:
        unregister("cube-lit-test")
    assert parse_expression("crisp(1) + rect(1, 2)") == typed(IDENTITY, 0, 2, 0, 3)


@pytest.mark.parametrize("tag,doc_tag", [
    ("cube-list-test", ["cx"]), ("cube-num-test", 7), (("cube",), None), (5, None),
])
def test_register_rejects_a_tag_that_is_not_a_string(tag, doc_tag):
    # the registry maps are keyed by name, and a document names its base by a str
    before = _registry_copy()
    with pytest.raises(DomainError, match="is not a string$"):
        register_base(_cube(tag, doc_tag=doc_tag))
    assert _registry_copy() == before
    with pytest.raises(DocumentError, match="^unknown base tag "):
        ofn_from_doc({"base": doc_tag or tag, "tuple": [1, 0, -1, 2]})
