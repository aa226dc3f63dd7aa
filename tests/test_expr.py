"""The expression parser: pinned errors, and the parser against the reference.

The reference in helpers reads every name, number and operator as its own
token; `parse_expression` reads a well-formed literal in one regex match.  On
every text the two must give the same base and bit-identical tuple, or raise
the same exception class with the same message and position.
"""
import random
import time
from collections import Counter

import pytest

from ofnring import (BaseFunction, DivisionByZero, ParseError, parse_expression,
                     register_base, typed)
from ofnring.expr import MAX_DEPTH, _tokenize

from helpers import reference_parse_expression, unregister


def nested(depth: int) -> str:
    return "(" * depth + "crisp(1)" + ")" * depth


# ---------------------------------------------------------------------------
# every ParseError message and position, pinned
# ---------------------------------------------------------------------------

ERRORS = [
    ("trap(1,2,3)", "expected ',', found ')'", 10),
    ("crisp(1) $", "unexpected character '$'", 9),
    ("crisp(1) $ crisp(", "unexpected character '$'", 9),
    ("nope(1)", "unknown literal 'nope'", 0),
    ("nope(1,2,3,4,5)", "unknown literal 'nope'", 0),
    ("", "unexpected end of expression", 0),
    ("  \t", "unexpected end of expression", 3),
    ("crisp(1) +", "unexpected end of expression", 10),
    ("(crisp(1)", "unexpected end of expression", 9),
    ("trap(1,2,3,4) trap(1,2,3,4)", "trailing input 'trap'", 14),
    ("crisp(1) )", "trailing input ')'", 9),
    ("crisp(1,2)", "expected ')', found ','", 7),
    ("trap(1,2,3,4,5)", "expected ')', found ','", 12),
    ("rect(1)", "expected ',', found ')'", 6),
    ("rect( - 1 )", "expected ',', found ')'", 10),
    ("trap(trap(1,2,3,4),1,1,1)", "expected a number, found 'trap'", 5),
    ("crisp(1e)", "expected ')', found 'e'", 7),
    ("crisp(--1)", "expected a number, found '-'", 7),
    ("crisp()", "expected a number, found ')'", 6),
    ("crisp 1", "expected '(', found '1'", 6),
    ("(crisp(1) crisp(2))", "expected ')', found 'crisp'", 10),
    ("+ crisp(1)", "expected a literal or '(', found '+'", 0),
    ("crisp(1) * 2", "expected a literal or '(', found '2'", 11),
    (nested(MAX_DEPTH + 1), f"parentheses nest deeper than {MAX_DEPTH}", MAX_DEPTH),
]


@pytest.mark.parametrize("text,message,position", ERRORS)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_whole_text_is_scanned_before_evaluation_and_ring_errors_keep_their_order():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("crisp(1)/crisp(0) $")
    # the division is evaluated before the parser reaches the missing operand
    with pytest.raises(DivisionByZero):
        parse_expression("crisp(1)/crisp(0) +")


def test_unicode_digits_are_refused_and_unicode_spaces_read_as_before():
    # literal arguments are ASCII decimals, as in JSON documents
    for text, position in (("crisp(٣)", 6), ("trap(١,2,3,4)", 5), ("crisp(1٣)", 7)):
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert str(info.value) == f"unexpected character {text[position]!r} (at position {position})"
    assert parse_expression("\xa0trap(\xa01 ,- 2,3\xa0, +4)\xa0") == typed("identity", 1, -2, 3, 4)


@pytest.mark.parametrize("text,kinds", [
    ("\xa0trap(\xa01 ,- 2,3\xa0, +4)\xa0", ["literal"]),
    ("crisp ( 3 ) * rect(\t1,\n2)", ["literal", "op", "literal"]),
    ("nope(1,2,3,4) + crisp(1,2)", ["literal", "op", "literal"]),
    ("trap(1,2,3,4,5)", ["name", "op"] + ["number", "op"] * 5),
    ("crisp(1e)", ["name", "op", "number", "name", "op"]),
])
def test_a_literal_with_one_to_four_arguments_is_one_token(text, kinds):
    assert [tok[0] for tok in _tokenize(text, 0, len(text))] == kinds


def spaced(count: int, width: int, sign: str = "") -> str:
    """trap( with `count` arguments, each after `width` spaces (and a sign)."""
    pad = " " * width
    return "trap(" + ",".join(pad + sign + pad + "1" for _ in range(count)) + ")"


@pytest.mark.parametrize("text", [
    "crisp(" + " " * 10 ** 5 + "1 x",
    "crisp(" + " " * 10 ** 5 + "- " + " " * 10 ** 5 + "1 x",
    "rect(1," + " " * 10 ** 5 + ")",
    spaced(5, 100),
    spaced(5, 100, "-"),
    spaced(4, 25000),
    spaced(4, 100, "+") + " x",
], ids=["crisp-1e5", "crisp-sign-1e5", "rect-1e5", "trap-5x100", "trap-sign-5x100",
        "trap-4x25000", "trap-trailing"])
def test_long_runs_of_spaces_parse_in_linear_time(text):
    # a literal that fails to match must fail at once, not after trying every
    # split of its spaces between two patterns: with such a split these texts
    # take minutes instead of milliseconds
    start = time.perf_counter()
    got = outcome(parse_expression, text)
    elapsed = time.perf_counter() - start
    assert got == outcome(reference_parse_expression, text)
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# the parser against the reference parser
# ---------------------------------------------------------------------------

CUBE = "cube-expr-test"


@pytest.fixture
def cube_literal():
    register_base(BaseFunction(
        tag=CUBE, func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25,
        literal="cubelit"))
    try:
        yield "cubelit"
    finally:
        unregister(CUBE)


def outcome(parse, text):
    """(base, float.hex of each component), or (class, message, position)."""
    try:
        x = parse(text)
    except Exception as e:  # every exception class is compared, not only OfnError
        return type(e).__name__, str(e), getattr(e, "position", None)
    return x.base, tuple(float.hex(c) for c in x.coeffs)


NUMBERS = ["1", "-1", "2.5", ".5", "-0.25", "+3", "- 4", "1e3", "1E-2", "1.", "12.5e+1"]
# a zero divisor, an overflowing product and a number beyond the float range
EDGE_NUMBERS = ["0", "-0", "1e200", "1e400"]
SPACES = ["", " ", "  ", "\t", "\xa0", "\n", " " * 40]
SOUP = ["trap", "gauss", "sqrtb", "expo", "crisp", "rect", "nope", "(", ")", ",",
        "+", "-", "*", "/", "1", "0", "2.5", "1e999", ".", "e", " ", "x", "_", "$",
        "٣", "١.٥", "\xa0"]


def random_literal(rng, names):
    name = rng.choice(names)
    arity = {"crisp": 1, "rect": 2}.get(name, 4)
    if rng.random() < 0.05:
        arity = rng.randrange(0, 6)
    sp = lambda: rng.choice(SPACES) if rng.random() < 0.3 else ""
    number = lambda: rng.choice(EDGE_NUMBERS if rng.random() < 0.03 else NUMBERS)
    args = [sp() + number() + sp() for _ in range(arity)]
    return f"{name}{sp()}({','.join(args)})"


def random_expression(rng, names, leaves):
    text = random_literal(rng, names)
    for _ in range(leaves - 1):
        rhs = random_literal(rng, names)
        if rng.random() < 0.3:
            rhs = f"({rhs} {rng.choice('+-*/')} {random_literal(rng, names)})"
        text = f"{text} {rng.choice('+-*/')} {rhs}"
    return f"({text})" if rng.random() < 0.2 else text


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.4:
        return text[:i] + text[i + 1:]
    if roll < 0.8:
        return text[:i] + rng.choice(SOUP) + text[i:]
    return text[:i] + rng.choice(SOUP) + text[i + 1:]


def texts(cube):
    rng = random.Random(20261018)
    typed_names = ["trap", "sqrtb", "gauss", "expo", cube]
    out = []
    for i in range(1000):
        name = typed_names[i % len(typed_names)]
        out.append(random_expression(rng, [name, name, "crisp", "rect"], 1 + i % 4))
    for i in range(1000):
        text = out[i]
        for _ in range(1 + i % 3):
            text = mutate(rng, text)
        out.append(text)
    for _ in range(1000):
        out.append("".join(rng.choice(SOUP) for _ in range(rng.randrange(1, 16))))
    out += [nested(MAX_DEPTH), nested(MAX_DEPTH + 1), "(" * (MAX_DEPTH + 1),
            "crisp(٣) + rect(١, ٢)", "\xa0crisp(1)\xa0", ""]
    return out


def test_parser_matches_the_reference_parser(cube_literal):
    cases = texts(cube_literal)
    assert len(cases) >= 2000
    results = Counter()
    for text in cases:
        want = outcome(reference_parse_expression, text)
        assert outcome(parse_expression, text) == want, text
        results[want[0]] += 1
    # every base's literal is read many times, and so is every error class
    for name in ("identity", "sqrt", "gaussian-inverse", "log", CUBE,
                 "ParseError", "DomainError", "DivisionByZero"):
        assert results[name] >= 50, results


def test_a_base_registered_after_a_parse_reads_through_its_literal():
    assert parse_expression("trap(1,2,3,4)") == typed("identity", 1, 2, 3, 4)
    with pytest.raises(ParseError, match="^unknown literal 'latelit' "):
        parse_expression("latelit(1,2,3,4)")
    register_base(BaseFunction(
        tag="late-test", func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25,
        literal="latelit"))
    try:
        assert parse_expression("latelit(1,2,3,4)") == typed("late-test", 1, 2, 3, 4)
        with pytest.raises(ParseError, match=r"^expected ',', found '\)' \(at position 13\)$"):
            parse_expression("latelit(1,2,3)")
    finally:
        unregister("late-test")
    with pytest.raises(ParseError, match="^unknown literal 'latelit' "):
        parse_expression("latelit(1,2,3,4)")
