"""Infix expression parser for the command line.

Grammar (left associative, * / bind tighter than + -):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := literal | '(' expr ')'
    literal := NAME(a,b,c,d) | rect(b1,b2) | crisp(v)

NAME is the `literal` field of a registered base (trap, sqrtb, gauss and expo
for the shipped four).  Literal arguments are signed decimals in ASCII digits,
as in JSON documents.  There is no unary minus at the expression level; negate
by subtracting from crisp(0) or negating arguments.  Parentheses nest at most
MAX_DEPTH deep.

Tokens are plain (kind, text, position) tuples.  A literal with one to four
signed arguments, such as `trap(1, -2, 3, 4)`, is one token: the first
alternative of `_TOKEN` matches all of it, and its groups give the sign and
digits of each argument.  The token carries the arguments and the end of its
span as two more fields, so a well-formed literal costs one regex match.  When
the name wants another number of arguments, the span is scanned again into
ordinary tokens and read one token at a time, which raises the ParseError; so
every error comes from the one grammar below, with the same message and
position whether or not the literal was one token.  The whole text is
tokenized before anything is evaluated, and each literal looks its name up in
the registry when it is evaluated, so a base registered later still parses.
"""
from __future__ import annotations

import re

from . import ring
from .bases import _NAME, _TYPELESS_ARITY, base_named
from .errors import ParseError
from .ring import TypedOfn

# a comma, ')' or space never sits inside a number, so the whole-literal
# alternative cannot split a number by backtracking; and spaces split only
# around a sign that is there, so no run of spaces can be split in two ways
# and a literal that fails to match fails in time linear in its length
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
_ARGUMENT = rf"\s*(?:([+-])\s*)?({_NUMBER})"
# groups: 2 the name, then (sign, digits) pairs at 3-4, 5-6, 7-8 and 9-10
_LITERAL = (rf"(?P<literal>({_NAME.pattern})\s*\({_ARGUMENT}"
            rf"(?:\s*,{_ARGUMENT}(?:\s*,{_ARGUMENT}(?:\s*,{_ARGUMENT})?)?)?\s*\))")
_TOKEN = re.compile(rf"\s*(?:{_LITERAL}|(?P<number>{_NUMBER})"
                    rf"|(?P<name>{_NAME.pattern})|(?P<op>[-+*/(),]))")

MAX_DEPTH = 100


def _tokenize(text: str, pos: int, end: int) -> list[tuple]:
    tokens = []
    while pos < end:
        m = _TOKEN.match(text, pos, end)
        if m is None:
            rest = text[pos:end].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", end - len(rest))
        kind = m.lastgroup
        if kind == "literal":
            # float(sign + digits) is exactly what number() gives, sign * float(digits);
            # an absent sign or argument reads as ""
            s1, d1, s2, d2, s3, d3, s4, d4 = m.groups("")[2:10]
            args = [float(s + d) for s, d in ((s1, d1), (s2, d2), (s3, d3), (s4, d4)) if d]
            tokens.append((kind, m[2], m.start(2), args, m.end()))
        else:
            tokens.append((kind, m[kind], m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text, 0, len(text))
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> tuple:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.take()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> TypedOfn:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> TypedOfn:
        value = self.term()
        tokens = self.tokens
        while self.index < len(tokens) and (op := tokens[self.index][1]) in ("+", "-"):
            self.index += 1
            rhs = self.term()
            value = ring.add(value, rhs) if op == "+" else ring.sub(value, rhs)
        return value

    def term(self) -> TypedOfn:
        value = self.factor()
        tokens = self.tokens
        while self.index < len(tokens) and (op := tokens[self.index][1]) in ("*", "/"):
            self.index += 1
            rhs = self.factor()
            value = ring.mul(value, rhs) if op == "*" else ring.div(value, rhs)
        return value

    def factor(self) -> TypedOfn:
        tok = self.take()
        if tok[0] in ("literal", "name"):
            return self.literal(tok)
        if tok[1] == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_DEPTH}", tok[2])
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"expected a literal or '(', found {tok[1]!r}", tok[2])

    def literal(self, tok: tuple) -> TypedOfn:
        """The number a literal names: registry lookup, arity check, dispatch.

        A whole-literal token brings its arguments; a name token, or a literal
        token with the wrong count (its span scanned again), has them read
        here one token at a time.
        """
        kind, name, position = tok[:3]
        base = base_named("literal", name)
        arity = 4 if base is not None else _TYPELESS_ARITY.get(name)
        if arity is None:
            raise ParseError(f"unknown literal {name!r}", position)
        if kind == "literal" and len(tok[3]) == arity:
            args = tok[3]
        else:
            if kind == "literal":
                # the span after the name holds no name, so it scans as
                # ordinary tokens
                self.tokens[self.index:self.index] = _tokenize(
                    self.text, position + len(name), tok[4])
            self.expect("(")
            args = [self.number()]
            while len(args) < arity:
                self.expect(",")
                args.append(self.number())
            self.expect(")")
        if base is not None:
            return ring.typed(base.tag, *args)
        if name == "crisp":
            return ring.crisp(args[0])
        return ring.rectangular(args[0], args[1])

    def number(self) -> float:
        tok = self.take()
        sign = 1.0
        if tok[1] in ("+", "-"):
            sign = -1.0 if tok[1] == "-" else 1.0
            tok = self.take()
        if tok[0] != "number":
            raise ParseError(f"expected a number, found {tok[1]!r}", tok[2])
        return sign * float(tok[1])


def parse_expression(text: str) -> TypedOfn:
    """Parse and evaluate an expression; ring errors propagate unchanged."""
    return _Parser(text).parse()
