"""Infix expression parser for the command line.

Grammar (left associative, * / bind tighter than + -):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := literal | '(' expr ')'
    literal := NAME(a,b,c,d) | rect(b1,b2) | crisp(v)

NAME is the `literal` field of a registered base (trap, sqrtb, gauss and expo
for the shipped four).  Literal arguments are signed decimals.  There is no
unary minus at the expression level; negate by subtracting from crisp(0) or
negating arguments.  Parentheses nest at most MAX_DEPTH deep.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import ring
from .bases import _NAME, _TYPELESS_ARITY, base_named
from .errors import ParseError
from .ring import TypedOfn

_TOKEN = re.compile(r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    rf"|(?P<name>{_NAME.pattern})"
                    r"|(?P<op>[-+*/(),]))")

MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}",
                             len(text) - len(rest))
        kind = m.lastgroup or "op"
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return tok

    def parse(self) -> TypedOfn:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.position)
        return value

    def expr(self) -> TypedOfn:
        value = self.term()
        while (tok := self.peek()) is not None and tok.text in ("+", "-"):
            self.take()
            rhs = self.term()
            value = ring.add(value, rhs) if tok.text == "+" else ring.sub(value, rhs)
        return value

    def term(self) -> TypedOfn:
        value = self.factor()
        while (tok := self.peek()) is not None and tok.text in ("*", "/"):
            self.take()
            rhs = self.factor()
            value = ring.mul(value, rhs) if tok.text == "*" else ring.div(value, rhs)
        return value

    def factor(self) -> TypedOfn:
        tok = self.take()
        if tok.text == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_DEPTH}", tok.position)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok.kind == "name":
            return self.literal(tok)
        raise ParseError(f"expected a literal or '(', found {tok.text!r}",
                         tok.position)

    def literal(self, name: _Token) -> TypedOfn:
        base = base_named("literal", name.text)
        arity = 4 if base is not None else _TYPELESS_ARITY.get(name.text)
        if arity is None:
            raise ParseError(f"unknown literal {name.text!r}", name.position)
        self.expect("(")
        args = [self.number()]
        while len(args) < arity:
            self.expect(",")
            args.append(self.number())
        self.expect(")")
        if base is not None:
            return ring.typed(base.tag, *args)
        if name.text == "crisp":
            return ring.crisp(args[0])
        return ring.rectangular(args[0], args[1])

    def number(self) -> float:
        tok = self.take()
        sign = 1.0
        if tok.text in ("+", "-"):
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.take()
        if tok.kind != "number":
            raise ParseError(f"expected a number, found {tok.text!r}", tok.position)
        return sign * float(tok.text)


def parse_expression(text: str) -> TypedOfn:
    """Parse and evaluate an expression; ring errors propagate unchanged."""
    return _Parser(text).parse()
