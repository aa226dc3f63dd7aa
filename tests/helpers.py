"""Shared test utilities: random OFN generators, closeness checks, slow oracles.

The proper-number generators are constructive (slope signs chosen per base
direction, dominance enforced with an explicit margin), so property suites
never rely on rejection sampling for the common case.
"""
from __future__ import annotations

import random
import re
from collections import defaultdict, deque
from dataclasses import dataclass

from typing import Any

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, DocumentError,
                     DomainError, FuzzyDigraph, NegativeCycle, ParseError,
                     ShortestPathResult, TypedOfn, add, classify, rank,
                     rectangular, ring, typed)
from ofnring.bases import _NAME, _REGISTRY, _TYPELESS_ARITY, base_named, get_base
from ofnring.documents import MAX_NODES
from ofnring.expr import MAX_DEPTH
from ofnring.pathalgebra import _check_predecessor_tree

ALL_BASES = (IDENTITY, SQRT, GAUSSIAN_INVERSE, LOG)
BOUNDED_BASES = (IDENTITY, SQRT)


def unregister(tag: str) -> None:
    """Remove a registered base, under each of its names, from the registry."""
    b = _REGISTRY["tag"].get(tag)
    if b is not None:
        for field, names in _REGISTRY.items():
            names.pop(getattr(b, field), None)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Relative closeness with an absolute floor of tol near zero."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def ofn_close(x: TypedOfn, y: TypedOfn, tol: float = 1e-9) -> bool:
    return all(close(a, b, tol)
               for a, b in zip(x.coeffs.as_tuple(), y.coeffs.as_tuple()))


def assert_tuple(x: TypedOfn, want: tuple[float, float, float, float]) -> None:
    assert x.coeffs.as_tuple() == want, f"{x.coeffs.as_tuple()} != {want}"


def random_proper(rng: random.Random, base: str,
                  orientation: str = "increasing",
                  max_gap: float = 2.0) -> TypedOfn:
    """A proper OFN with both side slopes nonzero and a strict dominance margin."""
    b = get_base(base)
    direction = 1 if b.increasing else -1
    rise = rng.uniform(0.1, 3.0) * direction
    fall = -rng.uniform(0.1, 3.0) * direction
    u_off = rng.uniform(-5.0, 5.0)
    gap = rng.uniform(0.05, max_gap)
    if b.unbounded:
        # the gap polynomial is monotone in h and tightest at h(1)
        d_off = u_off + gap
    else:
        d_off = u_off + (rise - fall) * b.value_at_one + gap
    tup = (rise, u_off, fall, d_off)
    if orientation == "decreasing":
        tup = (tup[2], tup[3], tup[0], tup[1])
    return typed(base, *tup)


def random_any(rng: random.Random, base: str, span: float = 10.0) -> TypedOfn:
    return typed(base, *(rng.uniform(-span, span) for _ in range(4)))


def random_improper(rng: random.Random, base: str) -> TypedOfn:
    while True:
        cand = random_any(rng, base)
        if not classify(cand).proper:
            return cand


def exhaustive_min_paths(g: FuzzyDigraph, source: int) -> list[TypedOfn | None]:
    """Best distance per node over every simple path: the slow oracle.

    No pruning: with possible negative-rank edges a worse prefix can still
    win, so every simple path is walked (fine at fixture size).
    """
    best: list[TypedOfn | None] = [None] * g.nodes
    start = rectangular(0.0, 0.0, base=g.base)
    best[source] = start
    adj = defaultdict(list)
    for u, v, w in g.edges:
        adj[u].append((v, w))

    def visit(node: int, dist: TypedOfn, seen: frozenset[int]) -> None:
        for v, w in adj[node]:
            if v in seen:
                continue
            nd = add(dist, w)
            cur = best[v]
            if cur is None or (rank(nd), nd.coeffs) < (rank(cur), cur.coeffs):
                best[v] = nd
            visit(v, nd, seen | {v})

    visit(source, start, frozenset({source}))
    return best


def random_digraph(rng: random.Random, base: str, nodes: int, edges: int,
                   kind: str = "nonneg") -> FuzzyDigraph:
    """A seeded digraph of proper weights with ranks in [0.5, 3].

    Pairs are drawn with replacement, so parallel edges and self-loops occur.
    The last max(1, nodes // 10) nodes get out-edges but no in-edges, so they
    are unreachable from node 0.  `negedge` shifts each weight by the crisp
    potential difference p(u) - p(v), which makes some edges negative and no
    cycle negative; `negcycle` then plants the cycle 1 -> 2 -> 3 -> 1 of rank
    -3 behind the edge 0 -> 1.
    """
    reached = nodes - max(1, nodes // 10)
    potential = [rng.uniform(-4.0, 4.0) for _ in range(nodes)]
    out = []
    for _ in range(edges):
        u, v = rng.randrange(nodes), rng.randrange(reached)
        x = random_proper(rng, base, rng.choice(("increasing", "decreasing")))
        shift = rng.uniform(0.5, 3.0) - rank(x)
        if kind != "nonneg":
            shift += potential[u] - potential[v]
        us, uo, ds, do = x.coeffs
        out.append((u, v, typed(base, us, uo + shift, ds, do + shift)))
    if kind == "negcycle":
        minus_one = rectangular(-1.0, -1.0, base=base)
        out += [(0, 1, rectangular(1.0, 1.0, base=base)), (1, 2, minus_one),
                (2, 3, minus_one), (3, 1, minus_one)]
    return FuzzyDigraph(nodes, tuple(out))


def round_robin_shortest_paths(g: FuzzyDigraph, source: int
                               ) -> tuple[tuple[TypedOfn | None, ...],
                                          tuple[int | None, ...]]:
    """(distances, predecessors) by round-robin Bellman-Ford: the test oracle.

    Every pass relaxes every edge in document order, under the same
    (rank, tuple) order and strict-improvement test as shortest_paths.  After
    n - 1 passes an improvement in one more pass is a negative cycle, as is an
    improvement of the source or a cycle of predecessors.
    """
    dist: list[TypedOfn | None] = [None] * g.nodes
    keys: list[float | None] = [None] * g.nodes
    pred: list[int | None] = [None] * g.nodes
    dist[source] = rectangular(0.0, 0.0, base=g.base)
    keys[source] = rank(dist[source])
    rounds = max(1, g.nodes - 1)
    for r in range(rounds + 1):
        changed = False
        for u, v, w in g.edges:
            if dist[u] is None:
                continue
            cand = add(dist[u], w)
            kc, kv = rank(cand), keys[v]
            if dist[v] is None or (kc < kv if kc != kv else cand.coeffs < dist[v].coeffs):
                if v == source or r == rounds:
                    raise NegativeCycle("relaxation keeps improving")
                dist[v], keys[v], pred[v] = cand, kc, u
                changed = True
        if not changed:
            break
    _check_predecessor_tree(pred)
    return tuple(dist), tuple(pred)


def reference_queue_shortest_paths(g: FuzzyDigraph, source: int) -> ShortestPathResult:
    """Queue-driven Bellman-Ford on TypedOfn weights: the test oracle.

    The search as it was before it worked on plain coefficient tuples: each
    candidate is ring add(dist[u], weight), ranked by rank(), so the ring
    decides every sum's base and overflow, and `relaxations` counts the add
    calls.  The queue order, the order on paths and the NegativeCycle tests
    are those of shortest_paths.
    """
    n = g.nodes
    if not (isinstance(source, int) and not isinstance(source, bool) and 0 <= source < n):
        raise DomainError(f"source {source} is not a node")
    out: list[list[tuple[int, TypedOfn]]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        out[u].append((v, w))
    dist: list[TypedOfn | None] = [None] * n
    keys: list[float | None] = [None] * n
    pred: list[int | None] = [None] * n
    hops = [0] * n
    queued = [False] * n
    dist[source] = rectangular(0.0, 0.0, base=g.base)
    keys[source] = rank(dist[source])
    queue = deque([source])
    queued[source] = True
    scans = relaxations = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        scans += 1
        for v, w in out[u]:
            cand = add(dist[u], w)
            relaxations += 1
            kc, kv = rank(cand), keys[v]
            if dist[v] is None or (kc < kv if kc != kv else cand.coeffs < dist[v].coeffs):
                if v == source or hops[u] + 1 >= n:
                    raise NegativeCycle("relaxation keeps improving; negative-rank cycle")
                dist[v], keys[v], pred[v], hops[v] = cand, kc, u, hops[u] + 1
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    _check_predecessor_tree(pred)
    return ShortestPathResult(source, tuple(dist), tuple(pred), scans, relaxations)


def reference_ofn_from_doc(doc: Any) -> TypedOfn:
    """An OFN document checked for its shape, then built by typed(): the test oracle.

    Every weight looks its tag up in the registry and has its numbers checked
    by typed(), so nothing is carried from one document to the next.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"expected an object, got {type(doc).__name__}")
    extra = set(doc) - {"base", "tuple"}
    if extra:
        raise DocumentError(f"unexpected keys {sorted(extra, key=str)}")
    tag = doc.get("base")
    if (b := base_named("doc_tag", tag)) is None:
        raise DocumentError(f"unknown base tag {tag!r}")
    tup = doc.get("tuple")
    try:
        if isinstance(tup, list) and len(tup) == 4:
            return typed(b.tag, *tup)
    except DomainError:
        pass
    raise DocumentError("tuple must be a list of 4 finite numbers")


def reference_graph_from_doc(doc: Any) -> FuzzyDigraph:
    """A graph document loaded edge by edge through reference_ofn_from_doc."""
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), int) \
            or isinstance(doc.get("nodes"), bool):
        raise DocumentError('graph document needs an integer "nodes" field')
    if doc["nodes"] > MAX_NODES:
        raise DocumentError(f'"nodes" exceeds the cap of {MAX_NODES}')
    edges_doc = doc.get("edges")
    if not isinstance(edges_doc, list):
        raise DocumentError('graph document needs an "edges" list')
    edges = []
    for e in edges_doc:
        if not isinstance(e, dict) or not {"from", "to", "weight"} <= set(e):
            raise DocumentError('each edge needs "from", "to" and "weight"')
        u, v = e["from"], e["to"]
        if isinstance(u, bool) or isinstance(v, bool) \
                or not isinstance(u, int) or not isinstance(v, int):
            raise DocumentError("edge endpoints must be integers")
        edges.append((u, v, reference_ofn_from_doc(e["weight"])))
    return FuzzyDigraph(doc["nodes"], tuple(edges))


# ---------------------------------------------------------------------------
# the token-by-token expression parser: the test oracle for ofnring.expr
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{_NAME.pattern})"
    r"|(?P<op>[-+*/(),]))")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _reference_tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
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


class _ReferenceParser:
    """Recursive descent over one token per name, number and operator."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _reference_tokenize(text)
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


def reference_parse_expression(text: str) -> TypedOfn:
    """Parse and evaluate an expression one token at a time: the test oracle.

    The parser as it was before a literal became one token: every name,
    number and operator is its own token, and each literal's arguments are
    read through expect() and number().
    """
    return _ReferenceParser(text).parse()
