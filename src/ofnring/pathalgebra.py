"""Ranking, ordering and shortest paths with typed-OFN edge weights.

rank() is the defuzzifying functional: the mean of the two side integrals,
which for sides slope * h + offset is

    (up_slope + down_slope) / 2 * integral(h) + (up_offset + down_offset) / 2.

It is linear, so it is additive under ring addition, and that is exactly what
makes Bellman-Ford relaxation sound here: path weights are tuple sums, paths
compare by rank, then by lexicographic tuple order when ranks tie, so the
outcome does not depend on edge order.  shortest_paths runs the queue-driven
form, Bellman-Ford-Moore: only a node whose distance improved is scanned
again.  The order is translation-invariant under ring addition, so a walk
that repeats a node improves a distance only by going round a negative cycle,
and a distance whose walk has as many edges as the graph has nodes marks one.

A FuzzyDigraph keeps each edge as one flat record
(u, v, tag, up_slope, up_offset, down_slope, down_offset), a single tuple, and
compares and hashes by those records.  The search adds and ranks the four
floats directly and keeps each distance as four floats in four lists: it
builds a tuple only to break an exact rank tie, and a TypedOfn only for each
final distance.  The edges attribute, (u, v, TypedOfn) triples, is built from
the records on each read, for repr and pickling.

Both graph builders, FuzzyDigraph(...) and documents.graph_from_doc, make one
pass and raise a fault at the edge where it occurs: the node count before any
edge, then for each edge its shape, its endpoints, its weight, its node range
and its base against the first weight with a slope.
"""
from __future__ import annotations

from collections import deque
from math import inf
from operator import attrgetter
from typing import Any, Iterable

from .bases import _Value, get_base
from .errors import DomainError, NegativeCycle
from .ring import EssentialTuple, TypedOfn, _result, _result_base

# (u, v, base tag, up_slope, up_offset, down_slope, down_offset)
Record = tuple[int, int, str, float, float, float, float]


def _is_index(x: object) -> bool:
    """A node number is an int and not a bool, as in a graph document."""
    return isinstance(x, int) and not isinstance(x, bool)


def rank(x: TypedOfn) -> float:
    """Mean of the side integrals over [0, 1]; finite for all registry bases."""
    b = get_base(x.base)
    up_slope, up_offset, down_slope, down_offset = x.coeffs
    # halving before adding keeps the sums finite wherever the rank is
    return ((0.5 * up_slope + 0.5 * down_slope) * b.integral
            + (0.5 * up_offset + 0.5 * down_offset))


def ofn_min(x: TypedOfn, y: TypedOfn) -> TypedOfn:
    """The operand with the smaller rank; equal ranks fall back to tuple order."""
    _result_base(x, y)
    kx, ky = rank(x), rank(y)
    if kx != ky:
        return x if kx < ky else y
    return x if x.coeffs <= y.coeffs else y


def _weight(tag: str, coeffs: tuple[float, float, float, float]) -> TypedOfn:
    """The TypedOfn of a record's checked tag and coefficients."""
    return TypedOfn._make(tag, tuple.__new__(EssentialTuple, coeffs))


# what FuzzyDigraph equality and hash read: the records stand for the edges
_compared = attrgetter("nodes", "base", "_records")


class FuzzyDigraph(_Value):
    """A digraph whose edges carry typed-OFN weights on one common base.

    FuzzyDigraph(nodes, edges) takes (u, v, TypedOfn) triples; a node number
    is an int and not a bool.  Immutable; the repr is that of the fields
    nodes, edges and base, while equality and hash read nodes, base and the
    records, which are equal exactly when the edges are.
    """

    __slots__ = ("nodes", "base", "_records")
    _fields = ("nodes", "edges", "base")

    def __init__(self, nodes: int, edges: Iterable[tuple[int, int, TypedOfn]]) -> None:
        if not _is_index(nodes):
            raise DomainError(f"the node count {nodes!r} is not an integer")
        try:
            edges = tuple(edges)
        except TypeError:
            raise DomainError(f"edges must be (u, v, weight) triples, got {edges!r}") from None
        _Value.__init__(self, *_checked_records(nodes, edges))

    @property
    def edges(self) -> tuple[tuple[int, int, TypedOfn], ...]:
        """The (u, v, TypedOfn) triples, built from the records on each read."""
        return tuple((u, v, _weight(tag, c)) for u, v, tag, *c in self._records)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _compared(self) == _compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_compared(self))

    def __reduce__(self):
        return (FuzzyDigraph, (self.nodes, self.edges))


def _checked_records(nodes: int, edges: tuple[Any, ...]) -> tuple[int, str, tuple[Record, ...]]:
    """The fields (nodes, base, records) of a graph of (u, v, weight) triples,
    checked in one pass in the fault order above; the first sloped weight
    fixes the base."""
    if nodes < 1:
        raise DomainError("a digraph needs at least one node")
    records: list[Record] = []
    first = None  # the tag of the first weight with a slope
    for e in edges:
        try:
            u, v, w = e
        except (TypeError, ValueError):
            raise DomainError(f"edge {e!r} is not a (u, v, weight) triple") from None
        if not (_is_index(u) and _is_index(v)):
            raise DomainError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        if not isinstance(w, TypedOfn):
            raise DomainError(f"edge ({u}, {v}) has a weight that is not a TypedOfn")
        r = (u, v, w.base, *w.coeffs)
        if not (0 <= u < nodes and 0 <= v < nodes):
            _edge_fault(nodes, records, r)
        if not w.is_rectangular:
            if first is None:
                first = w.base
            elif w.base != first:
                _edge_fault(nodes, records, r)
        records.append(r)
    return nodes, "identity" if first is None else first, tuple(records)


def _edge_fault(nodes: int, kept: list[Record], r: Record) -> None:
    """Raise record r's node-range fault, else its base's clash with the first
    sloped record kept; both builders call it only once their inline test fails."""
    u, v, tag, *c = r
    if not (0 <= u < nodes and 0 <= v < nodes):
        raise DomainError(f"edge ({u}, {v}) leaves the node range")
    first = next(k for k in kept if k[3] != 0.0 or k[5] != 0.0)
    _result_base(_weight(first[2], first[3:]), _weight(tag, c))  # MixedTypeError


class ShortestPathResult(_Value):
    """Distances and predecessors from `source`, and the work that found them.

    scans counts the nodes taken off the queue, and relaxations the edges
    examined, one path sum each.
    """

    __slots__ = ("source", "distances", "predecessors", "scans", "relaxations")


def shortest_paths(g: FuzzyDigraph, source: int) -> ShortestPathResult:
    """Queue-driven Bellman-Ford (Bellman-Ford-Moore) ordering paths by rank, then tuple.

    A FIFO queue holds each node at most once; scanning a node relaxes its
    out-edges in document order, and a node whose distance improves is queued
    (Cherkassky, Goldberg & Radzik, Math. Programming 73, 1996).  This keeps
    Bellman-Ford's O(nE) bound and its negative edges.

    Distances are tuple sums along the selected paths; unreachable nodes get
    None.  Each distance records how many edges its walk has, and a walk of n
    edges on n nodes repeats a node, so a cycle that keeps improving the order
    raises NegativeCycle there.  So does a relaxation that improves the source,
    and a cycle left in the predecessor graph once the queue empties, which
    rounding can leave behind without any edge still improving (Cherkassky &
    Goldberg, Math. Programming 85, 1999).

    The sums and ranks are those of ring add and rank, taken on the four
    floats: a sum with a component beyond the float range raises
    ArithmeticOverflow whether or not it would be kept, and a distance takes
    its base as add does.
    """
    n = g.nodes
    if not (_is_index(source) and 0 <= source < n):
        raise DomainError(f"source {source} is not a node")
    gbase = g.base
    integral = get_base(gbase).integral
    out: list[list[Record]] = [[] for _ in range(n)]
    for r in g._records:
        out[r[0]].append(r)
    # dist[v] as its four components, one list each, and every store its own
    # statement, so an improvement builds no tuple; keys[v] is the rank of
    # dist[v], None while v is unreached
    dist0, dist1, dist2, dist3 = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    keys: list[float | None] = [None] * n
    bases: list[str | None] = [None] * n
    pred: list[int | None] = [None] * n
    hops = [0] * n  # edges on the walk that gave dist[v]
    queued = [False] * n
    keys[source], bases[source] = 0.0, gbase
    queue = deque([source])
    queued[source] = True
    scans = relaxations = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        d0 = dist0[u]
        d1 = dist1[u]
        d2 = dist2[u]
        d3 = dist3[u]
        # add's base: the weight's when the distance is rectangular, else the
        # graph's, which every weight with a slope shares
        ubase = gbase if d0 != 0.0 or d2 != 0.0 else None
        h, edges = hops[u] + 1, out[u]
        scans += 1
        relaxations += len(edges)
        for _, v, tag, w0, w1, w2, w3 in edges:
            c0 = d0 + w0
            c1 = d1 + w1
            c2 = d2 + w2
            c3 = d3 + w3
            kc = (0.5 * c0 + 0.5 * c2) * integral + (0.5 * c1 + 0.5 * c3)
            if not -inf < kc < inf:  # an overflowed component raises here
                _result(ubase or tag, c0, c1, c2, c3)
            kv = keys[v]
            if kv is None or kc < kv or (kc == kv and (c0, c1, c2, c3)
                                          < (dist0[v], dist1[v], dist2[v], dist3[v])):
                if v == source or h >= n:
                    raise NegativeCycle("relaxation keeps improving; negative-rank cycle")
                dist0[v] = c0
                dist1[v] = c1
                dist2[v] = c2
                dist3[v] = c3
                keys[v] = kc
                bases[v] = ubase or tag
                pred[v] = u
                hops[v] = h
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    _check_predecessor_tree(pred)
    distances = tuple(None if k is None else _result(b, d0, d1, d2, d3)
                      for k, b, d0, d1, d2, d3 in zip(keys, bases, dist0, dist1, dist2, dist3))
    return ShortestPathResult._make(source, distances, tuple(pred), scans, relaxations)


def _check_predecessor_tree(pred: list[int | None]) -> None:
    """Raise NegativeCycle if following predecessors from some node cycles.

    Each node is walked once: a walk stops at a root or at a node an earlier
    walk marked, and meeting a node marked by the same walk closes a cycle.
    """
    walk_of = [-1] * len(pred)
    for start in range(len(pred)):
        v = start
        while v is not None and walk_of[v] < 0:
            walk_of[v] = start
            v = pred[v]
        if v is not None and walk_of[v] == start:
            raise NegativeCycle(
                f"predecessors cycle through node {v}; negative-rank cycle")
