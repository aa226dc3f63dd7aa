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

A FuzzyDigraph keeps each weight as a plain record
(u, v, tag, (up_slope, up_offset, down_slope, down_offset)), and the search
adds and ranks those four floats directly: it builds a TypedOfn only for each
final distance.  The edges attribute, (u, v, TypedOfn) triples, is built from
the records on first read.
"""
from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Iterable, Iterator

from .bases import _Value, get_base
from .errors import DomainError, NegativeCycle
from .ring import EssentialTuple, TypedOfn, _result, _result_base

# (u, v, base tag, (up_slope, up_offset, down_slope, down_offset))
Record = tuple[int, int, str, tuple[float, float, float, float]]


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


class FuzzyDigraph(_Value):
    """A digraph whose edges carry typed-OFN weights on one common base.

    FuzzyDigraph(nodes, edges) takes (u, v, TypedOfn) triples; a node number
    is an int and not a bool.  Immutable; repr, equality and hash are those
    of the fields nodes, edges and base.
    """

    __slots__ = ("nodes", "base", "_records", "_edges")
    _fields = ("nodes", "edges", "base")

    def __init__(self, nodes: int, edges: Iterable[tuple[int, int, TypedOfn]]) -> None:
        if not _is_index(nodes):
            raise DomainError(f"the node count {nodes!r} is not an integer")
        try:
            edges = tuple(edges)
        except TypeError:
            raise DomainError(f"edges must be (u, v, weight) triples, got {edges!r}") from None
        _digraph(nodes, _checked_records(nodes, edges), edges, self)

    @property
    def edges(self) -> tuple[tuple[int, int, TypedOfn], ...]:
        """The (u, v, TypedOfn) triples, built from the records on first read."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(
                (u, v, _weight(tag, c)) for u, v, tag, c in self._records))
        return self._edges

    def __reduce__(self):
        return (FuzzyDigraph, (self.nodes, self.edges))


def _checked_records(nodes: int, edges: tuple[Any, ...]) -> Iterator[Record]:
    """The record of each (u, v, weight) triple, checked as it is reached.

    The endpoints, then their range, then the weight: an edge's faults are
    reported in that order, and an earlier edge's before a later one's.
    """
    for e in edges:
        try:
            u, v, w = e
        except (TypeError, ValueError):
            raise DomainError(f"edge {e!r} is not a (u, v, weight) triple") from None
        # _is_index(u) and _is_index(v), inlined: this runs once per edge
        if not (isinstance(u, int) and isinstance(v, int)
                and u.__class__ is not bool and v.__class__ is not bool):
            raise DomainError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        if not (0 <= u < nodes and 0 <= v < nodes):
            raise DomainError(f"edge ({u}, {v}) leaves the node range")
        if not isinstance(w, TypedOfn):
            raise DomainError(f"edge ({u}, {v}) has a weight that is not a TypedOfn")
        yield u, v, w.base, tuple(w.coeffs)


def _digraph(nodes: int, records: Iterable[Record],
             edges: tuple[tuple[int, int, TypedOfn], ...] | None = None,
             g: FuzzyDigraph | None = None) -> FuzzyDigraph:
    """The graph of records whose endpoints are ints and whose weights are checked.

    Checks the node count, then each record's node range and base in order;
    the first weight with a slope fixes the base.  `edges`, when given, are
    the triples the records came from.  The slots are written into `g` when
    it is given, and into a new graph otherwise.
    """
    if nodes < 1:
        raise DomainError("a digraph needs at least one node")
    kept = []
    first = None
    for r in records:
        u, v, tag, (up_slope, _, down_slope, _) = r
        if not (0 <= u < nodes and 0 <= v < nodes):
            raise DomainError(f"edge ({u}, {v}) leaves the node range")
        if up_slope != 0.0 or down_slope != 0.0:
            if first is None:
                first = r
            elif tag != first[2]:
                _result_base(_weight(*first[2:]), _weight(tag, r[3]))  # MixedTypeError
        kept.append(r)
    fields = (nodes, first[2] if first else "identity", tuple(kept), edges)
    if g is None:
        return FuzzyDigraph._make(*fields)
    _Value.__init__(g, *fields)
    return g


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
    dist: list[tuple[float, float, float, float] | None] = [None] * n
    keys: list[float | None] = [None] * n  # the rank of dist[v], kept beside it
    bases: list[str | None] = [None] * n
    pred: list[int | None] = [None] * n
    hops = [0] * n  # edges on the walk that gave dist[v]
    queued = [False] * n
    dist[source], keys[source], bases[source] = (0.0, 0.0, 0.0, 0.0), 0.0, gbase
    queue = deque([source])
    queued[source] = True
    scans = relaxations = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        d0, d1, d2, d3 = dist[u]
        # add's base: the weight's when the distance is rectangular, else the
        # graph's, which every weight with a slope shares
        ubase = gbase if d0 != 0.0 or d2 != 0.0 else None
        h, edges = hops[u] + 1, out[u]
        scans += 1
        relaxations += len(edges)
        for _, v, tag, (w0, w1, w2, w3) in edges:
            c0, c1, c2, c3 = d0 + w0, d1 + w1, d2 + w2, d3 + w3
            kc = (0.5 * c0 + 0.5 * c2) * integral + (0.5 * c1 + 0.5 * c3)
            if not -inf < kc < inf:  # an overflowed component raises here
                _result(ubase or tag, c0, c1, c2, c3)
            kv = keys[v]
            if kv is None or kc < kv or (kc == kv and (c0, c1, c2, c3) < dist[v]):
                if v == source or h >= n:
                    raise NegativeCycle("relaxation keeps improving; negative-rank cycle")
                dist[v], keys[v], bases[v], pred[v], hops[v] = \
                    (c0, c1, c2, c3), kc, ubase or tag, u, h
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    _check_predecessor_tree(pred)
    distances = tuple(None if d is None else _result(b, *d) for d, b in zip(dist, bases))
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
