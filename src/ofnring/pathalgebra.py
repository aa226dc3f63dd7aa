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
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .bases import get_base
from .errors import DomainError, NegativeCycle
from .ring import TypedOfn, _result_base, add, rectangular


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


@dataclass(frozen=True)
class FuzzyDigraph:
    """A digraph whose edges carry typed-OFN weights on one common base."""

    nodes: int
    edges: tuple[tuple[int, int, TypedOfn], ...]
    base: str = field(init=False)  # the base of the non-rectangular weights

    def __post_init__(self):
        if not _is_index(self.nodes):
            raise DomainError(f"the node count {self.nodes!r} is not an integer")
        if self.nodes < 1:
            raise DomainError("a digraph needs at least one node")
        first = None  # the first typed weight fixes the base
        for u, v, w in self.edges:
            # _is_index(u) and _is_index(v), inlined: this runs once per edge
            if not (isinstance(u, int) and isinstance(v, int)
                    and u.__class__ is not bool and v.__class__ is not bool):
                raise DomainError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
            if not (0 <= u < self.nodes and 0 <= v < self.nodes):
                raise DomainError(f"edge ({u}, {v}) leaves the node range")
            if not isinstance(w, TypedOfn):
                raise DomainError(f"edge ({u}, {v}) has a weight that is not a TypedOfn")
            if not w.is_rectangular:
                first = first or w
                if w.base != first.base:
                    _result_base(first, w)
        object.__setattr__(self, "base", first.base if first else "identity")


@dataclass(frozen=True)
class ShortestPathResult:
    source: int
    distances: tuple[TypedOfn | None, ...]
    predecessors: tuple[int | None, ...]
    scans: int        # nodes taken off the queue
    relaxations: int  # edges examined, one add() each


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
    """
    n = g.nodes
    if not (_is_index(source) and 0 <= source < n):
        raise DomainError(f"source {source} is not a node")
    out: list[list[tuple[int, TypedOfn]]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        out[u].append((v, w))
    dist: list[TypedOfn | None] = [None] * n
    keys: list[float | None] = [None] * n  # rank(dist[v]), kept beside dist
    pred: list[int | None] = [None] * n
    hops = [0] * n  # edges on the walk that gave dist[v]
    queued = [False] * n
    dist[source] = rectangular(0.0, 0.0, base=g.base)
    keys[source] = rank(dist[source])
    queue = deque([source])
    queued[source] = True
    scans = relaxations = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        du, h, edges = dist[u], hops[u] + 1, out[u]
        scans += 1
        relaxations += len(edges)
        for v, w in edges:
            cand = add(du, w)
            kc, kv = rank(cand), keys[v]
            if dist[v] is None or (kc < kv if kc != kv else cand.coeffs < dist[v].coeffs):
                if v == source or h >= n:
                    raise NegativeCycle("relaxation keeps improving; negative-rank cycle")
                dist[v], keys[v], pred[v], hops[v] = cand, kc, u, h
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    _check_predecessor_tree(pred)
    return ShortestPathResult(source, tuple(dist), tuple(pred), scans, relaxations)


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
