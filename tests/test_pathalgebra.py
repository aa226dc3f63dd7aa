"""Ranking functional, ordering, fuzzy-weighted shortest paths."""
import copy
import math
import pickle
import random
from enum import IntEnum
from fractions import Fraction

import pytest

from ofnring import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, ArithmeticOverflow,
                     BaseFunction, DomainError, FuzzyDigraph, MixedTypeError,
                     NegativeCycle, crisp, get_base, ofn_min, rank,
                     rectangular, register_base, scalar_mul, shortest_paths,
                     trapezoid, typed)
from ofnring.documents import graph_from_doc

from helpers import (ALL_BASES, close, exhaustive_min_paths, random_any,
                     random_digraph, reference_queue_shortest_paths,
                     round_robin_shortest_paths, unregister)


def test_rank_pinned_values():
    assert rank(trapezoid(-1, 3, 1, 0)) == 1.5
    assert rank(trapezoid(1, 0, -1, 2)) == 1.0
    assert rank(crisp(7.0)) == 7.0
    assert rank(typed(SQRT, 3, 0, 0, 1)) == 1.5
    assert rank(typed(LOG, 1, 2, 1, 2)) == 1.0
    assert rank(typed(GAUSSIAN_INVERSE, 0.25, 0, -0.25, 0)) == 0.0
    assert rank(typed(GAUSSIAN_INVERSE, 1, 0, 1, 0)) == \
        get_base(GAUSSIAN_INVERSE).integral


@pytest.mark.parametrize("base", ALL_BASES)
def test_rank_is_linear(base):
    rng = random.Random(67)
    for _ in range(100):
        x = random_any(rng, base)
        y = random_any(rng, base)
        assert close(rank(x + y), rank(x) + rank(y))
        assert close(rank(scalar_mul(3.0, x)), 3.0 * rank(x))


def test_rank_halves_before_adding():
    # the exact rank is 1.5e308; adding the slopes first overflowed to inf
    assert rank(trapezoid(1e308, 1e308, 1e308, 1e308)) == 1.5e308
    rng = random.Random(71)
    for _ in range(2000):
        base = rng.choice(ALL_BASES)
        scale = 10.0 ** rng.randint(-300, 300)
        x = typed(base, *(rng.uniform(-1.0, 1.0) * scale for _ in range(4)))
        us, uo, ds, do = x.coeffs
        integral = get_base(base).integral
        # halving a normal float is exact, so on normal input nothing changes
        old = 0.5 * (us + ds) * integral + 0.5 * (uo + do)
        assert rank(x).hex() == old.hex()
    tiny = Fraction(math.ulp(0.0))
    for _ in range(2000):
        base = rng.choice(ALL_BASES)
        c = [rng.randint(1 - 2 ** 52, 2 ** 52 - 1) * math.ulp(0.0) for _ in range(4)]
        integral = Fraction(get_base(base).integral)
        exact = (Fraction(c[0]) + Fraction(c[2])) / 2 * integral \
            + (Fraction(c[1]) + Fraction(c[3])) / 2
        # subnormal halves round; each step adds at most half a unit, and the
        # product also carries the halves' error times the integral (at most 1.26)
        assert abs(Fraction(rank(typed(base, *c))) - exact) <= 4 * tiny


def test_ofn_min_by_rank_then_tuple():
    lo = trapezoid(1, 0, -1, 1)     # rank 0.5
    hi = trapezoid(1, 1, -1, 2)     # rank 1.5
    assert ofn_min(lo, hi) == lo
    assert ofn_min(hi, lo) == lo
    a = trapezoid(1, 0, -1, 2)      # rank 1, tuple (1,0,-1,2)
    b = trapezoid(2, 0, -2, 2)      # rank 1, tuple (2,0,-2,2)
    assert ofn_min(a, b) == a
    assert ofn_min(b, a) == a
    assert ofn_min(a, a) == a


def test_ofn_min_base_guard():
    g = typed(GAUSSIAN_INVERSE, -1, 0, 1, 1)
    with pytest.raises(MixedTypeError):
        ofn_min(g, typed(LOG, 1, 0, -1, 1))
    assert ofn_min(g, crisp(0.0)) == crisp(0.0)


# ---------------------------------------------------------------------------
# digraph validation
# ---------------------------------------------------------------------------

class Slot(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def test_digraph_validation():
    with pytest.raises(DomainError):
        FuzzyDigraph(0, ())
    with pytest.raises(DomainError):
        FuzzyDigraph(2, ((0, 5, crisp(1.0)),))
    gauss, expo = typed(GAUSSIAN_INVERSE, -1, 0, 1, 1), typed(LOG, 1, 0, -1, 1)
    with pytest.raises(MixedTypeError):
        FuzzyDigraph(2, ((0, 1, gauss), (1, 0, expo)))
    # the first bad edge decides, and an edge's weight comes before its range
    with pytest.raises(DomainError, match="weight that is not a TypedOfn"):
        FuzzyDigraph(2, ((0, 5, "w"), (0, 1, gauss)))
    with pytest.raises(DomainError, match="leaves the node range"):
        FuzzyDigraph(2, ((0, 1, gauss), (0, 5, expo), (0, 1, "w")))
    with pytest.raises(MixedTypeError):
        FuzzyDigraph(2, ((0, 1, crisp(1.0)), (0, 1, gauss), (1, 0, expo), (0, 5, gauss), (1,)))
    # an IntEnum is an int and not a bool, so it numbers a node
    g = FuzzyDigraph(Slot.TWO, ((Slot.ZERO, Slot.ONE, crisp(1.0)),))
    assert shortest_paths(g, Slot.ZERO).predecessors == (None, 0)


@pytest.mark.parametrize("nodes,edges,source", [
    (3, ((0.5, 1, crisp(1.0)),), 0),
    (3, ((0, 1.0, crisp(1.0)),), 0),
    (3.5, ((0, 1, crisp(1.0)),), 0),
    (True, (), 0),
    (3, ((True, 2, crisp(1.0)),), 0),
    (3, ((0, 1, "crisp(1)"),), 0),
    (3, ((0, 1, crisp(1.0)),), 0.5),
    (3, ((0, 1, crisp(1.0)),), True),
    (3, ((0, 1),), 0),
    (3, ((0, 1, crisp(1.0), 2),), 0),
    (3, (5,), 0),
    (3, None, 0),
    (3, 7, 0),
])
def test_graph_indices_and_weights_are_checked_when_built(nodes, edges, source):
    # a node number is an int and not a bool, a weight is a TypedOfn, and
    # the edges are (u, v, weight) triples
    with pytest.raises(DomainError):
        shortest_paths(FuzzyDigraph(nodes, edges), source)


def test_digraph_base_derivation():
    g = FuzzyDigraph(2, ((0, 1, typed(GAUSSIAN_INVERSE, -1, 0, 1, 1)),
                         (1, 0, crisp(1.0))))
    assert g.base == GAUSSIAN_INVERSE
    assert FuzzyDigraph(2, ((0, 1, crisp(1.0)),)).base == IDENTITY


def test_a_list_of_edges_is_stored_as_a_tuple():
    edges = [(0, 1, crisp(1.0))]
    g = FuzzyDigraph(3, edges)
    edges.append((1, 2, crisp(1.0)))
    assert g.edges == ((0, 1, crisp(1.0)),)


def test_digraph_value_semantics():
    g = FuzzyDigraph(3, ((0, 1, trapezoid(1, 0, -1, 2)), (1, 2, crisp(1.0))))
    assert repr(g) == (
        "FuzzyDigraph(nodes=3, edges=((0, 1, TypedOfn(base='identity', coeffs="
        "EssentialTuple(up_slope=1.0, up_offset=0.0, down_slope=-1.0, down_offset=2.0))), "
        "(1, 2, TypedOfn(base='identity', coeffs=EssentialTuple(up_slope=0.0, "
        "up_offset=1.0, down_slope=0.0, down_offset=1.0)))), base='identity')")
    loaded = graph_from_doc({"nodes": 3, "edges": [
        {"from": 0, "to": 1, "weight": {"base": "identity", "tuple": [1, 0, -1, 2]}},
        {"from": 1, "to": 2, "weight": {"base": "identity", "tuple": [0, 1, 0, 1]}}]})
    assert loaded == g and hash(loaded) == hash(g) and repr(loaded) == repr(g)
    assert g != FuzzyDigraph(3, g.edges[:1]) and g != FuzzyDigraph(4, g.edges)
    for attr in ("nodes", "edges", "base"):
        with pytest.raises(AttributeError):
            setattr(loaded, attr, getattr(g, attr))
        with pytest.raises(AttributeError):
            delattr(loaded, attr)
    clones = [pickle.loads(pickle.dumps(x, protocol)) for x in (g, loaded)
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [clone(x) for x in (g, loaded) for clone in (copy.copy, copy.deepcopy)]
    for back in clones:
        assert type(back) is FuzzyDigraph and back == g and repr(back) == repr(g)
        assert shortest_paths(back, 0) == shortest_paths(g, 0)


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def five_node_fixture() -> FuzzyDigraph:
    t = lambda a, b: trapezoid(1, a, -1, b)
    return FuzzyDigraph(5, (
        (0, 1, t(0.5, 2.5)),     # rank 1.5
        (0, 2, t(3.0, 5.0)),     # rank 4: loses to the two-hop route
        (1, 2, t(0.5, 1.5)),     # rank 1
        (2, 3, t(-1.0, 1.0)),    # rank 0
        (0, 3, t(2.0, 3.0)),     # rank 2.5: ties the three-hop route, wins on tuple
        (3, 1, t(0.5, 0.5)),     # rank 0.5: makes the 1-2-3 cycle (positive)
        (4, 0, t(0.0, 1.0)),     # node 4 reaches 0 but not back
    ))


def test_five_node_fixture_against_exhaustive_enumeration():
    g = five_node_fixture()
    res = shortest_paths(g, 0)
    want = exhaustive_min_paths(g, 0)
    assert len(res.distances) == 5
    for got, exp in zip(res.distances, want):
        if exp is None:
            assert got is None
        else:
            assert got == exp
    assert res.distances[1].coeffs.as_tuple() == (1.0, 0.5, -1.0, 2.5)
    assert res.distances[2].coeffs.as_tuple() == (2.0, 1.0, -2.0, 4.0)
    assert res.distances[3].coeffs.as_tuple() == (1.0, 2.0, -1.0, 3.0)
    assert res.distances[4] is None
    assert res.predecessors[4] is None


def test_predecessor_chains_recompute_the_distances():
    g = five_node_fixture()
    res = shortest_paths(g, 0)
    weight = {(u, v): w for u, v, w in g.edges}
    for node in range(5):
        if res.distances[node] is None or node == 0:
            continue
        hops = []
        cur = node
        while cur != 0:
            prev = res.predecessors[cur]
            hops.append((prev, cur))
            cur = prev
        total = rectangular(0.0, 0.0, base=g.base)
        for u, v in reversed(hops):
            total = total + weight[(u, v)]
        assert total == res.distances[node]


def test_edge_order_does_not_change_distances():
    g = five_node_fixture()
    baseline = shortest_paths(g, 0).distances
    for seed in range(5):
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        res = shortest_paths(FuzzyDigraph(5, tuple(edges)), 0)
        assert res.distances == baseline


def test_all_crisp_graph_matches_float_bellman_ford():
    edges = ((0, 1, 2.0), (0, 2, 5.0), (1, 2, -1.0), (2, 3, 1.0), (1, 3, 3.0))
    g = FuzzyDigraph(4, tuple((u, v, crisp(w)) for u, v, w in edges))
    res = shortest_paths(g, 0)

    dist = [math.inf] * 4
    dist[0] = 0.0
    for _ in range(3):
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    for node in range(4):
        d = res.distances[node]
        assert d is not None and d.is_rectangular
        assert rank(d) == dist[node]
    assert rank(res.distances[3]) == 2.0


def test_sources_and_cycles():
    g = five_node_fixture()
    with pytest.raises(DomainError):
        shortest_paths(g, 9)
    res = shortest_paths(g, 4)
    assert res.distances[4].coeffs.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert res.distances[0].coeffs.as_tuple() == (1.0, 0.0, -1.0, 1.0)
    loop = FuzzyDigraph(3, ((0, 1, crisp(1.0)), (1, 2, crisp(-1.0)),
                            (2, 1, crisp(-1.0))))
    with pytest.raises(NegativeCycle):
        shortest_paths(loop, 0)


def test_cycle_that_rounding_hides_is_negative():
    # the exact weight sums of the cycles are -2**-55, -2**-54 and -2**-53.
    # Relaxing in floats improves the source of the first, and goes on
    # improving the second until a walk has as many edges as the graph has
    # nodes.  The third improves node 1 once, to 1 - 2**-53, and then
    # 1.5 - 2**-53 rounds back to 1.5 at node 2: no edge improves any more,
    # and only the final check finds the cycle of predecessors it leaves.
    through_source = FuzzyDigraph(3, ((0, 1, crisp(0.3)), (1, 2, crisp(-0.1)),
                                      (2, 0, crisp(-0.2))))
    off_source = FuzzyDigraph(4, ((0, 1, crisp(0.7)), (1, 2, crisp(0.2)),
                                  (2, 3, crisp(-0.8)), (3, 1, crisp(0.6))))
    left_in_predecessors = FuzzyDigraph(4, ((0, 1, crisp(1.0)), (1, 2, crisp(0.5)),
                                            (2, 1, crisp(-0.5 - 2**-53))))
    for g, found in ((through_source, "relaxation keeps improving"),
                     (off_source, "relaxation keeps improving"),
                     (left_in_predecessors, "predecessors cycle through node 1")):
        with pytest.raises(NegativeCycle, match=found):
            shortest_paths(g, 0)


@pytest.mark.xfail(strict=True, reason="float path sums tie around this cycle; "
                                        "an exact path order would find it")
def test_cycle_whose_rounded_sums_tie_is_negative():
    # exact cycle sum -2**-55, but 1.0 + 0.3 - 0.1 - 0.2 rounds back to 1.0 at
    # node 1, so no relaxation improves and the predecessors form no cycle
    g = FuzzyDigraph(4, ((0, 1, crisp(1.0)), (1, 2, crisp(0.3)),
                         (2, 3, crisp(-0.1)), (3, 1, crisp(-0.2))))
    with pytest.raises(NegativeCycle):
        shortest_paths(g, 0)


def test_gaussian_weights_route_by_rank():
    heavy = typed(GAUSSIAN_INVERSE, 0.5, 4.0, -0.5, 4.0)   # rank 4
    light = typed(GAUSSIAN_INVERSE, 0.5, 1.0, -0.5, 1.0)   # rank 1
    g = FuzzyDigraph(3, ((0, 2, heavy), (0, 1, light), (1, 2, light)))
    res = shortest_paths(g, 0)
    assert rank(res.distances[2]) == 2.0
    assert res.predecessors[2] == 1


# ---------------------------------------------------------------------------
# the queue-driven loop against the round-robin oracle
# ---------------------------------------------------------------------------

CUBE = "cube-path-test"


@pytest.fixture
def cube():
    register_base(BaseFunction(
        tag=CUBE, func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25))
    try:
        yield CUBE
    finally:
        unregister(CUBE)


def outcome(run, g: FuzzyDigraph):
    """(distances, predecessors), or "NegativeCycle" when run raises it."""
    try:
        return run(g, 0)
    except NegativeCycle:
        return "NegativeCycle"


def queue_driven(g: FuzzyDigraph, source: int):
    res = shortest_paths(g, source)
    return res.distances, res.predecessors


@pytest.mark.parametrize("kind", ["nonneg", "negedge", "negcycle"])
@pytest.mark.parametrize("base", ALL_BASES + (CUBE,))
def test_queue_driven_matches_round_robin(cube, base, kind):
    rng = random.Random(f"{base}/{kind}")
    pairs = []
    for nodes, edges in ((4, 8), (6, 14), (12, 40), (40, 160)):
        g = random_digraph(rng, base, nodes, edges, kind)
        pairs += [(u, v) for u, v, _ in g.edges]
        want = outcome(round_robin_shortest_paths, g)
        assert outcome(queue_driven, g) == want
        if kind == "negcycle":
            assert want == "NegativeCycle"
        else:
            distances, _ = want
            assert distances[-1] is None  # the generator leaves it unreachable
    assert any(u == v for u, v in pairs)  # self-loops
    assert len(set(pairs)) < len(pairs)  # parallel edges


def test_relaxations_stay_below_two_per_edge():
    nodes, edges = 200, 2000
    g = random_digraph(random.Random(8), IDENTITY, nodes, edges)
    res = shortest_paths(g, 0)
    # full passes over every edge take 4.2 * E on this graph, the queue 1.09 * E
    assert res.relaxations <= 2 * edges
    assert res.scans <= res.relaxations
    assert (res.distances, res.predecessors) == round_robin_shortest_paths(g, 0)


def kernel_outcome(search, g: FuzzyDigraph, source: int):
    """Every distance as its base and float.hex coefficients, the predecessors
    and both counts; or the class and message of what the search raised."""
    try:
        res = search(g, source)
    except (NegativeCycle, ArithmeticOverflow) as e:
        return type(e), str(e)
    distances = [None if d is None else (d.base, [c.hex() for c in d.coeffs])
                 for d in res.distances]
    return distances, res.predecessors, res.scans, res.relaxations


@pytest.mark.parametrize("kind", ["nonneg", "negedge", "negcycle"])
@pytest.mark.parametrize("base", ALL_BASES + (CUBE,))
def test_kernel_matches_the_reference_queue_loop(cube, base, kind):
    rng = random.Random(f"kernel/{base}/{kind}")
    for nodes, edges in ((4, 8), (6, 14), (12, 40), (40, 160), (60, 400)):
        g = random_digraph(rng, base, nodes, edges, kind)
        for source in (0, nodes // 2):
            want = kernel_outcome(reference_queue_shortest_paths, g, source)
            assert kernel_outcome(shortest_paths, g, source) == want
            if source == 0 and kind == "negcycle":
                assert want[0] is NegativeCycle


def test_kernel_tracks_the_base_of_rectangular_distances(cube):
    # a rectangular distance adopts the base of the rectangular weight added
    # to it, so on an all-rectangular graph the bases of distances vary
    rng = random.Random(13)
    bases_seen = set()
    for _ in range(30):
        nodes = rng.randint(2, 12)
        edges = tuple((rng.randrange(nodes), rng.randrange(nodes),
                       rectangular(rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0),
                                   base=rng.choice(ALL_BASES + (CUBE,))))
                      for _ in range(rng.randint(1, 3 * nodes)))
        g = FuzzyDigraph(nodes, edges)
        assert g.base == IDENTITY
        want = kernel_outcome(reference_queue_shortest_paths, g, 0)
        assert kernel_outcome(shortest_paths, g, 0) == want
        if not isinstance(want[0], type):
            bases_seen.update(d[0] for d in want[0] if d is not None)
    assert bases_seen == set(ALL_BASES + (CUBE,))


OVERFLOW = (ArithmeticOverflow, "overflow: tuple component up_offset must be finite, got inf")


@pytest.mark.parametrize("edges,overflows", [
    # node 2 keeps distance 0; the candidate 1.7e308 + 1.7e308 for it would lose
    (((0, 2, crisp(0.0)), (0, 1, crisp(1.7e308)), (1, 2, crisp(1.7e308))), True),
    # the same overflow on a candidate that would be kept
    (((0, 1, crisp(1.7e308)), (1, 2, crisp(1.7e308))), True),
    # finite components whose rank is not: the search goes on
    (((0, 1, typed(GAUSSIAN_INVERSE, 1.7e308, 0, 1.7e308, 0)), (1, 2, crisp(1.0))), False),
])
def test_the_first_overflowing_candidate_raises(edges, overflows):
    g = FuzzyDigraph(3, edges)
    want = kernel_outcome(reference_queue_shortest_paths, g, 0)
    assert kernel_outcome(shortest_paths, g, 0) == want
    assert (want == OVERFLOW) is overflows


def test_negative_self_loop_is_a_negative_cycle():
    for g in (FuzzyDigraph(2, ((0, 1, crisp(1.0)), (1, 1, crisp(-1.0)))),
              FuzzyDigraph(2, ((0, 0, crisp(-1.0)), (0, 1, crisp(1.0))))):
        with pytest.raises(NegativeCycle):
            shortest_paths(g, 0)


def test_cycle_of_rank_zero_below_zero_in_tuple_order_is_negative():
    # each lap adds (-2, 0, 2, 0): rank 0, but lower in the tuple order, so
    # the distances improve for ever and only the edge count of the walk stops them
    w = trapezoid(-1, 0, 1, 0)
    assert rank(w + w) == 0.0
    g = FuzzyDigraph(3, ((0, 1, crisp(0.0)), (1, 2, w), (2, 1, w)))
    with pytest.raises(NegativeCycle):
        shortest_paths(g, 0)
    assert outcome(round_robin_shortest_paths, g) == "NegativeCycle"


def test_zero_cycle_terminates():
    zero = crisp(0.0)
    g = FuzzyDigraph(4, ((0, 1, crisp(1.0)), (1, 2, zero), (2, 1, zero),
                         (2, 3, crisp(2.0)), (1, 0, zero)))
    res = shortest_paths(g, 0)
    assert (res.distances, res.predecessors) == round_robin_shortest_paths(g, 0)
    assert res.predecessors == (None, 0, 1, 2)
    assert rank(res.distances[3]) == 3.0
