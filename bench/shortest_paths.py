"""shortest-paths: one graph document per request.

graph_from_doc -> shortest_paths(source 0) -> ofn_to_doc on every distance.
The mix has non-negative graphs in two sizes, graphs with negative edges but
no negative cycle, all-crisp graphs and graphs with a planted negative cycle,
so a speed-up that holds only for non-negative weights shows on one class and
not on the others.
"""
from __future__ import annotations

from collections import deque

from ofnring import documents, pathalgebra

import oracles
from harness import Request

NAME = "shortest-paths"
TAIL_PERCENTILE = 90.0

# class -> (nodes, edges)
SIZES = {
    "nonneg-200": (200, 2000),
    "nonneg-1000": (1000, 10000),
    "negedge-200": (200, 2000),
    "crisp-200": (200, 2000),
    "negcycle-60": (60, 600),
}
INPUT_SIZE = "; ".join(f"{k}: n={n}, E={e}" for k, (n, e) in SIZES.items())

KNOWN_FAILURES: dict = {}
SCHEDULE = (["nonneg-200"] * 6 + ["negedge-200"] * 4 + ["crisp-200"] * 2
            + ["nonneg-1000"] * 2 + ["negcycle-60"])
REQUESTS_PER_SECOND = 5.4

SOURCE = 0
TOLERANCE = 1e-9  # relative, per component of a path sum and per rank comparison


def proper_weight(rng, base: str):
    """A proper number on `base` with rank in [0.5, 3], either orientation."""
    direction = 1.0 if oracles.BASES[base][1] else -1.0
    h1 = oracles.BASES[base][2]
    su = direction * rng.uniform(0.1, 1.0)
    sd = -direction * rng.uniform(0.1, 1.0)
    ou = rng.uniform(-1.0, 1.0)
    od = (su * h1 + ou) + rng.uniform(0.0, 1.0) - sd * h1
    t = [su, ou, sd, od]
    if rng.random() < 0.5:
        t = [sd, od, su, ou]  # the same sides traversed the other way
    shift = rng.uniform(0.5, 3.0) - oracles.rank(base, t)
    t[1] += shift
    t[3] += shift
    return t


def random_graph(rng, kind: str, base: str, nodes: int | None = None,
                 edges: int | None = None) -> dict:
    if nodes is None:
        nodes, edges = SIZES[kind]
    pairs = set()
    while len(pairs) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            pairs.add((u, v))
    potential = [rng.uniform(-4.0, 4.0) for _ in range(nodes)]
    tag = oracles.DOC_TAG[base]
    out = []
    for u, v in sorted(pairs):
        if kind == "crisp-200":
            c = rng.uniform(0.5, 3.0) + potential[u] - potential[v]
            t = [0.0, c, 0.0, c]
        else:
            t = proper_weight(rng, base)
            if kind == "negedge-200":
                shift = potential[u] - potential[v]
                t[1] += shift
                t[3] += shift
        out.append({"from": u, "to": v, "weight": {"base": tag, "tuple": t}})
    if kind == "negcycle-60":
        cycle = [(0, 1), (1, 2), (2, 0)]
        out = [e for e in out if (e["from"], e["to"]) not in cycle]
        for u, v in cycle:
            out.append({"from": u, "to": v, "weight": {"base": tag, "tuple": [0.0, -1.0, 0.0, -1.0]}})
    return {"nodes": nodes, "edges": out}


def make_input(kind, rng, index):
    # bases rotate by slot, shifted each round so every class meets every base
    rotation = index % len(SCHEDULE) + index // len(SCHEDULE)
    base = "identity" if kind == "crisp-200" else oracles.BASE_TAGS[rotation % 4]
    doc = random_graph(rng, kind, base)
    return Request(kind, doc, {"kind": kind, "base": base, "nodes": doc["nodes"]})


def execute(req):
    g = documents.graph_from_doc(req.data)
    res = pathalgebra.shortest_paths(g, SOURCE)
    return {"base": g.base, "predecessors": res.predecessors,
            "distances": [None if d is None else documents.ofn_to_doc(d)
                          for d in res.distances]}


def certificate_ok(doc: dict, out: dict) -> bool:
    """Check a shortest-path tree without trusting the program.

    Reachable nodes are exactly those with a distance; every predecessor walk
    reaches the source without cycling; each distance is the tuple sum along
    its walk; no edge improves a distance in the (rank, tuple) order.
    """
    n = doc["nodes"]
    base = out["base"]
    weight = {(e["from"], e["to"]): e["weight"]["tuple"] for e in doc["edges"]}
    adj = [[] for _ in range(n)]
    for u, v in weight:
        adj[u].append(v)
    reach = [False] * n
    reach[SOURCE] = True
    queue = deque([SOURCE])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not reach[v]:
                reach[v] = True
                queue.append(v)
    dist, pred = out["distances"], out["predecessors"]
    if len(dist) != n or len(pred) != n:
        return False
    tuples = []
    for v in range(n):
        if (dist[v] is None) == reach[v]:
            return False
        if dist[v] is None:
            tuples.append(None)
            continue
        if oracles.BASE_OF_DOC.get(dist[v]["base"]) != base:
            return False
        tuples.append(dist[v]["tuple"])
    if tuples[SOURCE] != [0.0, 0.0, 0.0, 0.0]:
        return False
    # path sums, memoised along the predecessor tree
    sums = {SOURCE: (0.0, 0.0, 0.0, 0.0)}
    for v in range(n):
        if not reach[v]:
            continue
        walk = []
        u = v
        while u not in sums:
            walk.append(u)
            if len(walk) > n or pred[u] is None or (pred[u], u) not in weight:
                return False
            u = pred[u]
        for w in reversed(walk):
            sums[w] = oracles.componentwise("+", sums[pred[w]], weight[(pred[w], w)])
    for v, s in sums.items():
        if not all(oracles.close(a, b, TOLERANCE) for a, b in zip(s, tuples[v])):
            return False
    for (u, v), w in weight.items():
        if tuples[u] is None:
            continue
        cand = oracles.rank(base, oracles.componentwise("+", tuples[u], w))
        cur = oracles.rank(base, tuples[v])
        if cand < cur - TOLERANCE * (1.0 + abs(cur)):
            return False
    return True


def check(req, out, err):
    if req.kind == "negcycle-60":
        return type(err).__name__ == "NegativeCycle"
    return err is None and certificate_ok(req.data, out)


def corrupt(req, out):
    dist = list(out["distances"])
    # the highest reached node; the source only when it reaches nothing else
    for v in range(len(dist) - 1, -1, -1):
        if dist[v] is not None:
            t = list(dist[v]["tuple"])
            t[1] -= 1.0
            dist[v] = {"base": dist[v]["base"], "tuple": t}
            break
    return dict(out, distances=dist)
