"""JSON document formats and plain-text side rendering.

An OFN document is {"base": tag, "tuple": [up_slope, up_offset, down_slope,
down_offset]}; its tag and the symbol that renders h in a side formula are
the doc_tag and symbol fields of the base's registry record.  One weight check
serves both loaders.  It decides the common document at once: a plain dict
with the two keys, a str tag found among the doc tags, and a plain list of
four floats whose sum is finite (so each float is finite).  Any other input
falls through to the full pass: the keys, the tag (resolved to its registry
record), then the four numbers through EssentialTuple's number rule, so the
first fault found is the same either way.
A graph document is {"nodes": n, "edges": [{"from": u, "to": v,
"weight": <ofn document>}]}, with n at most MAX_NODES: a shortest-path run
allocates a distance and a predecessor slot per node.  The graph loader makes
one pass over the edges and keeps each as the flat record
(u, v, tag, four floats) that FuzzyDigraph stores, one tuple per edge; it
builds no TypedOfn.  It decides the common edge at once: a plain dict of the
three keys, plain int endpoints and a common weight, the last by the weight
check's own test, written out in the loop.  Any other edge gets the full
checks.  Each fault is raised where it is met, in the order that the
pathalgebra docstring states for both graph builders, so the first bad edge
decides the error; a valid graph is joined by FuzzyDigraph._make at once.
"""
from __future__ import annotations

import json
from math import isfinite
from typing import Any

from .bases import _REGISTRY, base_named, get_base
from .errors import DocumentError, DomainError
from .pathalgebra import FuzzyDigraph, Record, _edge_fault, _weight
from .ring import EssentialTuple, TypedOfn

MAX_NODES = 10**6

_OFN_KEYS = frozenset(("base", "tuple"))


def ofn_to_doc(x: TypedOfn) -> dict[str, Any]:
    return {"base": get_base(x.base).doc_tag, "tuple": list(x.coeffs.as_tuple())}


def _checked_weight(doc: Any) -> tuple[str, tuple[float, float, float, float]]:
    """The base tag and the four checked floats of an OFN document."""
    if doc.__class__ is dict and len(doc) == 2:  # the common case, decided at once
        tag, tup = doc.get("base"), doc.get("tuple")
        if (tag.__class__ is str and tup.__class__ is list and len(tup) == 4
                and (b := _REGISTRY["doc_tag"].get(tag)) is not None):
            a0, a1, a2, a3 = tup
            if (a0.__class__ is a1.__class__ is a2.__class__ is a3.__class__ is float
                    and isfinite(a0 + a1 + a2 + a3)):
                return b.tag, (a0, a1, a2, a3)
    if not isinstance(doc, dict):
        raise DocumentError(f"expected an object, got {type(doc).__name__}")
    if not _OFN_KEYS.issuperset(doc):
        raise DocumentError(f"unexpected keys {sorted(set(doc) - _OFN_KEYS, key=str)}")
    tag = doc.get("base")
    if (b := base_named("doc_tag", tag)) is None:
        raise DocumentError(f"unknown base tag {tag!r}")
    tup = doc.get("tuple")
    try:
        if isinstance(tup, list) and len(tup) == 4:
            return b.tag, tuple(EssentialTuple(*tup))
    except DomainError:
        pass
    raise DocumentError("tuple must be a list of 4 finite numbers")


def ofn_from_doc(doc: Any) -> TypedOfn:
    return _weight(*_checked_weight(doc))


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            # ValueError covers malformed JSON, text that is not UTF-8 and
            # integers longer than the interpreter's digit limit
            raise DocumentError(f"invalid JSON in {path}: {e}") from e


def load_ofn(path: str) -> TypedOfn:
    return ofn_from_doc(_load_json(path))


def graph_from_doc(doc: Any) -> FuzzyDigraph:
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), int) \
            or isinstance(doc.get("nodes"), bool):
        raise DocumentError('graph document needs an integer "nodes" field')
    nodes = doc["nodes"]
    if nodes > MAX_NODES:
        raise DocumentError(f'"nodes" exceeds the cap of {MAX_NODES}')
    edges_doc = doc.get("edges")
    if not isinstance(edges_doc, list):
        raise DocumentError('graph document needs an "edges" list')
    if nodes < 1:
        raise DomainError("a digraph needs at least one node")
    doc_tags = _REGISTRY["doc_tag"]
    records: list[Record] = []
    first = None  # the tag of the first weight with a slope
    for e in edges_doc:
        r = None
        if e.__class__ is dict and len(e) == 3:  # the common edge, decided at once
            u, v, w = e.get("from"), e.get("to"), e.get("weight")
            if u.__class__ is int and v.__class__ is int and w.__class__ is dict and len(w) == 2:
                # _checked_weight's common case, inlined: this runs once per edge
                tag, tup = w.get("base"), w.get("tuple")
                if (tag.__class__ is str and tup.__class__ is list and len(tup) == 4
                        and (b := doc_tags.get(tag)) is not None):
                    a0, a1, a2, a3 = tup
                    if (a0.__class__ is a1.__class__ is a2.__class__ is a3.__class__ is float
                            and isfinite(a0 + a1 + a2 + a3)):
                        tag = b.tag
                        r = (u, v, tag, a0, a1, a2, a3)
        if r is None:
            r = _checked_edge(e)
            u, v, tag, a0, _, a2, _ = r
        if not (0 <= u < nodes and 0 <= v < nodes):
            _edge_fault(nodes, records, r)
        if a0 != 0.0 or a2 != 0.0:
            if first is None:
                first = tag
            elif tag != first:
                _edge_fault(nodes, records, r)
        records.append(r)
    return FuzzyDigraph._make(nodes, "identity" if first is None else first, tuple(records))


def _checked_edge(e: Any) -> Record:
    """The record of an edge document, through the full checks."""
    if not (isinstance(e, dict) and "from" in e and "to" in e and "weight" in e):
        raise DocumentError('each edge needs "from", "to" and "weight"')
    u, v = e["from"], e["to"]
    if isinstance(u, bool) or isinstance(v, bool) \
            or not isinstance(u, int) or not isinstance(v, int):
        raise DocumentError("edge endpoints must be integers")
    tag, (c0, c1, c2, c3) = _checked_weight(e["weight"])
    return u, v, tag, c0, c1, c2, c3


def load_graph(path: str) -> FuzzyDigraph:
    return graph_from_doc(_load_json(path))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".12g")


def _side_text(base: str, slope: float, offset: float) -> str:
    if slope == 0.0:
        return format_number(offset)
    sym = get_base(base).symbol
    if slope == 1.0:
        head = sym
    elif slope == -1.0:
        head = f"-{sym}"
    elif len(sym) == 1:  # a bare variable takes its coefficient as 2x
        head = f"{format_number(slope)}{sym}"
    else:
        head = f"{format_number(slope)}*{sym}"
    if offset == 0.0:
        return head
    if offset > 0:
        return f"{head}+{format_number(offset)}"
    return f"{head}-{format_number(-offset)}"


def render_sides(x: TypedOfn) -> str:
    t = x.coeffs
    return (f"({_side_text(x.base, t.up_slope, t.up_offset)}, "
            f"{_side_text(x.base, t.down_slope, t.down_offset)})")
