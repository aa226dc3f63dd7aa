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
allocates a distance and a predecessor slot per node.  The graph loader keeps
each weight as the plain record (u, v, tag, four floats) that FuzzyDigraph
stores; it builds no TypedOfn.  FuzzyDigraph's constructor then checks node
range and mixed bases.
"""
from __future__ import annotations

import json
from math import isfinite
from typing import Any

from .bases import _REGISTRY, base_named, get_base
from .errors import DocumentError, DomainError
from .pathalgebra import FuzzyDigraph, _digraph, _weight
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
    if doc["nodes"] > MAX_NODES:
        raise DocumentError(f'"nodes" exceeds the cap of {MAX_NODES}')
    edges_doc = doc.get("edges")
    if not isinstance(edges_doc, list):
        raise DocumentError('graph document needs an "edges" list')
    records = []
    for e in edges_doc:
        if not (isinstance(e, dict) and "from" in e and "to" in e and "weight" in e):
            raise DocumentError('each edge needs "from", "to" and "weight"')
        u, v = e["from"], e["to"]
        if (u.__class__ is not int or v.__class__ is not int) and (
                isinstance(u, bool) or isinstance(v, bool)
                or not isinstance(u, int) or not isinstance(v, int)):
            raise DocumentError("edge endpoints must be integers")
        tag, coeffs = _checked_weight(e["weight"])
        records.append((u, v, tag, coeffs))
    return _digraph(doc["nodes"], records)


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
