"""The input boundary: OFN documents and expression text that must be refused."""
import itertools
import math
import random
from enum import IntEnum

import pytest

from ofnring import (BaseFunction, DocumentError, FuzzyDigraph, ParseError, crisp,
                     parse_expression, register_base)
from ofnring.documents import MAX_NODES, graph_from_doc, ofn_from_doc
from ofnring.expr import MAX_DEPTH
from ofnring.ring import EssentialTuple

from helpers import reference_graph_from_doc, reference_ofn_from_doc, unregister


def test_integer_too_large_for_a_float_is_a_document_error():
    for tup in ([1, 10 ** 400, -1, 5], [True, 0, 0, 0], [1, 0, -1, "5"],
                [1, 0, -1, None], [1, 0, -1], "1,0,-1,5"):
        with pytest.raises(DocumentError, match="^tuple must be a list of 4 finite numbers$"):
            ofn_from_doc({"base": "identity", "tuple": tup})


def test_unhashable_base_tag_is_a_document_error():
    with pytest.raises(DocumentError):
        ofn_from_doc({"base": ["identity"], "tuple": [1, 0, -1, 2]})


def test_parentheses_nest_at_most_max_depth():
    def nested(depth):
        return "(" * depth + "crisp(1)" + ")" * depth
    assert parse_expression(nested(MAX_DEPTH)) == crisp(1)
    for depth in (MAX_DEPTH + 1, 2000):
        with pytest.raises(ParseError):
            parse_expression(nested(depth))


def test_graph_nodes_are_capped():
    assert graph_from_doc({"nodes": MAX_NODES, "edges": []}).nodes == MAX_NODES
    for nodes in (MAX_NODES + 1, 10**12):
        with pytest.raises(DocumentError):
            graph_from_doc({"nodes": nodes, "edges": []})


# ---------------------------------------------------------------------------
# the loader against the reference loader in helpers
# ---------------------------------------------------------------------------

CUBE = "cube-doc-test"
CUBE_DOC = "cubic-doc-test"
DOC_TAGS = ("identity", "sqrt", "gaussian", "exponential", CUBE_DOC)


@pytest.fixture
def cube_doc_tag():
    register_base(BaseFunction(
        tag=CUBE, func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25,
        doc_tag=CUBE_DOC))
    try:
        yield CUBE_DOC
    finally:
        unregister(CUBE)


class Slot(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


class Tag(str):
    """A str subclass: equal to a doc tag, but not a str by class."""


BAD_TAGS = ("nope", "", "Identity", ["identity"], {"identity": 1}, None, 1, 1.5, True)
BAD_ENTRIES = (True, False, 10 ** 400, -10 ** 400, "5", None, math.nan, math.inf,
               -math.inf, [1.0])
BAD_TUPLES = ([], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0], (1.0, 0.0, -1.0, 2.0),
              "1,0,-1,5", None)
BAD_ENDPOINTS = (True, False, 1.0, "1", None)


def _entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, 1, -2, 10 ** 300, 2 ** 53 + 1, Slot.TWO))
    if kind == 1:
        return rng.choice((0.0, -0.0, 1e308, -5e-324))
    return rng.uniform(-10.0, 10.0)


def _weight(rng, tag, slopes=True):
    tup = [_entry(rng) for _ in range(4)]
    if not slopes:
        tup[0] = tup[2] = 0.0
    return {"base": tag, "tuple": tup}


def _bad_weight(rng, tag):
    w = _weight(rng, tag)
    fault = rng.randrange(7)
    if fault == 0:
        return rng.choice(([1.0, 0.0, -1.0, 2.0], tag, None, 3))
    if fault == 1:
        w[rng.choice(("extra", "Base", "tuples"))] = 1
    elif fault == 2:
        del w[rng.choice(("base", "tuple"))]
    elif fault == 3:
        w["base"] = rng.choice(BAD_TAGS)
    elif fault == 4:
        w["tuple"][rng.randrange(4)] = rng.choice(BAD_ENTRIES)
    elif fault == 5:
        w["tuple"] = rng.choice(BAD_TUPLES)
    else:
        w["base"] = rng.choice([t for t in DOC_TAGS if t != tag])  # MixedTypeError
    return w


def _edge(rng, nodes, tag, bad):
    to = rng.randrange(min(nodes, 3))
    e = {"from": rng.randrange(nodes), "to": Slot(to) if rng.random() < 0.5 else to,
         "weight": _weight(rng, tag)}
    if rng.random() < 0.3:  # a rectangular weight on any base fits a typed graph
        e["weight"] = _weight(rng, rng.choice(DOC_TAGS + (Tag(tag),)), slopes=False)
    if rng.random() < 0.1:
        e["label"] = "extra edge keys are allowed"
    if not bad:
        return e
    fault = rng.randrange(8)  # half of the faults are in the weight
    if fault == 0:
        return rng.choice(([0, 1, e["weight"]], None, "edge"))
    if fault == 1:
        del e[rng.choice(("from", "to", "weight"))]
    elif fault == 2:
        e[rng.choice(("from", "to"))] = rng.choice(BAD_ENDPOINTS)
    elif fault == 3:
        e[rng.choice(("from", "to"))] = rng.choice((nodes, -1, 10 ** 20))
    else:
        e["weight"] = _bad_weight(rng, tag)
    return e


def _graph_doc(rng, tag):
    nodes = rng.randint(1, 8)
    edges = [_edge(rng, nodes, tag, rng.random() < 0.08) for _ in range(rng.randint(0, 12))]
    doc = {"nodes": nodes, "edges": edges}
    if rng.random() < 0.05:
        doc = rng.choice(({"nodes": rng.choice((True, 2.0, "2", None, 0, -1, MAX_NODES + 1)),
                           "edges": edges},
                          {"nodes": nodes, "edges": rng.choice((None, {}, "[]"))},
                          {"nodes": nodes}, {"edges": edges}, [nodes, edges], None))
    return doc


def _outcome(load, doc):
    """repr of what load(doc) returns, or the class and message of what it raises."""
    try:
        return repr(load(doc))
    except Exception as e:
        return type(e), str(e)


def test_loader_matches_the_reference_loader(cube_doc_tag):
    rng = random.Random(41)
    loaded = set()
    failed = 0
    for k in range(1500):
        tag = DOC_TAGS[k % len(DOC_TAGS)]
        doc = _graph_doc(rng, tag)
        got = _outcome(graph_from_doc, doc)
        assert got == _outcome(reference_graph_from_doc, doc), doc
        if isinstance(got, str):
            loaded.add(graph_from_doc(doc).base)
        else:
            failed += 1
        edges = doc.get("edges") if isinstance(doc, dict) else None
        for e in edges if isinstance(edges, list) else ():
            w = e.get("weight") if isinstance(e, dict) else e
            assert _outcome(ofn_from_doc, w) == _outcome(reference_ofn_from_doc, w), w
    assert loaded == {"identity", "sqrt", "gaussian-inverse", "log", CUBE}
    assert 200 < failed < 1000


def test_first_bad_edge_decides_the_error():
    rng = random.Random(43)
    good = [{"from": rng.randrange(50), "to": rng.randrange(50),
             "weight": _weight(rng, "sqrt")} for _ in range(300)]
    bad = {"tuple": {"from": 1, "to": 2, "weight": {"base": "sqrt", "tuple": [1, 0, -1]}},
           "tag": {"from": 1, "to": 2, "weight": {"base": "nope", "tuple": [1, 0, -1, 2]}},
           "endpoint": {"from": 1.0, "to": 2, "weight": _weight(rng, "sqrt")},
           "range": {"from": 50, "to": 2, "weight": _weight(rng, "sqrt")},
           "mixed": {"from": 1, "to": 2, "weight": _weight(rng, "identity")}}
    for first, second in itertools.permutations(bad, 2):
        edges = list(good)
        edges[200], edges[250] = bad[first], bad[second]
        doc = {"nodes": 50, "edges": edges}
        want = _outcome(reference_graph_from_doc, {"nodes": 50, "edges": edges[:201]})
        assert isinstance(want, tuple)
        assert _outcome(graph_from_doc, doc) == want == _outcome(reference_graph_from_doc, doc)


def test_no_tag_lookup_outlives_a_load(cube_doc_tag):
    doc = {"nodes": 2, "edges": [{"from": 0, "to": 1,
                                  "weight": {"base": CUBE_DOC, "tuple": [1, 0, -1, 2]}}]}
    assert graph_from_doc(doc).base == CUBE
    assert ofn_from_doc(doc["edges"][0]["weight"]).base == CUBE
    unregister(CUBE)
    for load in (graph_from_doc, lambda d: ofn_from_doc(d["edges"][0]["weight"])):
        with pytest.raises(DocumentError, match=f"^unknown base tag '{CUBE_DOC}'$"):
            load(doc)


def test_mixed_type_keys_are_a_document_error():
    for load in (ofn_from_doc, reference_ofn_from_doc):
        with pytest.raises(DocumentError, match=r"^unexpected keys \[1, 'x'\]$"):
            load({1: 0, "x": 0})
        with pytest.raises(DocumentError, match=r"^unexpected keys \[2, 'extra'\]$"):
            load({"base": "identity", "tuple": [1.0, 0.0, -1.0, 2.0], 2: 0, "extra": 0})


# ---------------------------------------------------------------------------
# the common weight document, decided at once, against its near misses
# ---------------------------------------------------------------------------

class Real(float):
    """A float subclass: equal to a float, but not a float by class."""


class Doc(dict):
    pass


class Numbers(list):
    pass


GOOD = [1.0, 0.5, -1.0, 2.0]


def _near_misses():
    """Weights just off the common case, each named by how it misses."""
    out = {}
    for i in range(4):
        for name, entry in (("int", 2), ("bool", True), ("huge-int", 10 ** 400),
                            ("float-subclass", Real(2.0)), ("nan", math.nan),
                            ("inf", math.inf), ("-inf", -math.inf), ("-0.0", -0.0)):
            tup = list(GOOD)
            tup[i] = entry
            out[f"{name}@{i}"] = {"base": "identity", "tuple": tup}
    out.update({
        "plain": {"base": "identity", "tuple": list(GOOD)},
        "all-int": {"base": "identity", "tuple": [1, 0, -1, 2]},
        "sum-overflows": {"base": "identity", "tuple": [1e308, 1e308, 0.0, 0.0]},
        "dict-subclass": Doc(base="identity", tuple=list(GOOD)),
        "list-subclass": {"base": "identity", "tuple": Numbers(GOOD)},
        "tuple-not-list": {"base": "identity", "tuple": tuple(GOOD)},
        "str-not-list": {"base": "identity", "tuple": "1234"},
        "str-subclass-tag": {"base": Tag("identity"), "tuple": list(GOOD)},
        "unhashable-tag": {"base": ["identity"], "tuple": list(GOOD)},
        "unknown-tag": {"base": "nope", "tuple": list(GOOD)},
        "none-tag-value": {"base": None, "tuple": list(GOOD)},
        "only-base": {"base": "identity"},
        "only-tuple": {"tuple": list(GOOD)},
        "two-keys-one-wrong": {"base": "identity", "tuples": list(GOOD)},
        "three-keys": {"base": "identity", "tuple": list(GOOD), "extra": 1},
        "three-numbers": {"base": "identity", "tuple": GOOD[:3]},
        "five-numbers": {"base": "identity", "tuple": GOOD + [3.0]},
        "none": None,
        "two-item-list": [1.0, 2.0],
        "two-char-str": "ab",
    })
    return out


def _exact(load, doc):
    """What load(doc) gives, with each coefficient as its class and float.hex."""
    try:
        got = load(doc)
    except Exception as e:
        return type(e), str(e)
    if isinstance(got, FuzzyDigraph):
        return got.nodes, got.base, [(u.__class__, u, v.__class__, v, w.base, _hexes(w))
                                     for u, v, w in got.edges]
    return got.base, _hexes(got)


def _hexes(x):
    return [(c.__class__, float.hex(float(c))) for c in x.coeffs]


def test_near_misses_of_the_common_weight_load_as_the_reference_does():
    cases = _near_misses()
    loaded = set()
    for name, w in cases.items():
        got = _exact(ofn_from_doc, w)
        assert got == _exact(reference_ofn_from_doc, w), name
        if isinstance(got[-1], list):
            loaded.add(name)
        for u, v in ((0, 1), (True, 1), (0, False), (Slot.ONE, 0), (1, Slot.TWO)):
            doc = {"nodes": 3, "edges": [{"from": 0, "to": 2, "weight": cases["plain"]},
                                         {"from": u, "to": v, "weight": w}]}
            assert _exact(graph_from_doc, doc) == _exact(reference_graph_from_doc, doc), \
                (name, u, v)
    assert {"plain", "all-int", "sum-overflows", "dict-subclass", "list-subclass",
            "str-subclass-tag", "-0.0@0", "int@3", "float-subclass@2"} <= loaded
    assert not loaded & {"nan@1", "inf@0", "bool@2", "huge-int@3", "three-keys",
                         "tuple-not-list", "unknown-tag", "five-numbers"}


def _edge_near_misses():
    """Graph documents just off the common edge, each named by how it misses.

    Each has one common edge first, so the loader has a graph to carry the
    miss into.
    """
    sloped = {"base": "identity", "tuple": list(GOOD)}
    other = {"base": "sqrt", "tuple": list(GOOD)}  # sloped, another tag
    flat = {"base": "sqrt", "tuple": [0.0, 1.0, 0.0, 2.0]}  # rectangular, another tag
    bad = {"base": "nope", "tuple": list(GOOD)}

    def edge(u, v, w=sloped):
        return {"from": u, "to": v, "weight": w}

    def graph(*edges, nodes=3):
        return {"nodes": nodes, "edges": [edge(0, 1), *edges]}

    out = {
        "plain": graph(edge(1, 2)),
        "extra-edge-key": graph(dict(edge(1, 2), label="kept out of the record")),
        "dict-subclass-edge": graph(Doc(edge(1, 2))),
        "two-keys": graph({"from": 1, "to": 2}),
        "three-keys-one-wrong": graph({"from": 1, "to": 2, "weights": sloped}),
        "int-enum-endpoints": graph(edge(Slot.ONE, Slot.TWO)),
        "float-endpoint": graph(edge(1.0, 2)),
        "str-endpoint": graph(edge(1, "2")),
        "weight-not-a-dict": graph(edge(1, 2, list(GOOD))),
        "nodes-0": graph(nodes=0),
        "nodes-negative": graph(nodes=-1),
        "nodes-0-no-edges": {"nodes": 0, "edges": []},
        "mixed-base": graph(edge(1, 2, other)),
        "sloped-after-rectangular-of-another-tag": {
            "nodes": 3, "edges": [edge(0, 1, flat), edge(1, 2), edge(2, 0, flat)]},
        "all-rectangular": {"nodes": 3, "edges": [edge(0, 1, flat), edge(1, 2, flat)]},
        "range-then-loader-fault": graph(edge(3, 1), edge(1, 2, bad)),
        "mixed-then-loader-fault": graph(edge(1, 2, other), edge(1.0, 2)),
        "range-then-mixed": graph(edge(0, 9), edge(1, 2, other)),
    }
    for name, (u, v) in (("from", (3, 1)), ("to", (0, 3)), ("negative-from", (-1, 0)),
                         ("negative-to", (0, -1)), ("huge", (10 ** 20, 0)),
                         ("bool-from", (True, 1)), ("bool-to", (0, False))):
        out[f"endpoint-{name}"] = graph(edge(u, v))
    return out


def test_near_misses_of_the_common_edge_load_as_the_reference_does():
    loaded = set()
    for name, doc in _edge_near_misses().items():
        got = _exact(graph_from_doc, doc)
        assert got == _exact(reference_graph_from_doc, doc), name
        if isinstance(got[-1], list):
            loaded.add(name)
    assert loaded == {"plain", "extra-edge-key", "dict-subclass-edge", "int-enum-endpoints",
                      "sloped-after-rectangular-of-another-tag", "all-rectangular"}


def test_graph_records_are_plain_tuples_of_floats():
    weights = [{"base": "identity", "tuple": [-0.0, 0.5, -1.0, 2.0]},
               {"base": "identity", "tuple": [1, 0, -1, 2]},
               Doc(base="identity", tuple=[Real(1.0), 0.0, -1.0, 2.0])]
    g = graph_from_doc({"nodes": 2, "edges": [{"from": 0, "to": 1, "weight": w}
                                              for w in weights]})
    for record, w in zip(g._records, weights):
        # one flat tuple per edge: (u, v, tag, up_slope, up_offset, down_slope, down_offset)
        assert record.__class__ is tuple and len(record) == 7
        _, _, tag, *coeffs = record
        assert tag == "identity"
        assert all(c.__class__ is float for c in coeffs)
        assert tuple(coeffs) == tuple(ofn_from_doc(w).coeffs)
    assert math.copysign(1.0, g._records[0][3]) == -1.0
    x = ofn_from_doc(weights[0])
    assert x.coeffs.__class__ is EssentialTuple
    assert x.coeffs.up_slope == 0.0 and math.copysign(1.0, x.coeffs.up_slope) == -1.0
    assert x.coeffs.as_tuple() == (-0.0, 0.5, -1.0, 2.0)
