"""Fuzzing the CLI boundary: every input ends in a documented exit code.

cli.main runs in-process on generated expression text and JSON documents; an
exception escaping main, or a traceback on stderr, fails the test.  Graph
documents keep `nodes` small, because a run allocates a slot per node, and
`sample` keeps `points` small, so that each run writes a short file.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofnring.bases import base_named
from ofnring.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2.5", ".5", "-0.25", "1e200", "1e308",
                     "1e400", "1e-320"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
LITERAL_NAMES = st.sampled_from(["trap", "sqrtb", "gauss", "expo", "rect",
                                 "crisp", "nope"])
LITERALS = st.builds(lambda name, args: f"{name}({','.join(args)})",
                     LITERAL_NAMES, st.lists(NUMBERS, max_size=5))
EXPRESSIONS = st.recursive(
    LITERALS,
    lambda inner: st.builds(lambda a, op, b: f"({a}{op}{b})",
                            inner, st.sampled_from("+-*/"), inner),
    max_leaves=6)
TOKEN_SOUP = st.lists(st.sampled_from(
    ["trap", "gauss", "crisp", "(", ")", ",", "+", "-", "*", "/", "1", "0",
     "1e999", ".", "e", " ", "x", "_"]), max_size=20).map("".join)
EXPRESSION_TEXT = st.one_of(EXPRESSIONS, TOKEN_SOUP, st.text(max_size=30))

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10)
TUPLE_ENTRIES = st.one_of(st.floats(), st.integers(), st.sampled_from([10**400, True, "1"]))
OFN_DOCS = st.one_of(
    st.fixed_dictionaries({
        "base": st.sampled_from(["identity", "sqrt", "gaussian", "exponential",
                                 "log", "bogus"]),
        "tuple": st.lists(TUPLE_ENTRIES, min_size=3, max_size=5)}),
    JSON_VALUES)
# well-formed numbers, many near the float range, reach the samplers
VALID_OFN_DOCS = st.fixed_dictionaries({
    "base": st.sampled_from(["identity", "sqrt", "gaussian", "exponential"]),
    "tuple": st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([1e308, -1e308, 0.0, 1.0])),
                      min_size=4, max_size=4)})
EDGES = st.fixed_dictionaries({
    "from": st.integers(-1, 6), "to": st.one_of(st.integers(-1, 6), st.just(1.5)),
    "weight": OFN_DOCS})
GRAPH_DOCS = st.one_of(
    st.fixed_dictionaries({"nodes": st.integers(-1, 6),
                           "edges": st.lists(EDGES, max_size=6)}),
    JSON_VALUES)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out") / "out"


def run(argv):
    """Exit code and stderr of main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_documented(code, err):
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err
    assert (code == 0) == (err == "")


@settings(max_examples=100, deadline=None)
@given(text=EXPRESSION_TEXT)
def test_eval_ends_in_a_documented_exit_code(text):
    assert_documented(*run(["eval", f"--expr={text}"]))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["classify", "correct"]), doc=OFN_DOCS)
def test_ofn_documents_end_in_a_documented_exit_code(doc_path, command, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert_documented(*run([command, "--in", str(doc_path)]))


@settings(max_examples=60, deadline=None)
@given(doc=GRAPH_DOCS, source=st.integers(-1, 6))
def test_graph_documents_end_in_a_documented_exit_code(doc_path, doc, source):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert_documented(*run(["graph", "--edges", str(doc_path), "--source", str(source)]))


@settings(max_examples=60, deadline=None)
@given(doc=st.one_of(OFN_DOCS, VALID_OFN_DOCS), points=st.integers(2, 50))
def test_sample_ends_in_a_documented_exit_code(doc_path, out_path, doc, points):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    code, err = run(["sample", "--in", str(doc_path), "--points", str(points),
                     "--out", str(out_path)])
    assert_documented(code, err)
    if code == 0:
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
        assert all("nan" not in row for row in rows)
        # only the alpha = 0 row of an unbounded base may hold the pole
        pole = base_named("doc_tag", doc["base"]).unbounded
        assert all("inf" not in row for row in rows[pole:])


@settings(max_examples=60, deadline=None)
@given(doc=st.one_of(OFN_DOCS, VALID_OFN_DOCS))
def test_plot_ends_in_a_documented_exit_code_and_a_finite_svg(doc_path, out_path,
                                                              doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    code, err = run(["plot", "--in", str(doc_path), "--out", str(out_path)])
    assert_documented(code, err)
    if code == 0:
        assert "nan" not in out_path.read_text(encoding="utf-8")
