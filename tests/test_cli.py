"""End-to-end command tests driving cli.main with argv lists."""
import json
import os
import subprocess
import sys
from xml.dom import minidom

import pytest

import ofnring
from ofnring import (BaseFunction, OfnError, ParseError, cli, demo,
                     parse_expression, register_base)
from ofnring.cli import main
from ofnring.documents import ofn_from_doc

from helpers import unregister


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


TYPE_II_DOC = {"base": "identity", "tuple": [1, 2, 1, 0]}
PROPER_DOC = {"base": "identity", "tuple": [1, 0, -1, 2]}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_prints_document_and_sides(capsys):
    rc = main(["eval", "--expr", "trap(1,-5,-1,-3) + trap(1,5,-1,3)"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0]) == {"base": "identity",
                                    "tuple": [2.0, 0.0, -2.0, 0.0]}
    assert lines[1] == "sides: (2x, -2x)"


def test_eval_document_round_trips(capsys):
    expr = "gauss(0.25,1,-0.25,2) * crisp(4)"
    rc = main(["eval", "--expr", expr])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert ofn_from_doc(json.loads(line)) == parse_expression(expr)


def test_eval_parse_error_is_exit_2(capsys):
    assert main(["eval", "--expr", "trap(1,2)"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_unicode_digit_is_exit_2(capsys):
    # literal arguments are ASCII decimals, as in JSON documents
    assert main(["eval", "--expr", "trap(١,2,3,4)"]) == 2
    assert capsys.readouterr().err.startswith("error: unexpected character '١'")


def test_eval_mixed_bases_is_exit_3():
    assert main(["eval", "--expr", "trap(1,0,-1,2) + gauss(1,0,-1,2)"]) == 3


def test_eval_division_by_zero_is_exit_4():
    assert main(["eval", "--expr", "trap(1,0,-1,2) / crisp(0)"]) == 4


def test_eval_overflow_is_exit_4(capsys):
    assert main(["eval", "--expr", "trap(1e200,0,1,1)*trap(1e200,0,1,1)"]) == 4
    assert capsys.readouterr().err.startswith("error: overflow")


# the README's exit-code table, by error class
EXIT_CODES = {
    **dict.fromkeys(("ParseError", "DocumentError", "UnknownBaseError", "DomainError"), 2),
    "MixedTypeError": 3,
    **dict.fromkeys(("DivisionByZero", "ArithmeticOverflow", "ImproperError",
                     "WrongPathology", "DegenerateError", "DegreeCapError",
                     "RangeError", "NegativeCycle"), 4),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_ends_in_its_exit_code(monkeypatch, capsys):
    classes = [c for c in _subclasses(OfnError) if c.__module__.startswith("ofnring")]
    assert {c.__name__: c.exit_code for c in classes} == EXIT_CODES
    for cls in classes:
        def fail(text, cls=cls):
            raise cls("boom", 0) if cls is ParseError else cls("boom")
        monkeypatch.setattr(cli, "parse_expression", fail)
        assert main(["eval", "--expr", "crisp(1)"]) == EXIT_CODES[cls.__name__]
        assert capsys.readouterr().err.startswith("error: boom")


# ---------------------------------------------------------------------------
# classify / correct
# ---------------------------------------------------------------------------

def test_classify_reports_pathology(tmp_path, capsys):
    path = write_doc(tmp_path, "x.json", TYPE_II_DOC)
    assert main(["classify", "--in", path]) == 0
    # the exact line, so the order of the report's fields is pinned too
    assert capsys.readouterr().out == (
        '{"proper": false, "orientation": "decreasing", "same_sign": true, '
        '"crossing": false, "pathology": "type-ii"}\n')


def test_classify_proper_document(tmp_path, capsys):
    path = write_doc(tmp_path, "x.json", PROPER_DOC)
    assert main(["classify", "--in", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["proper"] is True
    assert rep["pathology"] == "none"


def test_correct_repairs_and_labels(tmp_path, capsys):
    path = write_doc(tmp_path, "x.json", TYPE_II_DOC)
    assert main(["correct", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"result": {"base": "identity", "tuple": [0.0, 2.0, 1.0, 0.0]},
                   "applied": "ii"}


def test_correct_leaves_proper_alone(tmp_path, capsys):
    path = write_doc(tmp_path, "x.json", PROPER_DOC)
    assert main(["correct", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["applied"] == "none"
    assert out["result"] == {"base": "identity", "tuple": [1.0, 0.0, -1.0, 2.0]}


def test_correct_overflow_in_the_collapse_is_exit_4(tmp_path, capsys):
    # combined: the collapse evaluates up(1) = 1e308 + 1e308
    path = write_doc(tmp_path, "x.json",
                     {"base": "identity", "tuple": [1e308] * 4})
    assert main(["correct", "--in", path]) == 4
    assert capsys.readouterr().err.startswith("error: overflow")


def test_classify_rejects_malformed_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--in", str(bad)]) == 2
    schema = write_doc(tmp_path, "schema.json",
                       {"base": "identity", "tuple": [1, 2, 3]})
    assert main(["classify", "--in", schema]) == 2
    assert main(["classify", "--in", str(tmp_path / "absent.json")]) == 5
    capsys.readouterr()


@pytest.mark.parametrize("command,text", [
    ("classify", '{"base": "identity", "tuple": [1, ' + "9" * 400 + ', -1, 5]}'),
    ("classify", '{"base": "identity", "tuple": [1, ' + "9" * 5000 + ', -1, 5]}'),
    ("classify", "[" * 100_000 + "]" * 100_000),
    ("eval", "(" * 2000 + "trap(1,0,-1,2)" + ")" * 2000),
], ids=["int-400-digits", "int-5000-digits", "json-nesting", "deep-parens"])
def test_oversized_and_deep_inputs_are_exit_2(tmp_path, capsys, command, text):
    if command == "eval":
        argv = ["eval", "--expr", text]
    else:
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        argv = ["classify", "--in", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_writes_full_precision_csv(tmp_path):
    doc = write_doc(tmp_path, "x.json", {"base": "sqrt", "tuple": [1, 0, -1, 2]})
    out = tmp_path / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "3", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "alpha,up,down\n"
        "0.0,0.0,2.0\n"
        "0.5,0.7071067811865476,1.2928932188134525\n"
        "1.0,1.0,1.0\n")


def test_sample_unbounded_base_emits_inf_tokens(tmp_path):
    doc = write_doc(tmp_path, "x.json",
                    {"base": "gaussian", "tuple": [1, 0, -1, 2]})
    out = tmp_path / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "5", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,up,down"
    assert lines[1] == "0.0,inf,-inf"
    # h(1) = 0 for this base, so the alpha = 1 row is the bare offsets
    assert lines[-1] == "1.0,0.0,2.0"
    doc = write_doc(tmp_path, "log.json",
                    {"base": "exponential", "tuple": [1, 0, -1, 5]})
    assert main(["sample", "--in", doc, "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "0.0,-inf,inf"
    assert all("inf" not in row for row in lines[2:])


def test_sample_overflow_is_exit_4_and_writes_no_file(tmp_path, capsys):
    # up(1) = 1e308 + 1e308 overflows on a bounded base: no CSV
    doc = write_doc(tmp_path, "x.json",
                    {"base": "identity", "tuple": [1e308] * 4})
    out = tmp_path / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: overflow")
    assert not out.exists()


def test_sample_rectangular_columns_are_constant(tmp_path):
    doc = write_doc(tmp_path, "x.json", {"base": "identity",
                                         "tuple": [0, 1, 0, 2]})
    out = tmp_path / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "4", "--out", str(out)]) == 0
    body = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(body) == 4
    assert all(row.endswith(",1.0,2.0") for row in body)


def test_sample_needs_two_points(tmp_path, capsys):
    doc = write_doc(tmp_path, "x.json", PROPER_DOC)
    out = tmp_path / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "1", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_sample_points_are_capped(tmp_path, capsys):
    # the CSV is built in memory, so an uncapped count could exhaust it
    doc = write_doc(tmp_path, "x.json", PROPER_DOC)
    out = tmp_path / "rows.csv"
    for points in (cli.MAX_POINTS + 1, 10**12):
        assert main(["sample", "--in", doc, "--points", str(points),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: points must be at most {cli.MAX_POINTS}, got {points}\n")


def test_sample_unwritable_target_is_exit_5(tmp_path, capsys):
    doc = write_doc(tmp_path, "x.json", PROPER_DOC)
    missing = tmp_path / "no" / "such" / "dir" / "rows.csv"
    assert main(["sample", "--in", doc, "--points", "3",
                 "--out", str(missing)]) == 5
    capsys.readouterr()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_writes_self_contained_svg(tmp_path):
    doc = write_doc(tmp_path, "x.json", PROPER_DOC)
    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", doc, "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 640 480"' in svg
    assert svg.count("<polyline") == 2
    assert svg.count("<polygon") >= 4
    assert "href" not in svg and "<image" not in svg
    assert svg.rstrip().endswith("</svg>")


@pytest.fixture
def markup_base():
    """A registered base whose tag and symbol hold XML markup characters."""
    tag = "cube<&>-test"
    register_base(BaseFunction(
        tag=tag, func=lambda a: a ** 3, inverse_func=lambda t: t ** (1 / 3),
        increasing=True, limit_at_zero=0.0, value_at_one=1.0, integral=0.25,
        symbol="h<&>"))
    try:
        yield tag
    finally:
        unregister(tag)


def test_plot_escapes_the_caption(tmp_path, markup_base):
    doc = write_doc(tmp_path, "x.json", {"base": markup_base, "tuple": [1, 0, -1, 2]})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", doc, "--out", str(out)]) == 0
    texts = minidom.parseString(out.read_text(encoding="utf-8")).getElementsByTagName("text")
    assert texts[-1].firstChild.data == "(h<&>, -h<&>+2) [cube<&>-test]"


def test_plot_handles_unbounded_bases(tmp_path):
    doc = write_doc(tmp_path, "x.json",
                    {"base": "gaussian", "tuple": [0.25, 1, -0.25, 2]})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", doc, "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert "inf" not in svg.lower().replace("-inf", "")
    assert svg.count("<polyline") == 2


def test_plot_of_sides_spanning_beyond_the_float_range(tmp_path, capsys):
    # the sides span [-1e308 + 1, 1e308]: wider than the largest float
    doc = write_doc(tmp_path, "x.json",
                    {"base": "identity", "tuple": [1e308, 0, -1e308, 1]})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", doc, "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 2
    # up(1) = 1e308 + 1e308 overflows: no plot
    doc = write_doc(tmp_path, "y.json",
                    {"base": "identity", "tuple": [1e308] * 4})
    assert main(["plot", "--in", doc, "--out", str(tmp_path / "y.svg")]) == 4
    assert capsys.readouterr().err.startswith("error: overflow")
    assert not (tmp_path / "y.svg").exists()


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def graph_doc(*edges, nodes=3):
    return {"nodes": nodes,
            "edges": [{"from": u, "to": v, "weight": w} for u, v, w in edges]}


def test_graph_happy_path(tmp_path, capsys):
    doc = graph_doc(
        (0, 1, {"base": "identity", "tuple": [1, 0, -1, 2]}),
        (1, 2, {"base": "identity", "tuple": [1, 1, -1, 3]}),
    )
    path = write_doc(tmp_path, "g.json", doc)
    assert main(["graph", "--edges", path, "--source", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["source"] == 0
    by_node = {row["node"]: row for row in out["nodes"]}
    assert by_node[0]["distance"]["tuple"] == [0.0, 0.0, 0.0, 0.0]
    assert by_node[0]["predecessor"] is None
    assert by_node[2]["distance"] == {"base": "identity",
                                      "tuple": [2.0, 1.0, -2.0, 5.0]}
    assert by_node[2]["predecessor"] == 1


def test_graph_unreachable_node_is_null(tmp_path, capsys):
    doc = graph_doc((0, 1, {"base": "identity", "tuple": [1, 0, -1, 2]}))
    path = write_doc(tmp_path, "g.json", doc)
    assert main(["graph", "--edges", path, "--source", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nodes"][2]["distance"] is None
    assert out["nodes"][2]["predecessor"] is None


def test_graph_error_exit_codes(tmp_path, capsys):
    mixed = graph_doc(
        (0, 1, {"base": "gaussian", "tuple": [1, 0, -1, 2]}),
        (1, 2, {"base": "exponential", "tuple": [1, 0, -1, 2]}),
    )
    assert main(["graph", "--edges", write_doc(tmp_path, "m.json", mixed),
                 "--source", "0"]) == 3

    crisp_neg = {"base": "identity", "tuple": [0, -1, 0, -1]}
    loop = graph_doc((0, 1, crisp_neg), (1, 0, crisp_neg), nodes=2)
    assert main(["graph", "--edges", write_doc(tmp_path, "l.json", loop),
                 "--source", "0"]) == 4

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2", encoding="utf-8")
    assert main(["graph", "--edges", str(bad), "--source", "0"]) == 2

    ok = write_doc(tmp_path, "ok.json",
                   graph_doc((0, 1, {"base": "identity",
                                     "tuple": [1, 0, -1, 2]})))
    assert main(["graph", "--edges", ok, "--source", "9"]) == 2
    # refused at the document, before a slot per node is allocated
    huge = write_doc(tmp_path, "huge.json", graph_doc(nodes=10**12))
    assert main(["graph", "--edges", huge, "--source", "0"]) == 2
    assert main(["graph", "--edges", str(tmp_path / "nope.json"),
                 "--source", "0"]) == 5
    # the first bad edge decides: the second mixes bases (3) before the
    # third's weight is malformed (2)
    first_bad = graph_doc((0, 1, {"base": "sqrt", "tuple": [1, 0, -1, 2]}),
                          (1, 2, {"base": "identity", "tuple": [1, 0, -1, 2]}),
                          (2, 0, "w"))
    assert main(["graph", "--edges", write_doc(tmp_path, "f.json", first_bad),
                 "--source", "0"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# demo and process-level entry
# ---------------------------------------------------------------------------

def _stub_rows(*results):
    """demo.CHECKS rows whose checks return `results` (or raise an exception)."""
    def check(result):
        if isinstance(result, Exception):
            raise result
        return result
    return tuple((str(k), f"stub row {k}", lambda r=r: check(r))
                 for k, r in enumerate(results))


# the real rows run once, in test_acceptance; these test the command's wiring
def test_demo_reports_all_checks_passing(monkeypatch, capsys):
    monkeypatch.setattr(demo, "CHECKS", _stub_rows((True, "a"), (True, "b")))
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out.count(" PASS") == 2
    assert "FAIL" not in out
    assert "2/2 checks passed" in out


def test_demo_reports_failing_and_crashing_checks(monkeypatch, capsys):
    monkeypatch.setattr(demo, "CHECKS", _stub_rows(
        (True, "a"), (False, "wrong"), RuntimeError("boom")))
    assert main(["demo"]) == 1
    out = capsys.readouterr().out
    assert out.count(" PASS") == 1
    assert out.count(" FAIL") == 2
    assert "raised RuntimeError: boom" in out
    assert "1/3 checks passed" in out


def test_module_entrypoint_runs_in_a_subprocess():
    # the child imports the same package as this test, however pytest found it
    src = os.path.dirname(os.path.dirname(ofnring.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ofnring", "eval", "--expr",
         "crisp(1) + crisp(2)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout.splitlines()[0])
    assert doc == {"base": "identity", "tuple": [0.0, 3.0, 0.0, 3.0]}


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
