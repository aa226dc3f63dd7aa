"""The input boundary: OFN documents and expression text that must be refused."""
import pytest

from ofnring import DocumentError, ParseError, crisp, parse_expression
from ofnring.documents import MAX_NODES, graph_from_doc, ofn_from_doc
from ofnring.expr import MAX_DEPTH


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
