"""Command-line surface.

Commands: eval, classify, correct, sample, plot, graph, demo.  All structured
output is JSON on stdout (plus a human side-function rendering for eval);
sample and plot write files.  Exit codes: 0 ok, 2 parse/validation, 3 mixed
types, 4 math (division by zero, overflow, improper inputs, wrong pathology),
5 I/O; an OfnError carries its code as `exit_code`.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .documents import load_graph, load_ofn, ofn_to_doc, render_sides
from .errors import DomainError, OfnError
from .expr import parse_expression
from .pathalgebra import shortest_paths
from .propriety import classify, correct
from .ring import TypedOfn, sampled_sides

EXIT_OK = 0
EXIT_IO = 5
MAX_POINTS = 10**5  # sample builds its whole CSV in memory before writing it


def _cmd_eval(args: argparse.Namespace) -> int:
    result = parse_expression(args.expr)
    print(json.dumps(ofn_to_doc(result)))
    print(f"sides: {render_sides(result)}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(load_ofn(args.infile))
    print(json.dumps({name: getattr(report, name) for name in report._fields}))
    return EXIT_OK


def _cmd_correct(args: argparse.Namespace) -> int:
    x = load_ofn(args.infile)
    fixed, label = correct(x)
    print(json.dumps({"result": ofn_to_doc(fixed), "applied": label}))
    return EXIT_OK


def _csv_rows(x: TypedOfn, points: int) -> str:
    if points < 2:
        raise DomainError(f"points must be at least 2, got {points}")
    if points > MAX_POINTS:
        raise DomainError(f"points must be at most {MAX_POINTS}, got {points}")
    lines = ["alpha,up,down"]
    for k in range(points):
        alpha = k / (points - 1)
        u, d = sampled_sides(x, alpha)
        lines.append(f"{alpha!r},{u!r},{d!r}")
    return "\n".join(lines) + "\n"


def _cmd_sample(args: argparse.Namespace) -> int:
    x = load_ofn(args.infile)
    text = _csv_rows(x, args.points)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svgplot import render_ofn_svg  # only plot draws
    x = load_ofn(args.infile)
    svg = render_ofn_svg(x)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    g = load_graph(args.edges)
    res = shortest_paths(g, args.source)
    rows = []
    for node in range(g.nodes):
        d = res.distances[node]
        rows.append({
            "node": node,
            "distance": None if d is None else ofn_to_doc(d),
            "predecessor": res.predecessors[node],
        })
    print(json.dumps({"source": res.source, "nodes": rows}))
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    from .demo import run_demo  # the oracles it loads serve no other command
    return run_demo()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofnring",
        description="Commutative-ring arithmetic on typed ordered fuzzy numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an infix OFN expression")
    p.add_argument("--expr", required=True,
                   help="e.g. 'trap(1,-5,-1,-3) + trap(1,5,-1,3)'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="propriety report for an OFN document")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("correct", help="repair an improper OFN document")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("sample", help="write alpha,up,down CSV samples")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("plot", help="write a self-contained SVG of both sides")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("graph", help="fuzzy shortest paths from a source node")
    p.add_argument("--edges", required=True, metavar="FILE")
    p.add_argument("--source", type=int, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("demo", help="re-derive the worked examples and report")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OfnError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
