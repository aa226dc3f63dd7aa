"""cli-mix: one `python -m ofnring` child process per request, one at a time.

Start-up and import dominate here.  This is the only workload that measures
the cli and svgplot layers and file output.  A minority of requests are
invalid inputs whose documented exit code is expected; two of them (ROADMAP
item 2) end in a traceback today and are counted as failed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

from ofnring import documents, expr, pathalgebra, propriety, ring, svgplot

import oracles
import ring_pipeline
import shortest_paths
from harness import Request

NAME = "cli-mix"
INPUT_SIZE = ("one child process per request; eval 2-4 literals, graph n=50/E=250, "
              "sample 41 points, plot 201 points")
TAIL_PERCENTILE = 75.0

# ROADMAP item 2: two inputs that end in a traceback today
KNOWN_FAILURES = {
    "oversized-int-overflow": "a 400-digit integer literal in a document ends in OverflowError, exit 1",
    "deep-parens-recursion": "a 2000-deep parenthesised expression ends in RecursionError, exit 1",
}
# request kind -> (known failure, the last line of its traceback starts with)
SYMPTOMS = {"oversized-int-doc": ("oversized-int-overflow", "OverflowError:"),
            "deep-parens": ("deep-parens-recursion", "RecursionError:")}
SCHEDULE = (["eval"] * 4 + ["classify"] * 2 + ["correct"] * 2 + ["graph"] * 2
            + ["sample"] * 2 + ["plot"] * 2
            + ["syntax-error", "unknown-base", "division-by-zero", "mixed-bases",
               "missing-file", "oversized-int-doc", "deep-parens"])
REQUESTS_PER_SECOND = 4.0

DEEP_PARENS = 2000
GRAPH_NODES, GRAPH_EDGES = 50, 250
SAMPLE_POINTS = 41
CHILD_TIMEOUT_S = 60.0

# documented exit codes (cli module docstring), by exception class name
_EXIT = {**dict.fromkeys(("ParseError", "DocumentError", "UnknownBaseError", "DomainError"), 2),
         **dict.fromkeys(("MixedTypeError", "FamilyMismatch"), 3),
         **dict.fromkeys(("DivisionByZero", "ImproperError", "WrongPathology", "DegenerateError",
                          "DegreeCapError", "RangeError", "NegativeCycle"), 4)}


def _library(fn, *args):
    """(exit code, value) the CLI should report for fn(*args)."""
    try:
        return 0, fn(*args)
    except Exception as e:
        return _EXIT.get(type(e).__name__, 1), None


def _random_doc(rng, base):
    return {"base": oracles.DOC_TAG[base],
            "tuple": [round(rng.uniform(-3.0, 3.0), 3) for _ in range(4)]}


def _csv(x) -> str:
    lines = ["alpha,up,down"]
    for k in range(SAMPLE_POINTS):
        alpha = k / (SAMPLE_POINTS - 1)
        lines.append(f"{alpha!r},{ring.side_eval(x, 'up', alpha)!r},"
                     f"{ring.side_eval(x, 'down', alpha)!r}")
    return "\n".join(lines) + "\n"


def _graph_rows(doc):
    g = documents.graph_from_doc(doc)
    res = pathalgebra.shortest_paths(g, 0)
    return {"source": 0, "nodes": [
        {"node": v, "distance": None if d is None else documents.ofn_to_doc(d),
         "predecessor": res.predecessors[v]} for v, d in enumerate(res.distances)]}


class CliMix:
    """The cli-mix workload; children run in `workdir` inside the checkout."""

    NAME, INPUT_SIZE = NAME, INPUT_SIZE
    TAIL_PERCENTILE, KNOWN_FAILURES, SCHEDULE = TAIL_PERCENTILE, KNOWN_FAILURES, SCHEDULE
    REQUESTS_PER_SECOND = REQUESTS_PER_SECOND

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # when set, children run through the tracing shim and leave spans here
        self.spans_dir: str | None = None
        self.child_rss_kb: list[int] = []
        os.makedirs(workdir, exist_ok=True)

    def _path(self, index, name):
        return os.path.join(self.workdir, f"{index}-{name}")

    def make_input(self, kind, rng, index):
        # bases rotate by slot, shifted each round so every kind meets every base
        base = oracles.BASE_TAGS[(index % len(SCHEDULE) + index // len(SCHEDULE)) % 4]
        files = {}
        expect_files = {}
        if kind in ("eval", "deep-parens"):
            tree = ring_pipeline.random_tree(rng, base, rng.randint(2, 4) if kind == "eval" else 1)
            text = ring_pipeline.render(tree, rng)
            code, x = _library(expr.parse_expression, text)
            if kind == "deep-parens":
                text = "(" * DEEP_PARENS + text + ")" * DEEP_PARENS
            args = ["eval", "--expr", text]
            stdout = None if x is None else (json.dumps(documents.ofn_to_doc(x)) + "\n"
                                             + f"sides: {documents.render_sides(x)}\n")
            # a nesting limit may refuse the deep input as a parse error
            codes = {code, 2} if kind == "deep-parens" else {code}
        elif kind in ("classify", "correct", "sample", "plot"):
            doc = _random_doc(rng, base)
            files["in.json"] = json.dumps(doc)
            x = documents.ofn_from_doc(doc)
            args = [kind, "--in", self._path(index, "in.json")]
            codes, stdout = {0}, ""
            if kind == "classify":
                rep = propriety.classify(x)
                stdout = json.dumps({"proper": rep.proper, "orientation": rep.orientation,
                                     "same_sign": rep.same_sign, "crossing": rep.crossing,
                                     "pathology": rep.pathology}) + "\n"
            elif kind == "correct":
                fixed, label = propriety.correct(x)
                stdout = json.dumps({"result": documents.ofn_to_doc(fixed), "applied": label}) + "\n"
            elif kind == "sample":
                args += ["--points", str(SAMPLE_POINTS), "--out", self._path(index, "out.csv")]
                expect_files["out.csv"] = _csv(x)
            else:
                args += ["--out", self._path(index, "out.svg")]
                expect_files["out.svg"] = svgplot.render_ofn_svg(x)
        elif kind == "graph":
            doc = shortest_paths.random_graph(rng, "nonneg", base, GRAPH_NODES, GRAPH_EDGES)
            files["graph.json"] = json.dumps(doc)
            args = ["graph", "--edges", self._path(index, "graph.json"), "--source", "0"]
            code, rows = _library(_graph_rows, doc)
            codes, stdout = {code}, None if rows is None else json.dumps(rows) + "\n"
        else:
            args, code = self._invalid(kind, rng, base, index, files)
            codes, stdout = {code}, ""
        props = {"kind": kind, "base": base}
        return Request(kind, {"index": index, "args": args, "files": files, "codes": codes,
                              "stdout": stdout, "expect_files": expect_files}, props)

    def _invalid(self, kind, rng, base, index, files):
        lit = ring_pipeline.random_literal
        if kind == "syntax-error":
            text, _, _ = lit(rng, base, True)
            broken = rng.choice((text.rsplit(",", 1)[0] + ")", "tri" + text[text.index("("):],
                                 "$" + text))
            return ["eval", "--expr", broken + " + " + text], 2
        if kind == "unknown-base":
            files["in.json"] = json.dumps({"base": "cubic", "tuple": [1, 0, -1, 2]})
            return ["classify", "--in", self._path(index, "in.json")], 2
        if kind == "division-by-zero":
            num = lit(rng, base, True)[0]
            return ["eval", "--expr", f"{num} / crisp({rng.uniform(1, 3):.2f})"], 4
        if kind == "mixed-bases":
            other = oracles.BASE_TAGS[(oracles.BASE_TAGS.index(base) + 1) % 4]
            return ["eval", "--expr", f"{lit(rng, base, True)[0]} + {lit(rng, other, True)[0]}"], 3
        if kind == "missing-file":
            return ["classify", "--in", self._path(index, "absent.json")], 5
        if kind == "oversized-int-doc":
            files["in.json"] = '{"base": "identity", "tuple": [1, ' + "9" * 400 + ', -1, 5]}'
            return ["classify", "--in", self._path(index, "in.json")], 2
        raise ValueError(kind)

    def execute(self, req):
        d = req.data
        for name, text in d["files"].items():
            with open(self._path(d["index"], name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "ofnring", *d["args"]]
        else:
            spans = os.path.join(self.spans_dir, f"{d['index']}.json")
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_shim.py"), spans, *d["args"]]
        out_path, err_path = self._path(d["index"], "stdout"), self._path(d["index"], "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        written = {}
        for name in d["expect_files"]:
            path = self._path(d["index"], name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    written[name] = fh.read()
        for name in os.listdir(self.workdir):
            if name.startswith(f"{d['index']}-"):
                os.remove(os.path.join(self.workdir, name))
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
                "files": written, "wall_ns": wall_ns}

    def check(self, req, out, err):
        if err is not None:
            return False
        d = req.data
        req.props["exit"] = out["code"]
        if req.kind in SYMPTOMS and out["code"] == 1 and out["stdout"] == "":
            name, last_line = SYMPTOMS[req.kind]
            lines = out["stderr"].splitlines()
            if lines and lines[0].startswith("Traceback") and lines[-1].startswith(last_line):
                return name
        if out["code"] not in d["codes"] or "Traceback" in out["stderr"]:
            return False
        if out["code"] != 0:
            return out["stdout"] == ""
        if d["stdout"] is not None and out["stdout"] != d["stdout"]:
            # compare JSON values, not formatting
            got = out["stdout"].splitlines()
            want = d["stdout"].splitlines()
            if len(got) != len(want) or json.loads(got[0]) != json.loads(want[0]) \
                    or got[1:] != want[1:]:
                return False
        return out["files"] == d["expect_files"]

    def corrupt(self, req, out):
        if out["code"] != 0:
            return dict(out, code=out["code"] + 10)
        if req.data["expect_files"]:
            return dict(out, files={k: v + "x" for k, v in out["files"].items()})
        return dict(out, stdout=out["stdout"].replace("0", "7", 1) + "\n")
