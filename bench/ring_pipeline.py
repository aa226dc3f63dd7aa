"""ring-pipeline: one expression text per request, through the whole library path.

parse_expression -> classify -> correct -> membership -> membership_eval at
five points -> rank -> ofn_to_doc -> ofn_from_doc.  No numpy and no graph:
this is the per-number cost of the library.
"""
from __future__ import annotations

from ofnring import documents, errors, expr, pathalgebra, propriety, ring

import oracles
from harness import Request

NAME = "ring-pipeline"
INPUT_SIZE = "2-4 literals per expression, one base per request (both in rotation)"
# p99.9 (about 80 samples beyond it) moved between 1.6 and 4.5 ms from run
# to run with scheduler noise; p99 has about 800 samples beyond it
TAIL_PERCENTILE = 99.0

KNOWN_FAILURES = {
    # found by this benchmark: classify tests down - up in difference form,
    # membership compares the two side values, and rounding can split them
    "membership-rejects-proper-at-tie": "membership raises ImproperError on a number classify "
                                        "calls proper, when up(1) and down(1) tie up to rounding",
}
SCHEDULE = ["expression"]
REQUESTS_PER_SECOND = 2400

# membership is evaluated at side values taken at these points
MEMBERSHIP_POINTS = (("up", 0.25), ("up", 0.75), ("down", 0.5), ("up", 1.0), ("down", 1.0))


def _number(rng) -> str:
    return f"{rng.uniform(-4.0, 4.0):.2f}"


def random_literal(rng, base: str, typed: bool):
    """(text, base, tuple) of one literal; untyped literals are crisp/rect."""
    if typed:
        args = [_number(rng) for _ in range(4)]
        text = f"{oracles.LITERAL[base]}({','.join(args)})"
        return text, base, tuple(float(a) for a in args)
    if rng.random() < 0.5:
        v = _number(rng)
        return f"crisp({v})", "identity", (0.0, float(v), 0.0, float(v))
    a, b = _number(rng), _number(rng)
    return f"rect({a},{b})", "identity", (0.0, float(a), 0.0, float(b))


def random_tree(rng, base: str, literals: int):
    """A random expression tree; the first literal is always typed."""
    leaves = [random_literal(rng, base, i == 0 or rng.random() < 0.75)
              for i in range(literals)]
    rng.shuffle(leaves)
    nodes = [("lit",) + leaf for leaf in leaves]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choices("+-*/", weights=(35, 25, 30, 10))[0]
        nodes[i:i + 2] = [(op, nodes[i], nodes[i + 1])]
    return nodes[0]


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def render(node, rng) -> str:
    if node[0] == "lit":
        return node[1]
    op, left, right = node
    lt, rt = render(left, rng), render(right, rng)
    if left[0] != "lit" and (_PREC[left[0]] < _PREC[op] or rng.random() < 0.15):
        lt = f"({lt})"
    if right[0] != "lit" and (_PREC[right[0]] <= _PREC[op] or rng.random() < 0.15):
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def evaluate(node):
    """(base, tuple) by componentwise float arithmetic, or None on a zero divisor."""
    if node[0] == "lit":
        return node[2], node[3]
    op, left, right = node
    a, b = evaluate(left), evaluate(right)
    if a is None or b is None:
        return None
    if op == "/" and any(c == 0.0 for c in b[1]):
        return None
    return oracles.combine_base(a[0], a[1], b[0], b[1]), oracles.componentwise(op, a[1], b[1])


def make_input(kind, rng, index):
    base = oracles.BASE_TAGS[index % 4]
    # bases and literal counts cycle through all 12 pairs; the seed picks the rest
    tree = random_tree(rng, base, 2 + (index // 4) % 3)
    return Request(kind, (render(tree, rng), evaluate(tree)), {"base": base})


def execute(req):
    x = expr.parse_expression(req.data[0])
    rep = propriety.classify(x)
    fixed, label = propriety.correct(x)
    try:
        m = propriety.membership(fixed)
    except errors.ImproperError as e:
        return {"x": x, "proper": rep.proper, "fixed": fixed, "label": label,
                "membership_error": e}
    values = [ring.side_eval(fixed, s, a) for s, a in MEMBERSHIP_POINTS]
    levels = [propriety.membership_eval(m, v) for v in values]
    r = pathalgebra.rank(fixed)
    back = documents.ofn_from_doc(documents.ofn_to_doc(fixed))
    return {"x": x, "proper": rep.proper, "fixed": fixed, "label": label,
            "values": values, "levels": levels, "rank": r, "back": back}


def _membership_ok(base, t, values, levels) -> bool:
    core = sorted((oracles.side(base, t[0], t[1], 1.0), oracles.side(base, t[2], t[3], 1.0)))
    for (which, alpha), v, got in zip(MEMBERSHIP_POINTS, values, levels):
        slope, offset = (t[0], t[1]) if which == "up" else (t[2], t[3])
        if not oracles.close(v, oracles.side(base, slope, offset, alpha), 1e-12):
            return False
        if not 0.0 <= got <= 1.0:
            return False
        tol = 1e-8 * (1.0 + abs(v))
        if core[0] - tol <= v <= core[1] + tol:
            if abs(got - 1.0) > 1e-6 and abs(v - oracles.side(base, slope, offset, 1.0)) > tol:
                return False
        elif abs(got - alpha) > 1e-6:
            return False
    return True


def check(req, out, err):
    want = req.data[1]
    if err is not None:
        # only a zero divisor component may raise, as DivisionByZero
        return want is None and type(err).__name__ == "DivisionByZero"
    if want is None:
        return False
    base, tup = want
    x, fixed = out["x"], out["fixed"]
    if x.base != base or x.coeffs.as_tuple() != tup:
        return False
    req.props["repair"] = out["label"]
    ft = fixed.coeffs.as_tuple()
    if out["label"] == "none" and (ft != tup or not out["proper"]):
        return False
    if fixed.base != base or not oracles.proper_by_sampling(base, ft):
        return False
    if "membership_error" in out:
        u1, d1 = oracles.side(base, ft[0], ft[1], 1.0), oracles.side(base, ft[2], ft[3], 1.0)
        tie = oracles.close(u1, d1, 1e-12)
        return "membership-rejects-proper-at-tie" if tie else False
    if not _membership_ok(base, ft, out["values"], out["levels"]):
        return False
    if not oracles.close(out["rank"], oracles.rank(base, ft), 1e-12):
        return False
    back = out["back"]
    return back.base == fixed.base and back.coeffs.as_tuple() == ft


def corrupt(req, out):
    x = out["x"]
    t = x.coeffs.as_tuple()
    bad = ring.typed(x.base, t[0], t[1] + 0.5, t[2], t[3])
    return dict(out, x=bad)
