"""oracle-audit: ring results re-derived by the three rival arithmetics.

Each request receives 2-3 proper identity trapezoids as OFN documents and a
chain of + - * operations.  The ring combines them; Kosinski's function pairs
re-derive the sides, test propriety and invert a membership; Piasecki's
revised corners combine the first pair and check closure; the classical L-R
numbers add the first pair by level sets.  A fixed minority of requests also
runs the extension-principle Zadeh grid at its default size.  The ring is
noise here: root isolation sets the median and the numpy grid the tail.
"""
from __future__ import annotations

import numpy as np
from ofnring import classical, documents, kosinski, piasecki, ring

import oracles
from harness import Request

NAME = "oracle-audit"
INPUT_SIZE = ("2-3 identity trapezoids per request, in a fixed mix of sum and product "
              "chains; Zadeh grid 2001 x 2001 on 5 requests in 49")
TAIL_PERCENTILE = 99.0

KNOWN_FAILURES: dict = {}
# kind -> the operations of its chain, "?" being + or - at random; the round
# fixes how many requests have each shape, the seed only their numbers
SHAPES = {"zadeh": "?", "product-2": "*", "product-3": "*?",
          "product-3x2": "**", "sum-2": "?", "sum-3": "??"}
SCHEDULE = (["zadeh"] * 5 + ["product-2"] * 12 + ["product-3"] * 12
            + ["product-3x2"] * 6 + ["sum-2"] * 7 + ["sum-3"] * 7)
REQUESTS_PER_SECOND = 115

PROBE_ALPHA = 0.5
_RING_OP = {"+": "add", "-": "sub", "*": "mul"}


def random_trapezoid(rng) -> list:
    """Tuple of a proper identity trapezoid with corners in [-3, 3].

    Corners are multiples of 1/256, so slopes and side values are exact and
    the tuple is proper in exact arithmetic, not only up to rounding.
    """
    a, b, c, d = sorted(round(rng.uniform(-3.0, 3.0) * 256) / 256 for _ in range(4))
    if rng.random() < 0.5:
        return [b - a, a, c - d, d]  # increasing: up rises a -> b, down falls d -> c
    return [c - d, d, b - a, a]


def make_input(kind, rng, index):
    ops = [rng.choice("+-") if op == "?" else op for op in SHAPES[kind]]
    rng.shuffle(ops)
    k = len(ops) + 1
    docs = [{"base": "identity", "tuple": random_trapezoid(rng)} for _ in range(k)]
    degree = 1 + ops.count("*")
    return Request(kind, (docs, ops), {"kind": kind, "degree": degree, "operands": k})


def execute(req):
    docs, ops = req.data
    xs = [documents.ofn_from_doc(d) for d in docs]
    r = xs[0]
    for op, x in zip(ops, xs[1:]):
        r = getattr(ring, _RING_OP[op])(r, x)
    ks = [kosinski.PiecewisePolyOfn.from_typed(x) for x in xs]
    kr = ks[0]
    for op, k in zip(ops, ks[1:]):
        kr = kosinski.k_op(op, kr, k)
    verdict = kosinski.k_is_proper(kr)
    probe = kr.up.eval(PROBE_ALPHA)
    level = kosinski.corresponding_membership(kr, probe)
    pr = piasecki.p_op(ops[0], xs[0], xs[1])
    closed = piasecki.p_closure_check(pr)
    lx = [classical.from_typed_trapezoid(x) for x in xs[:2]]
    lsum = classical.levelset_add(lx[0], lx[1])
    grid = classical.zadeh_add_grid(lx[0], lx[1]) if req.kind == "zadeh" else None
    return {"ring": r, "kosinski": kr, "proper": verdict.proper, "probe": probe,
            "level": level, "piasecki": pr, "closed": closed, "lr": lx,
            "lsum": lsum, "grid": grid}


def _side_at(pp, t: float) -> float:
    for lo, hi, c in zip(pp.breaks, pp.breaks[1:], pp.coeffs):
        if lo <= t <= hi:
            return oracles.poly_eval(c, t)
    raise ValueError(t)


def _kosinski_ok(tuples, ops, out) -> bool:
    kr = out["kosinski"]
    # the function pair the benchmark expects: pointwise combination of sides
    up, down = [tuples[0][1], tuples[0][0]], [tuples[0][3], tuples[0][2]]
    for op, t in zip(ops, tuples[1:]):
        up = oracles.poly_combine(op, up, [t[1], t[0]])
        down = oracles.poly_combine(op, down, [t[3], t[2]])
    for got, want in ((kr.up, up), (kr.down, down)):
        if got.breaks != (0.0, 1.0):
            return False
        c = list(got.coeffs[0])
        if "*" not in ops:
            # the README bridge: Kosinski sums are exactly the ring sums
            if c != oracles.trimmed(want):
                return False
        else:
            want = oracles.trimmed(want)
            c = c + [0.0] * (len(want) - len(c))
            if len(c) != len(want) or not all(oracles.close(a, b, 1e-12) for a, b in zip(c, want)):
                return False
    if "*" not in ops:
        rt = out["ring"].coeffs.as_tuple()
        verdict = oracles.affine_pair_verdict((rt[0], rt[1]), (rt[2], rt[3]), 1e-9)
        if verdict is not None and verdict != out["proper"]:
            return False
    # the largest alpha at which a side attains the probe value is >= PROBE_ALPHA
    level, probe = out["level"], out["probe"]
    if not PROBE_ALPHA - 1e-9 <= level <= 1.0:
        return False
    if not oracles.close(probe, oracles.poly_eval(up, PROBE_ALPHA), 1e-12):
        return False
    tol = 1e-7 * (1.0 + abs(probe))
    if level < 1.0:
        return (abs(_side_at(kr.up, level) - probe) <= tol
                or abs(_side_at(kr.down, level) - probe) <= tol)
    u1, d1 = _side_at(kr.up, 1.0), _side_at(kr.down, 1.0)
    return min(u1, d1) - tol <= probe <= max(u1, d1) + tol


def _piasecki_ok(tuples, ops, out) -> bool:
    def corners(t):
        return t[1], t[0] + t[1], t[2] + t[3], t[3]
    op = oracles.OPS[ops[0]]
    aa, bb, cc, dd = (op(p, q) + 0.0 for p, q in zip(corners(tuples[0]), corners(tuples[1])))
    if bb < cc or (bb == cc and aa <= dd):
        want = (min(aa, bb), bb, cc, max(dd, cc))
    else:
        want = (max(aa, bb), bb, cc, min(dd, cc))
    pr = out["piasecki"]
    c = pr.corners
    if (c.a, c.b, c.c, c.d) != want:
        return False
    if ops[0] == "*" and "product-form" in (pr.up_rule, pr.down_rule):
        return True  # quadratic sides: corners checked, verdict not re-derived
    # affine sides, stored as (offset[, slope])
    up, down = ((c[1] if len(c) > 1 else 0.0, c[0])
                for c in (pr.up_fn.coeffs[0], pr.down_fn.coeffs[0]))
    verdict = oracles.affine_pair_verdict(up, down, 1e-9)
    return verdict is None or verdict == out["closed"]


def _sum_membership(corners, zs):
    """Exact membership of the linear L-R number with these corners."""
    slo, clo, chi, shi = corners
    out = np.zeros_like(zs)
    out[(zs >= clo) & (zs <= chi)] = 1.0
    if clo > slo:
        left = (zs >= slo) & (zs < clo)
        out[left] = (zs[left] - slo) / (clo - slo)
    if shi > chi:
        right = (zs > chi) & (zs <= shi)
        out[right] = (shi - zs[right]) / (shi - chi)
    return out


def _corners(n) -> tuple:
    return (n.support_lo, n.core_lo, n.core_hi, n.support_hi)


def _classical_ok(tuples, out) -> bool:
    for t, lr in zip(tuples, out["lr"]):
        lo0, hi0 = sorted((t[1], t[3]))
        lo1, hi1 = sorted((t[0] + t[1], t[2] + t[3]))
        if _corners(lr) != (lo0, lo1, hi1, hi0):
            return False
    x, y = (_corners(n) for n in out["lr"])
    want = tuple(p + q for p, q in zip(x, y))
    if _corners(out["lsum"]) != want:
        return False
    if out["grid"] is None:
        return True
    # The sampled sup-min never exceeds the exact membership of the level-set
    # sum, and falls short of it by at most the flank slope times half a step.
    zs, levels = out["grid"]
    eps = 1e-9 * (1.0 + abs(want[0]) + abs(want[3]))
    upper = np.maximum.reduce([_sum_membership(want, zs + d) for d in (-eps, 0.0, eps)])
    if np.any(levels > upper + 1e-5):
        return False
    spreads = (x[1] - x[0], x[3] - x[2], y[1] - y[0], y[3] - y[2])
    dt = (x[3] - x[0]) / (len(zs) - 1)
    if min(spreads) > 0.0:
        slack = dt / 2.0 / min(spreads) + 1e-6
        if slack < 0.5 and np.any(levels < _sum_membership(want, zs) - slack):
            return False
    return True


def check(req, out, err):
    if err is not None:
        return False
    docs, ops = req.data
    tuples = [d["tuple"] for d in docs]
    want = tuple(tuples[0])
    for op, t in zip(ops, tuples[1:]):
        want = oracles.componentwise(op, want, t)
    if out["ring"].base != "identity" or out["ring"].coeffs.as_tuple() != want:
        return False
    req.props["closure"] = "closed" if out["closed"] else "escaped"
    return (_kosinski_ok(tuples, ops, out) and _piasecki_ok(tuples, ops, out)
            and _classical_ok(tuples, out))


def corrupt(req, out):
    lsum = out["lsum"]
    shifted = classical.LRFuzzyNumber(lsum.support_lo - 1.0, lsum.core_lo,
                                      lsum.core_hi, lsum.support_hi)
    return dict(out, lsum=shifted)
