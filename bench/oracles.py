"""The benchmark's own arithmetic, written from the definitions.

Output checks compare the library against these functions, so none of them
calls into ofnring.  A tuple is (up_slope, up_offset, down_slope,
down_offset); a side is slope * h(alpha) + offset.
"""
from __future__ import annotations

import math

# registry tag -> (h, increasing, h at alpha = 1, integral of h over [0, 1])
BASES = {
    "identity": (lambda a: a, True, 1.0, 0.5),
    "sqrt": (math.sqrt, True, 1.0, 2.0 / 3.0),
    "gaussian-inverse": (lambda a: math.sqrt(-2.0 * math.log(a)), False, 0.0,
                         math.sqrt(math.pi / 2.0)),
    "log": (math.log, True, 0.0, -1.0),
}
BASE_TAGS = tuple(BASES)
DOC_TAG = {"identity": "identity", "sqrt": "sqrt",
           "gaussian-inverse": "gaussian", "log": "exponential"}
BASE_OF_DOC = {v: k for k, v in DOC_TAG.items()}
LITERAL = {"identity": "trap", "sqrt": "sqrtb",
           "gaussian-inverse": "gauss", "log": "expo"}

# alpha grid for sampled checks; unbounded bases are sampled from 1e-9 up
_ALPHAS = [1e-9, 1e-6, 1e-3] + [k / 64 for k in range(1, 65)]


def h(base: str, alpha: float) -> float:
    return BASES[base][0](alpha)


def side(base: str, slope: float, offset: float, alpha: float) -> float:
    if slope == 0.0:
        return offset
    return slope * h(base, alpha) + offset


def rank(base: str, t) -> float:
    return 0.5 * (t[0] + t[2]) * BASES[base][3] + 0.5 * (t[1] + t[3])


def is_rectangular(t) -> bool:
    return t[0] == 0.0 and t[2] == 0.0


def combine_base(xb: str, xt, yb: str, yt) -> str:
    """Result base of a ring operation: rectangular operands adopt the other's base."""
    if xb == yb:
        return xb
    if is_rectangular(xt):
        return yb
    if is_rectangular(yt):
        return xb
    raise ValueError(f"mixed bases {xb} and {yb}")


OPS = {"+": lambda p, q: p + q, "-": lambda p, q: p - q,
       "*": lambda p, q: p * q, "/": lambda p, q: p / q}


def componentwise(op: str, x, y) -> tuple:
    f = OPS[op]
    return tuple(f(p, q) for p, q in zip(x, y))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def proper_by_sampling(base: str, t, rel: float = 1e-9) -> bool:
    """Level sets nest and the sides never cross, on a fixed alpha grid.

    This is the definition of a proper (or degenerate) number read off
    samples, with a relative tolerance for rounding.
    """
    ups = [side(base, t[0], t[1], a) for a in _ALPHAS]
    downs = [side(base, t[2], t[3], a) for a in _ALPHAS]
    scale = 1.0 + max(abs(v) for v in ups + downs)
    tol = rel * scale
    gaps = [d - u for u, d in zip(ups, downs)]
    if min(gaps) < -tol and max(gaps) > tol:
        return False
    lows = [min(u, d) for u, d in zip(ups, downs)]
    highs = [max(u, d) for u, d in zip(ups, downs)]
    for k in range(1, len(_ALPHAS)):
        if lows[k] < lows[k - 1] - tol or highs[k] > highs[k - 1] + tol:
            return False
    return True


def poly_eval(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_mul(p, q) -> list:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_combine(op: str, p, q) -> list:
    if op == "*":
        return poly_mul(p, q)
    n = max(len(p), len(q))
    p = list(p) + [0.0] * (n - len(p))
    q = list(q) + [0.0] * (n - len(q))
    return [OPS[op](a, b) for a, b in zip(p, q)]


def trimmed(p) -> list:
    p = list(p)
    while len(p) > 1 and p[-1] == 0.0:
        p.pop()
    return p


def affine_pair_verdict(up, down, tol: float):
    """Propriety of an identity-base side pair given as (slope, offset).

    Returns True/False, or None when a deciding quantity lies within `tol`
    of zero and rounding could tip the verdict either way.
    """
    su, ou = up
    sd, od = down
    if any(0.0 < abs(v) < tol for v in (su, sd)):
        return None
    if abs(ou - od) > tol:
        up_below = ou < od
    elif abs((su + ou) - (sd + od)) > tol:
        up_below = su + ou < sd + od
    else:
        return None
    if up_below:
        ok = su >= 0.0 and sd <= 0.0
        gap_end = (sd + od) - (su + ou)
    else:
        ok = su <= 0.0 and sd >= 0.0
        gap_end = (su + ou) - (sd + od)
    if not ok:
        return False
    if abs(gap_end) <= tol:
        return None
    return gap_end > 0.0
