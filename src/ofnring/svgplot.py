"""Self-contained SVG rendering of an OFN's two side curves.

Output is a single 640x480 document with inline styles only: the up and down
sides as polylines over alpha in [0, 1], plus small arrowheads showing the
traversal direction (up side toward alpha = 1, down side back toward 0).
Unbounded side values are clipped by starting the alpha range just above 0.
"""
from __future__ import annotations

import math

from .bases import get_base
from .documents import render_sides
from .ring import TypedOfn, sampled_sides

WIDTH, HEIGHT = 640, 480
MARGIN = 48
SAMPLES = 201
_UP_COLOUR = "#2a6fb0"
_DOWN_COLOUR = "#c23b22"
_AXIS_STYLE = "stroke:#888888;stroke-width:1"
_TEXT_STYLE = "font-family:monospace;font-size:12px;fill:#333333"


def _samples(x: TypedOfn) -> list[tuple[float, float, float]]:
    start = 0.004 if get_base(x.base).unbounded else 0.0
    out = []
    for k in range(SAMPLES):
        alpha = start + (1.0 - start) * k / (SAMPLES - 1)
        u, d = sampled_sides(x, alpha)
        out.append((alpha, u, d))
    return out


def _arrow(px: float, py: float, angle: float, colour: str) -> str:
    size = 7.0
    left = angle + 2.6
    right = angle - 2.6
    pts = (f"{px:.2f},{py:.2f} "
           f"{px + size * math.cos(left):.2f},{py + size * math.sin(left):.2f} "
           f"{px + size * math.cos(right):.2f},{py + size * math.sin(right):.2f}")
    return f'<polygon points="{pts}" style="fill:{colour}" />'


def render_ofn_svg(x: TypedOfn) -> str:
    rows = _samples(x)
    values = [v for _, u, d in rows for v in (u, d)]
    vlo = min(values)
    # half the value range: the halves of two finite floats differ by a
    # finite amount, where vhi - vlo may overflow
    half = 0.5 * max(values) - 0.5 * vlo
    if half < 0.5e-9:
        vlo, half = vlo - 1.0, half + 1.0

    def to_px(alpha: float, v: float) -> tuple[float, float]:
        px = MARGIN + alpha * (WIDTH - 2 * MARGIN)
        # 5% padding below and above the range
        frac = ((0.5 * v - 0.5 * vlo) / half + 0.05) / 1.1
        py = HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)
        return px, py

    def polyline(which: int, colour: str) -> str:
        pts = " ".join(f"{px:.2f},{py:.2f}"
                       for px, py in (to_px(r[0], r[which]) for r in rows))
        return f'<polyline points="{pts}" style="fill:none;stroke:{colour};stroke-width:2" />'

    def arrow_at(which: int, frac: float, forward: bool, colour: str) -> str:
        k = int(frac * (len(rows) - 1))
        k = min(max(k, 1), len(rows) - 2)
        x1, y1 = to_px(rows[k - 1][0], rows[k - 1][which])
        x2, y2 = to_px(rows[k + 1][0], rows[k + 1][which])
        if not forward:
            x1, y1, x2, y2 = x2, y2, x1, y1
        px, py = to_px(rows[k][0], rows[k][which])
        return _arrow(px, py, math.atan2(y2 - y1, x2 - x1), colour)

    caption = f"{render_sides(x)} [{x.base}]"  # a registered base may write &, < or >
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" style="fill:#ffffff" />',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" style="{_AXIS_STYLE}" />',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" style="{_AXIS_STYLE}" />',
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" '
        f'style="{_TEXT_STYLE}" text-anchor="end">alpha</text>',
        f'<text x="{MARGIN}" y="{MARGIN - 8}" style="{_TEXT_STYLE}">value</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - 12}" style="{_TEXT_STYLE}">'
        f'{caption.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")}</text>',
        polyline(1, _UP_COLOUR),
        polyline(2, _DOWN_COLOUR),
        arrow_at(1, 0.35, True, _UP_COLOUR),
        arrow_at(1, 0.70, True, _UP_COLOUR),
        arrow_at(2, 0.35, False, _DOWN_COLOUR),
        arrow_at(2, 0.70, False, _DOWN_COLOUR),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
