"""Arc diagrams as SVG and Hasse diagrams as DOT.

Both renderers are pure functions of their input with fixed layout
constants, so identical inputs give identical bytes; golden-file tests
rely on that.  Arcs pass above the points of their left set and below the
points of their right set.  In circle mode the integers spiral outward
from the residue circle, which is how a wrapped arc avoids itself.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import PreconditionViolated
from .sn import Arc, _arc_key, arcs_cross
from .tito import WrappedArc, _check_span, wrapped_cross

if TYPE_CHECKING:  # the lab loads numpy; drawing arcs needs neither
    from .lattices import FinitePoset

PITCH = 48.0
BASELINE = 120.0
BUMP = 26.0
MARGIN = 36.0
DOT = 3.5
CIRCLE_R = 70.0
SPIRAL = 34.0
CIRCLE_BUMP = 11.0

LINE = "line"
CIRCLE = "circle"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _any_crossing(arcs: Sequence[Arc | WrappedArc], n: int | None) -> bool:
    for i, x in enumerate(arcs):
        for y in arcs[i + 1 :]:
            if isinstance(x, Arc) and isinstance(y, Arc):
                if arcs_cross(x, y):
                    return True
            elif n is not None and isinstance(x, WrappedArc) and isinstance(y, WrappedArc):
                if wrapped_cross(x, y, n):
                    return True
    return False


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _s_curve(points: Sequence[tuple[float, float]]) -> str:
    # Horizontal-tangent cubics between consecutive waypoints.
    (x0, y0), *rest = points
    parts = [f"M {_fmt(x0)} {_fmt(y0)}"]
    px, py = x0, y0
    for x, y in rest:
        mx = (px + x) / 2
        parts.append(f"C {_fmt(mx)} {_fmt(py)} {_fmt(mx)} {_fmt(y)} {_fmt(x)} {_fmt(y)}")
        px, py = x, y
    return " ".join(parts)


def _render_line(arcs: list[Arc | WrappedArc], n: int | None) -> str:
    if n is None and not arcs:
        raise PreconditionViolated("empty arc set needs an explicit n")
    lo = min([1 if n is not None else arcs[0].a] + [x.a for x in arcs])
    hi = max([n if n is not None else arcs[0].b] + [x.b for x in arcs])
    _check_span("drawing", hi - lo)

    def px(v: int) -> float:
        return MARGIN + (v - lo) * PITCH

    body = []
    if _any_crossing(arcs, n):
        body.append(
            f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN / 2)}" '
            f'font-size="12" fill="#b00">crossing arcs</text>'
        )
    for x in arcs:
        waypoints = [(px(x.a), BASELINE)]
        for c in range(x.a + 1, x.b):
            if c in x.left:
                waypoints.append((px(c), BASELINE - BUMP))
            elif c in x.right:
                waypoints.append((px(c), BASELINE + BUMP))
        waypoints.append((px(x.b), BASELINE))
        body.append(
            f'<path d="{_s_curve(waypoints)}" fill="none" stroke="#000" stroke-width="1.5"/>'
        )
    for v in range(lo, hi + 1):
        body.append(
            f'<circle cx="{_fmt(px(v))}" cy="{_fmt(BASELINE)}" r="{_fmt(DOT)}" fill="#000"/>'
        )
        body.append(
            f'<text x="{_fmt(px(v))}" y="{_fmt(BASELINE + 22)}" font-size="12" '
            f'text-anchor="middle">{v}</text>'
        )
    return _svg(2 * MARGIN + (hi - lo) * PITCH, 2 * BASELINE, body)


def _render_circle(arcs: list[Arc | WrappedArc], n: int | None) -> str:
    if n is None:
        raise PreconditionViolated("circle mode needs n")
    span = max([n] + [x.b - x.a for x in arcs])
    _check_span("drawing", span)
    outer = CIRCLE_R + SPIRAL * span / n + CIRCLE_BUMP
    cx = cy = outer + MARGIN

    def angle(v: float) -> float:
        # residue 1 at the top, residues clockwise, continuous in v
        return math.radians(-90.0 + (v - 1) * 360.0 / n)

    def at(v: float, r: float) -> tuple[float, float]:
        return cx + r * math.cos(angle(v)), cy + r * math.sin(angle(v))

    body = []
    if _any_crossing(arcs, n):
        body.append(
            f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN / 2)}" '
            f'font-size="12" fill="#b00">crossing arcs</text>'
        )
    for x in arcs:
        def radius(v: float) -> float:
            r = CIRCLE_R + SPIRAL * (v - x.a) / n
            if v == int(v):
                c = int(v)
                if c in x.left:
                    r += CIRCLE_BUMP
                elif c in x.right:
                    r -= CIRCLE_BUMP
            return r

        steps = [x.a + k / 2 for k in range(2 * (x.b - x.a) + 1)]
        points = [at(v, radius(v)) for v in steps]
        d = "M " + " L ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in points)
        body.append(f'<path d="{d}" fill="none" stroke="#000" stroke-width="1.5"/>')
    body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(DOT)}" fill="#000"/>')
    for r in range(1, n + 1):
        dx, dy = at(r, CIRCLE_R)
        lx, ly = at(r, CIRCLE_R - 20)
        body.append(f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" r="{_fmt(DOT)}" fill="#000"/>')
        body.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly + 4)}" font-size="12" '
            f'text-anchor="middle">{r}</text>'
        )
    return _svg(2 * (outer + MARGIN), 2 * (outer + MARGIN), body)


def render_arcs(
    arcs: Iterable[Arc | WrappedArc], mode: str = LINE, n: int | None = None
) -> str:
    """Deterministic SVG arc diagram.

    ``line`` puts the integers at a fixed pitch on a horizontal baseline;
    ``circle`` puts the n residues clockwise on a circle around a center
    dot and lets translates spiral outward.  Crossing inputs are legal but
    annotated.  A drawing may span at most tito.MAX_SPAN values.
    """
    items = sorted(arcs, key=_arc_key)
    if mode == LINE:
        return _render_line(items, n)
    if mode == CIRCLE:
        return _render_circle(items, n)
    raise PreconditionViolated(f"unknown mode {mode!r}")


def render_hasse(p: FinitePoset) -> str:
    """Hasse diagram in DOT: cover edges upward, rank = longest chain from
    a minimal element, so equal-depth elements share a row."""
    cov = p.covers
    size = len(p)
    depth = [0] * size
    order = sorted(range(size), key=lambda i: int(p.leq[i].sum()), reverse=True)
    for i in order:  # below[i] done before i: scan by decreasing up-set
        for j in range(size):
            if cov[i, j]:
                depth[j] = max(depth[j], depth[i] + 1)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for level in range(max(depth, default=0) + 1):
        row = [i for i in range(size) if depth[i] == level]
        names = " ".join(f'"{p.elements[i]}";' for i in row)
        lines.append(f"  {{ rank=same; {names} }}")
    for i, j in sorted(zip(*cov.nonzero()), key=lambda t: (int(t[0]), int(t[1]))):
        lines.append(f'  "{p.elements[i]}" -> "{p.elements[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
