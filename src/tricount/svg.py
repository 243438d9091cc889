"""Deterministic SVG rendering of point sets, structures and paths.

Output is plain text assembled in a fixed order from exact rational
coordinates, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geom import Point, Segment


def _fmt(v: Fraction) -> str:
    s = f"{float(v):.4f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def render_svg(points: Sequence[Point],
               structure_edges: Iterable[Segment] = (),
               path_vertices: Sequence[int] = (),
               line_index: Optional[int] = None) -> str:
    """Render to an SVG string; y grows upward (flipped from SVG space).

    points are in lexicographic order (PointSet.points), so l_i runs
    between points i-1 and i; structure_edges are distinct (a < b) pairs,
    drawn in sorted order."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(-y) for _, y in points]  # flip so larger y is higher
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = maxx - minx or Fraction(1)
    h = maxy - miny or Fraction(1)
    mx, my = w / 20, h / 20  # 5% margin
    vb = (minx - mx, miny - my, w + 2 * mx, h + 2 * my)
    unit = max(w, h) / 100

    def pt(j: int) -> tuple[Fraction, Fraction]:
        return xs[j], ys[j]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    for e in sorted(structure_edges):
        (x1, y1), (x2, y2) = pt(e[0]), pt(e[1])
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="black" stroke-width="{_fmt(unit / 3)}"/>')
    for k in range(len(path_vertices) - 1):
        (x1, y1), (x2, y2) = pt(path_vertices[k]), pt(path_vertices[k + 1])
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="red" stroke-width="{_fmt(unit)}"/>')
    if line_index is not None:
        xm = (xs[line_index - 1] + xs[line_index]) / 2
        lines.append(
            f'<line x1="{_fmt(xm)}" y1="{_fmt(vb[1])}" x2="{_fmt(xm)}" '
            f'y2="{_fmt(vb[1] + vb[3])}" stroke="blue" '
            f'stroke-width="{_fmt(unit / 3)}" '
            f'stroke-dasharray="{_fmt(unit * 2)} {_fmt(unit * 2)}"/>')
    for j in range(len(points)):
        x, y = pt(j)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(unit * 3 / 2)}" '
            f'fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
