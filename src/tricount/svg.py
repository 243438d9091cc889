"""Deterministic SVG rendering of point sets, structures and paths.

Output is plain text assembled in a fixed order in exact integer
arithmetic, so identical inputs give byte-identical files, and a
coordinate of any size is drawn.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .geom import Point, Segment

# every coordinate is multiplied by SCALE, so that every number drawn is an
# integer: the margins divide a width by 20, the sweep line a sum of two
# coordinates by 2, and the strokes and radius divide a width by 100 and
# then by 3 or 2
SCALE = 600
BLOCK = 10 ** 4000  # str() converts at most 4300 digits by default


def _digits(m: int) -> str:
    """str(m) for an int m >= 0 of any size, 4000 digits at a time."""
    head, tail = divmod(m, BLOCK)
    return f"{_digits(head)}{tail:04000d}" if head else str(tail)


def _fmt(n: int) -> str:
    """n / SCALE to at most four decimal places, rounded to nearest.

    In ten-thousandths n / SCALE is n * 50 / 3, which is never halfway
    between two integers (that needs 100 n = 6 k + 3, an even number equal
    to an odd one), so adding a half before the floor rounds it exactly,
    at any size."""
    t = (n * 100 + 3) // 6
    whole, frac = divmod(abs(t), 10_000)
    s = f"{_digits(whole)}.{frac:04d}".rstrip("0").rstrip(".")
    return "-" + s if t < 0 else s


def render_svg(points: Sequence[Point],
               structure_edges: Iterable[Segment] = (),
               path_vertices: Sequence[int] = (),
               line_index: Optional[int] = None) -> str:
    """Render to an SVG string; y grows upward (flipped from SVG space).

    points are in lexicographic order (PointSet.points), so l_i runs
    between points i-1 and i; structure_edges are distinct (a < b) pairs,
    drawn in sorted order."""
    xs = [x * SCALE for x, _ in points]
    ys = [-y * SCALE for _, y in points]  # flip so larger y is higher
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = maxx - minx or SCALE
    h = maxy - miny or SCALE
    mx, my = w // 20, h // 20  # 5% margin
    vb = (minx - mx, miny - my, w + 2 * mx, h + 2 * my)
    unit = max(w, h) // 100
    thin = unit // 3

    def pt(j: int) -> tuple[int, int]:
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
            f'y2="{_fmt(y2)}" stroke="black" stroke-width="{_fmt(thin)}"/>')
    for k in range(len(path_vertices) - 1):
        (x1, y1), (x2, y2) = pt(path_vertices[k]), pt(path_vertices[k + 1])
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="red" stroke-width="{_fmt(unit)}"/>')
    if line_index is not None:
        xm = (xs[line_index - 1] + xs[line_index]) // 2
        lines.append(
            f'<line x1="{_fmt(xm)}" y1="{_fmt(vb[1])}" x2="{_fmt(xm)}" '
            f'y2="{_fmt(vb[1] + vb[3])}" stroke="blue" '
            f'stroke-width="{_fmt(thin)}" '
            f'stroke-dasharray="{_fmt(unit * 2)} {_fmt(unit * 2)}"/>')
    for j in range(len(points)):
        x, y = pt(j)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(unit * 3 // 2)}" '
            f'fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
