"""Scan references for the left-of mask kernel in tricount.geom.

Each function decides its predicate straight from exact orientation signs
or exact rational coordinates, one point or one direction at a time, the
way the library did before its predicates were derived from the left-of
masks PointSet.left.  The sign is computed here, from the points, so the
kernel and its reference share no geometric predicate.  The convex hull
reference sorts the points no triangle contains by orientation about
vertex 0, independently of the hull walk over those masks.  The tests
compare the kernel against them.

The rational references work in sheared coordinates x' = 2*(M*x + y),
y' = 2*y, with M large enough that the sheared x-order is the
lexicographic order.  The shear is an orientation-preserving affine map,
so it keeps every predicate, and each sweep line l_i becomes a vertical
line at an integer abscissa strictly between points i-1 and i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from tricount.geom import Point, PointSet, Segment, edge_crosses_line, seg

RPoint = tuple[Fraction, Fraction]


def sign(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p): 1 if pqr turns
    counterclockwise, -1 if clockwise, 0 if collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def orient(P: PointSet, a: int, b: int, c: int) -> int:
    """The sign of P's points with indices a, b and c."""
    return sign(P.points[a], P.points[b], P.points[c])


def _triangle_empty_scan(a: int, b: int, c: int, P: PointSet) -> bool:
    o = orient(P, a, b, c)
    for q in range(P.n):
        if q in (a, b, c):
            continue
        if (orient(P, a, b, q) == o and orient(P, b, c, q) == o
                and orient(P, c, a, q) == o):
            return False
    return True


def segments_cross(s1: Segment, s2: Segment, P: PointSet) -> bool:
    """Proper crossing: intersection in the strict interior of both.

    Sharing an endpoint is never a crossing.  Under general position no
    endpoint can lie in the other segment's interior, so the test reduces to
    strict orientation alternation.
    """
    a, b = s1
    c, d = s2
    if a in s2 or b in s2:
        return False
    o1 = orient(P, a, b, c)
    o2 = orient(P, a, b, d)
    if o1 == o2:
        return False
    o3 = orient(P, c, d, a)
    o4 = orient(P, c, d, b)
    return o3 != o4


def point_in_triangle(q: int, a: int, b: int, c: int, P: PointSet) -> bool:
    o = orient(P, a, b, c)
    return (orient(P, a, b, q) == o and orient(P, b, c, q) == o
            and orient(P, c, a, q) == o)


def convex_hull(P: PointSet) -> list[int]:
    """Hull vertices in CCW order, starting at vertex 0.

    A point is a hull vertex iff no triangle of other points contains it.
    Vertex 0 is the leftmost point, so every other hull vertex lies in one
    half-plane about it and orientation about 0 orders them.
    """
    n = P.n
    corners = [v for v in range(1, n)
               if not any(point_in_triangle(v, a, b, c, P)
                          for a in range(n) for b in range(a + 1, n)
                          for c in range(b + 1, n) if v not in (a, b, c))]
    return [0] + sorted(corners, key=cmp_to_key(
        lambda p, q: -orient(P, 0, p, q)))


def is_pointed(edges: Iterable[Segment], v: int, P: PointSet) -> bool:
    """True iff v's incident edges leave an angular gap larger than pi.

    Isolated vertices are pointed by convention.  Exact test: the incident
    directions fit in an open half-plane iff some direction has all others
    strictly counterclockwise of it within less than pi.
    """
    px, py = P.points[v]
    dirs = []
    for (a, b) in edges:
        if v == a:
            u = b
        elif v == b:
            u = a
        else:
            continue
        dirs.append((P.points[u][0] - px, P.points[u][1] - py))
    if len(dirs) <= 2:
        return True
    for j, dj in enumerate(dirs):
        if all(dj[0] * dk[1] - dj[1] * dk[0] > 0
               for k, dk in enumerate(dirs) if k != j):
            return True
    return False


def spoint(P: PointSet, j: int) -> tuple[int, int]:
    """Sheared coordinates of point j."""
    m = 2 * max(abs(y) for _, y in P.points) + 1
    x, y = P.points[j]
    return (2 * (m * x + y), 2 * y)


def line_x(P: PointSet, i: int) -> int:
    """Integer abscissa (sheared) of sweep line l_i, 1 <= i <= n-1."""
    return (spoint(P, i - 1)[0] + spoint(P, i)[0]) // 2


def cross_y(P: PointSet, e: Segment, i: int) -> Fraction:
    """Exact ordinate (sheared) where segment e crosses line l_i."""
    if not edge_crosses_line(e, i):
        raise ValueError(f"edge {e} does not cross l_{i}")
    ax, ay = spoint(P, e[0])
    bx, by = spoint(P, e[1])
    c = line_x(P, i)
    return Fraction(ay * (bx - ax) + (c - ax) * (by - ay), bx - ax)


def point_in_polygon_strict(q: RPoint, poly: Sequence[RPoint]) -> bool:
    """Even-odd test with a half-open horizontal ray; q must be off-boundary."""
    inside = False
    m = len(poly)
    qx, qy = q
    for k in range(m):
        ax, ay = poly[k]
        bx, by = poly[(k + 1) % m]
        if (ay > qy) != (by > qy):
            # exact x of the edge at height qy
            xint = Fraction(ax) + Fraction(qy - ay) * (bx - ax) / (by - ay)
            if xint > qx:
                inside = not inside
    return inside


def region_empty(P: PointSet, i: int, u: int, exc: list[int], w: int) -> bool:
    """No point on exc's side inside the polygon closed along l_i between
    the crossings of u-exc[0] and exc[-1]-w."""
    c = Fraction(line_x(P, i))
    poly = [(c, cross_y(P, seg(u, exc[0]), i))]
    poly += [(Fraction(spoint(P, v)[0]), Fraction(spoint(P, v)[1]))
             for v in exc]
    poly.append((c, cross_y(P, seg(exc[-1], w), i)))
    side = exc[0] < i
    for q in range(P.n):
        if q in exc or (q < i) != side:
            continue
        sq = spoint(P, q)
        if point_in_polygon_strict((Fraction(sq[0]), Fraction(sq[1])), poly):
            return False
    return True
