"""Orientation-scan references for the left-of mask kernel in tricount.geom.

Each function decides its predicate straight from exact orientation signs,
one point or one direction at a time, the way the library did before its
predicates were derived from PointSet.left_table().  The tests compare the
kernel against them.
"""

from __future__ import annotations

from typing import Iterable

from tricount.geom import PointSet, Segment


def _triangle_empty_scan(a: int, b: int, c: int, P: PointSet) -> bool:
    o = P.orient(a, b, c)
    for q in range(P.n):
        if q in (a, b, c):
            continue
        if (P.orient(a, b, q) == o and P.orient(b, c, q) == o
                and P.orient(c, a, q) == o):
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
    o1 = P.orient(a, b, c)
    o2 = P.orient(a, b, d)
    if o1 == o2:
        return False
    o3 = P.orient(c, d, a)
    o4 = P.orient(c, d, b)
    return o3 != o4


def point_in_triangle(q: int, a: int, b: int, c: int, P: PointSet) -> bool:
    o = P.orient(a, b, c)
    return (P.orient(a, b, q) == o and P.orient(b, c, q) == o
            and P.orient(c, a, q) == o)


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
