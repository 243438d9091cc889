"""Exact integer geometric primitives.

All predicates are exact sign computations on (arbitrarily wide) integers;
there is no floating point anywhere.  Points carry integer coordinates and a
point set is kept in lexicographic (x, then y) order, and the sweep line
l_i separates points 0..i-1 from i..n-1.  No predicate needs the line's
position: sides are index comparisons, and the order in which segments
cross a line is a left-of bit.

A PointSet builds its exact tables once, in its constructor: the left-of
bitmasks (PointSet.left), filled from one cross product per triple, and from
them the segment index, the crossing masks, the segments at each vertex
and the convex hull with its edges and interior vertices.  Crossing is a
bit of the crossing masks; crossing order, triangle and region emptiness
(a T-path's wedge is a one-vertex region) and pointedness are read off the
left-of masks, so each is a few shifts and ANDs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import InputError, shown

Point = tuple[int, int]
Segment = tuple[int, int]  # pair of vertex indices, normalized a < b
EdgeSet = frozenset[Segment]


def seg(a: int, b: int) -> Segment:
    """Normalize an index pair into a Segment (a < b)."""
    if a == b:
        raise InputError(f"not a segment: ({shown(a)}, {shown(b)})")
    return (a, b) if a < b else (b, a)


class PointSet:
    """A lexicographically sorted planar point set in general position,
    with its exact tables.

    Vertex indices are 0-based: index 0 is the leftmost point, index n-1 the
    rightmost.  SweepIndex i in 1..n-1 denotes the line l_i with points
    0..i-1 on its left and i..n-1 on its right.

    The constructor takes at least three int points (not bools) in strictly
    increasing lexicographic order and refuses any other input rather than
    coerce or sort it.  It builds every table once, from one exact cross
    product per triple, and raises InputError on a zero one.  Its
    read-only tables:

    - left[a][b]: bitmask of the points strictly left of directed ab;
    - segments: the n(n-1)/2 segments (a < b) in lexicographic order, so
      segment k is bit k of every segment bitmask;
    - ids[a][b]: k with segments[k] = ab, in either direction (None for
      a == b);
    - cross[k]: bitmask of the segments that properly cross segments[k];
    - star[v]: bitmask of the segments at vertex v;
    - hull: the hull vertices in CCW order, starting at vertex 0;
    - hull_edges: the hull segments (a < b), CCW from vertex 0;
    - interior: the vertices not on the hull, ascending.
    """

    __slots__ = ("points", "n", "left", "segments", "ids", "cross", "star",
                 "hull", "hull_edges", "interior")

    def __init__(self, points: Sequence[Point]):
        self.points = pts = tuple(map(_integer_point, collection(points)))
        if len(pts) < 3:
            raise InputError(f"need at least 3 points, got {len(pts)}")
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise InputError(f"duplicate point {shown(q)}")
            if p > q:
                raise InputError(
                    f"points out of order: {shown(p)} before {shown(q)}")
        self.n = n = len(pts)
        # the sign of (b-a) x (c-a) for a < b < c fills all six of the
        # triple's entries: cyclic order keeps it, a transposition flips it
        self.left = left = [[0] * n for _ in range(n)]
        for a, (ax, ay) in enumerate(pts):
            for b in range(a + 1, n):
                dx, dy = pts[b][0] - ax, pts[b][1] - ay
                for c in range(b + 1, n):
                    cx, cy = pts[c]
                    d = dx * (cy - ay) - dy * (cx - ax)
                    if d > 0:  # abc counterclockwise
                        left[a][b] |= 1 << c
                        left[b][c] |= 1 << a
                        left[c][a] |= 1 << b
                    elif d < 0:
                        left[b][a] |= 1 << c
                        left[c][b] |= 1 << a
                        left[a][c] |= 1 << b
                    else:
                        raise InputError(
                            f"collinear triple {shown(pts[a])}, "
                            f"{shown(pts[b])}, {shown(pts[c])}")
        self.segments = [(a, b) for a in range(n) for b in range(a + 1, n)]
        self.ids = ids = [[None] * n for _ in range(n)]
        for k, (a, b) in enumerate(self.segments):
            ids[a][b] = ids[b][a] = k
        self.star = [sum(1 << k for k in row if k is not None) for row in ids]
        # cd crosses ab iff each separates the other's endpoints: with c
        # left of ab, iff d is left of ba and on different sides of ac and bc
        self.cross = [sum(1 << ids[c][d] for c in bits(left[a][b])
                          for d in bits(left[b][a] & (left[a][c] ^ left[b][c])))
                      for a, b in self.segments]
        # the CCW hull edge out of a is the ab with every other point left
        full = (1 << n) - 1
        succ = {a: b for a in range(n) for b in range(n)
                if a != b and left[a][b] == full ^ (1 << a | 1 << b)}
        hull = [0]
        while succ[hull[-1]]:
            hull.append(succ[hull[-1]])
        self.hull = hull = tuple(hull)
        self.hull_edges = tuple(map(seg, hull, hull[1:] + hull[:1]))
        self.interior = tuple(v for v in range(n) if v not in hull)

    # -- basic predicates on vertex indices ------------------------------

    def above(self, f: Segment, e: Segment) -> bool:
        """Whether f crosses the sweep line above e.

        Both segments must cross the line and not cross each other; the
        order is then the same on every line that separates their left
        endpoints from their right ones, and one left-of bit decides it.
        With a shared left endpoint a, f is above iff its right endpoint is
        left of e's direction; otherwise the later left endpoint's side of
        the other segment's line decides.
        """
        a, b = e
        c, d = f
        left = self.left
        if a == c:
            return bool(left[a][b] >> d & 1)
        if a < c:
            return bool(left[a][b] >> c & 1)
        return not left[c][d] >> a & 1

    def edge_masks(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
        """Bitmask of the segments between the given vertex pairs, and its
        blocked mask: the segments that cross one of them.  Any item but a
        pair of two distinct int vertices of P raises InputError."""
        ids, cross, n = self.ids, self.cross, self.n
        emask = blocked = 0
        for item in collection(pairs):
            try:
                a, b = item
            except (TypeError, ValueError):
                raise InputError(
                    f"not a segment: {shown(item)}") from None
            if not (type(a) is type(b) is int and a != b
                    and 0 <= a < n and 0 <= b < n):
                raise InputError(f"not a segment: ({shown(a)}, {shown(b)})")
            k = ids[a][b]
            emask |= 1 << k
            blocked |= cross[k]
        return emask, blocked

    def check_vertices(self, vertices: Iterable[int]) -> None:
        """Refuse any value but an int vertex 0..n-1 (a bool is not one)."""
        for v in collection(vertices):
            if not (type(v) is int and 0 <= v < self.n):
                raise InputError(f"not a vertex: {shown(v)}")

    def inside(self, a: int, b: int, c: int) -> int:
        """Bitmask of the points strictly inside triangle abc."""
        left = self.left
        if left[a][b] >> c & 1:  # abc is counterclockwise
            return left[a][b] & left[b][c] & left[c][a]
        return left[b][a] & left[a][c] & left[c][b]

    def pointed(self, v: int, nbrs: int) -> bool:
        """True iff the edges from v to the points of bitmask nbrs leave an
        angular gap larger than pi at v.

        Exact test: at most two edges (general position), or some neighbour
        u has all the others strictly left of vu, i.e. counterclockwise of
        it within less than pi.
        """
        if nbrs.bit_count() <= 2:
            return True
        left = self.left[v]
        rest = nbrs
        while rest:
            low = rest & -rest
            if nbrs & ~left[low.bit_length() - 1] == low:
                return True
            rest ^= low
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointSet(n={self.n}, points={list(self.points)})"


def _integer_point(q) -> Point:
    try:
        x, y = q
    except (TypeError, ValueError):
        raise InputError(f"expected an (x, y) pair, got {shown(q)}") from None
    for c in (x, y):
        # bool is an int subclass, but true/false are not coordinates
        if isinstance(c, bool) or not isinstance(c, int):
            raise InputError(
                f"non-integer coordinate {shown(c)} in {shown(q)}")
    return (x, y)


def validate_point_set(raw: Iterable[Point]) -> PointSet:
    """Type-check and sort a raw point list; PointSet then refuses fewer
    than three points, a repeated point or a collinear triple.

    Coordinates must be Python ints; floats, bools and strings are refused
    rather than coerced.
    """
    return PointSet(sorted(_integer_point(q) for q in collection(raw)))


def collection(values) -> Iterator:
    """An iterator over a caller's collection; any other value, such as an
    int or None, raises InputError naming it."""
    try:
        return iter(values)
    except TypeError:
        raise InputError(f"not a collection: {shown(values)}") from None


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency(edges: Iterable[Segment], n: int) -> list[int]:
    """Bitmask of each vertex's neighbours in the edge set."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def edge_crosses_line(s: Segment, i: int) -> bool:
    """True iff segment s has one endpoint left of l_i and one right."""
    a, b = s
    return a < i <= b if a < b else b < i <= a


def region_empty(P: PointSet, i: int, u: int, exc: list[int],
                 w: int) -> bool:
    """Whether no point lies between l_i and the excursion u, *exc, w.

    The polygon u, *exc, w differs from the region closed along the line
    only by a closed curve on the other side of l_i, so every point on
    exc's side has the same even-odd parity for both.  That parity is the
    XOR of the fan triangles from u: general position keeps every point off
    the fan diagonals.
    """
    odd = 0
    for p, q in zip(exc, exc[1:] + [w]):
        odd ^= P.inside(u, p, q)
    for v in exc:
        odd &= ~(1 << v)
    left_of_line = (1 << i) - 1
    return not odd & (left_of_line if exc[0] < i else ~left_of_line)


def hull_crossing_edges(P: PointSet, i: int) -> tuple[Segment, Segment]:
    """The two hull edges crossed by l_i (an int 1..n-1), the lower first."""
    if not (type(i) is int and 0 < i < P.n):
        raise InputError(f"not a sweep line: {shown(i)} (1..{P.n - 1})")
    crossing = [e for e in P.hull_edges if edge_crosses_line(e, i)]
    # hull_edges run CCW from vertex 0, lower chain first
    return crossing[0], crossing[1]
