import random
import re

import pytest
from hypothesis import given, strategies as st

import tricount.geom as geom
from tricount.errors import InputError
from tricount.geom import seg
import tricount as tc

import scan_predicates as scan
from conftest import (FAN5, conv_points, double_chain, random_point_set,
                      random_points)


def assert_left_is_sign(P):
    """Each left-of bit of the kernel against the reference sign."""
    for a in range(P.n):
        for b in range(P.n):
            for c in range(P.n):
                assert (P.left[a][b] >> c & 1) == \
                    (scan.orient(P, a, b, c) > 0), (a, b, c)


def test_orientation_basic():
    assert scan.sign((0, 0), (1, 0), (0, 1)) == 1
    assert scan.sign((0, 0), (1, 0), (2, 0)) == 0
    assert scan.sign((0, 0), (0, 1), (1, 0)) == -1
    # sorted, (1, 0) is vertex 2: right of 0 -> 1, left of 1 -> 0
    P = geom.PointSet([(0, 0), (0, 1), (1, 0)])
    assert P.left[0][1] == 0 and P.left[1][0] == 1 << 2
    assert_left_is_sign(P)
    with pytest.raises(InputError, match="collinear triple"):
        geom.PointSet([(0, 0), (1, 0), (2, 0)])


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                min_size=3, max_size=3, unique=True))
def test_orientation_antisymmetric(pts):
    a, b, c = pts
    assert scan.sign(a, b, c) == -scan.sign(b, a, c)
    assert scan.sign(a, b, c) == -scan.sign(a, c, b)
    # the kernel fills all six left-of entries of the triple from one sign
    if scan.sign(a, b, c):
        assert_left_is_sign(tc.validate_point_set(pts))
    else:
        with pytest.raises(InputError, match="collinear triple"):
            tc.validate_point_set(pts)


def test_validate_point_set():
    P = tc.validate_point_set([(0, 0), (2, 2), (4, 8), (6, 18)])
    assert P.points == ((0, 0), (2, 2), (4, 8), (6, 18))
    with pytest.raises(InputError, match="collinear triple") as exc:
        tc.validate_point_set([(0, 0), (1, 1), (2, 2)])
    assert "(1, 1)" in str(exc.value)  # offending triple is named
    with pytest.raises(InputError, match="duplicate point"):
        tc.validate_point_set([(0, 0), (0, 0), (1, 5)])
    with pytest.raises(InputError, match="need at least 3 points"):
        tc.validate_point_set([(0, 0), (1, 5)])
    for bad in (2.7, True, "3"):  # refused, never coerced
        with pytest.raises(InputError, match="non-integer coordinate"):
            tc.validate_point_set([(0, 0), (bad, 5), (3, 1)])


def test_validate_sorts_input():
    P = tc.validate_point_set([(6, 18), (0, 0), (4, 8), (2, 2), (3, 7)])
    assert P.points == tuple(sorted(FAN5))


def test_convex_hull(fan5, conv5, tri3):
    assert sorted(conv5.hull) == [0, 1, 2, 3, 4]
    assert sorted(fan5.hull) == [0, 1, 3, 4]
    assert fan5.n - len(fan5.hull) == 1
    assert sorted(tri3.hull) == [0, 1, 2]
    # CCW orientation of consecutive hull triples
    h = fan5.hull
    for k in range(len(h)):
        assert scan.orient(fan5, h[k], h[(k + 1) % len(h)],
                           h[(k + 2) % len(h)]) == 1


def test_hull_invariant_under_permutation():
    pts = random_points(7, 99)
    P1 = tc.validate_point_set(pts)
    P2 = tc.validate_point_set(list(reversed(pts)))
    assert P1.hull == P2.hull


def test_hull_matches_scan():
    # CCW order starting at vertex 0, against an orientation-only scan
    for n in range(3, 14):
        for seed in range(3):
            P = random_point_set(n, 1300 + 10 * n + seed)
            assert P.hull[0] == 0
            assert list(P.hull) == scan.convex_hull(P)
        assert geom.PointSet(conv_points(n)).hull == tuple(range(n))


def test_hull_edges_interior_and_star():
    for n in range(3, 11):
        P = random_point_set(n, 1300 + 10 * n)
        h = P.hull
        assert P.hull_edges == tuple(seg(h[k], h[(k + 1) % len(h)])
                                     for k in range(len(h)))
        assert P.interior == tuple(v for v in range(n) if v not in h)
        assert P.star == [sum(1 << k for k, e in enumerate(P.segments)
                              if v in e) for v in range(n)]


def test_point_set_refuses_collinear_triple():
    # the constructor itself, not only validate_point_set
    with pytest.raises(InputError, match="collinear triple") as exc:
        geom.PointSet([(0, 0), (1, 5), (2, 1), (4, 2)])
    assert "(2, 1)" in str(exc.value)


def test_point_set_refuses_unsorted_or_non_integer_points():
    # the constructor neither coerces nor sorts: every sweep predicate
    # assumes integer points in strictly increasing lexicographic order
    with pytest.raises(InputError, match="non-integer coordinate 1.5"):
        geom.PointSet([(0, 0), (1.5, 5), (3, 1)])
    with pytest.raises(InputError, match="non-integer coordinate True"):
        geom.PointSet([(0, 0), (True, 5), (3, 1)])
    with pytest.raises(InputError, match="out of order"):
        geom.PointSet([(3, 1), (0, 0), (1, 5)])
    with pytest.raises(InputError, match="duplicate point"):
        geom.PointSet([(0, 0), (0, 0), (1, 5)])
    assert geom.PointSet([(0, 0), (1, 5), (3, 1)]).hull == (0, 2, 1)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_point_set_refuses_fewer_than_three_points(n):
    # the constructor itself: with fewer points there is no hull to walk
    # and no sweep line with two hull crossings
    pts = conv_points(n)
    with pytest.raises(InputError, match=f"need at least 3 points, got {n}"):
        geom.PointSet(pts)
    with pytest.raises(InputError, match=f"need at least 3 points, got {n}"):
        tc.validate_point_set(pts)


def test_triangle_empty(fan5, tri3):
    assert not fan5.inside(0, 1, 3)           # (3,7) above chord (2,2)-(4,8)
    assert fan5.inside(0, 3, 4) == 1 << 2     # contains (3,7)
    assert not tri3.inside(0, 1, 2)


def test_triangle_empty_table_matches_scan():
    for n, s in ((6, 0), (8, 1), (10, 2)):
        P = random_point_set(n, 500 + s)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    assert (not P.inside(a, b, c)) == \
                        scan._triangle_empty_scan(a, b, c, P)


def test_segments_cross(fan5):
    def crosses(e, f):
        return bool(fan5.edge_masks([e])[1] & fan5.edge_masks([f])[0])

    assert crosses((0, 3), (1, 4))   # hull quad diagonals
    assert not crosses((0, 1), (1, 3))  # shared endpoint
    assert not crosses((0, 1), (3, 4))  # disjoint
    # symmetry
    assert crosses((1, 4), (0, 3))


def test_edge_masks_is_the_door_to_segments(fan5):
    # a pair in either order is its segment, and its blocked mask is the
    # segments crossing it
    k = fan5.ids[0][3]
    assert fan5.edge_masks([(3, 0)]) == fan5.edge_masks([(0, 3)]) == \
        (1 << k, fan5.cross[k])
    assert fan5.edge_masks([]) == (0, 0)
    # anything but two distinct int vertices 0..n-1 is refused, never read
    # off the tables (a negative index would alias vertex n + index)
    for pair in ((2, 2), (1, 9), (-1, 2), (0, 5), (-5, 1), (1.0, 2),
                 (True, 2), ("1", 2), (None, 2)):
        with pytest.raises(InputError, match="not a segment"):
            fan5.edge_masks([(0, 1), pair])
    # an item that is no pair at all is refused whole, by its value
    for item in ((0, 1, 2), 5, None, (3,)):
        with pytest.raises(InputError,
                           match=rf"^not a segment: {re.escape(repr(item))}$"):
            fan5.edge_masks([(0, 1), item])


def test_check_vertices_is_the_door_to_vertices(fan5):
    # every int 0..n-1 passes, in any order and repeated; anything else is
    # refused by name at its first occurrence (a negative index would alias
    # vertex n + index, and True would be read as vertex 1)
    assert fan5.check_vertices([4, 0, 2, 2, 1, 3]) is None
    fan5.check_vertices([])
    for v in (5, 9, -1, -5, True, False, 1.0, "1", None, (0, 1)):
        with pytest.raises(InputError,
                           match=rf"^not a vertex: {re.escape(repr(v))}$"):
            fan5.check_vertices([0, v, 9])


def test_edge_crosses_line():
    assert geom.edge_crosses_line((1, 3), 2)
    assert not geom.edge_crosses_line((0, 1), 2)
    assert geom.edge_crosses_line((0, 4), 1)


def test_wedge_empty(fan5):
    # the wedge of path edges ba, bd is the one-vertex excursion's region
    assert geom.region_empty(fan5, 2, 3, [1], 2)
    assert geom.region_empty(fan5, 2, 2, [0], 4)
    assert geom.region_empty(fan5, 1, 1, [0], 4)


def test_wedge_empty_matches_scan():
    # brute-force check: clipped triangle contains no point on the apex side
    for n, s in ((7, 3), (9, 4)):
        P = random_point_set(n, 600 + s)
        for i in range(1, n):
            for b in range(n):
                for a in range(n):
                    for d in range(n):
                        if len({a, b, d}) < 3:
                            continue
                        if not (geom.edge_crosses_line(seg(a, b), i)
                                and geom.edge_crosses_line(seg(b, d), i)):
                            continue
                        expect = not any(
                            (q < i) == (b < i)
                            and scan.point_in_triangle(q, a, b, d, P)
                            for q in range(n) if q not in (a, b, d))
                        assert geom.region_empty(P, i, a, [b], d) == expect


def test_kernel_matches_orientation_scan():
    # every predicate derived from the left-of masks against its scan
    rng = random.Random(7)
    for n in range(5, 13):
        P = random_point_set(n, 700 + n)
        assert_left_is_sign(P)
        segs = P.segments
        for e in segs:
            for f in segs:
                assert bool(P.edge_masks([e])[1] & P.edge_masks([f])[0]) \
                    == scan.segments_cross(e, f, P)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    assert (not P.inside(a, b, c)) == \
                        scan._triangle_empty_scan(a, b, c, P)
        for i in range(1, n):
            for b in range(n):
                across = [q for q in range(n) if (q < i) != (b < i)]
                for a in across:
                    for d in across:
                        if a == d:
                            continue
                        expect = not any(
                            (q < i) == (b < i)
                            and scan.point_in_triangle(q, a, b, d, P)
                            for q in range(n) if q not in (a, b, d))
                        assert geom.region_empty(P, i, a, [b], d) == expect
        for v in range(n):
            incident = [seg(v, u) for u in range(n) if u != v]
            for _ in range(30):
                edges = [e for e in incident if rng.random() < 0.5]
                assert tc.is_pointed(edges, v, P) == \
                    scan.is_pointed(edges, v, P)


def test_crossing_table_matches_pairwise():
    # the table is read off left-of masks, and PointSet.edge_masks reads
    # the table; compare every pair with the orientation scan
    for n in range(4, 13):
        P = random_point_set(n, 1100 + n)
        segs, ids, cross = P.segments, P.ids, P.cross
        assert segs == [(a, b) for a in range(n) for b in range(a + 1, n)]
        for k, (a, b) in enumerate(segs):
            assert ids[a][b] == ids[b][a] == k
            assert cross[k] == sum(1 << j for j, f in enumerate(segs)
                                   if scan.segments_cross((a, b), f, P))


def test_above_matches_crossing_ordinate():
    # every non-crossing pair of segments crossing each line
    for n in range(5, 11):
        P = random_point_set(n, 800 + n)
        for i in range(1, n):
            crossing = [e for e in P.segments
                        if geom.edge_crosses_line(e, i)]
            ys = {e: scan.cross_y(P, e, i) for e in crossing}
            for e in crossing:
                for f in crossing:
                    if f != e and not scan.segments_cross(e, f, P):
                        assert P.above(f, e) == (ys[f] > ys[e])


def test_hull_crossing_edges_lower_first():
    # hull_crossing_edges takes the hull order (lower chain first); the
    # reference orders the two crossing hull edges by P.above
    sets = [random_points(n, 1300 + 10 * n + s)
            for n in range(3, 25) for s in range(4)]
    sets += [conv_points(n) for n in range(3, 25)]
    sets += [[(x, -y) for x, y in conv_points(n)] for n in range(3, 25)]
    sets += [double_chain(n) for n in range(3, 25)]
    for pts in sets:
        P = tc.validate_point_set(pts)
        for i in range(1, P.n):
            lo, hi = [e for e in P.hull_edges if geom.edge_crosses_line(e, i)]
            expect = (hi, lo) if P.above(lo, hi) else (lo, hi)
            assert geom.hull_crossing_edges(P, i) == expect


def test_hull_crossing_edges_is_the_door_to_lines(fan5):
    # every line l_1 .. l_{n-1} crosses exactly two hull edges; anything
    # but an int in 1..n-1 is refused before the hull is read (a bool or a
    # float would otherwise be read as a line)
    for i in range(1, fan5.n):
        assert len(geom.hull_crossing_edges(fan5, i)) == 2
    for i in (0, 5, -1, True, False, 1.0, 1.5, "1", None):
        with pytest.raises(InputError, match="not a sweep line"):
            geom.hull_crossing_edges(fan5, i)


def test_region_empty_matches_polygon_scan():
    # random u, w on one side of l_i, a distinct-vertex chain on the other
    rng = random.Random(11)
    for n in range(5, 11):
        P = random_point_set(n, 900 + n)
        for i in range(1, n):
            sides = (list(range(i)), list(range(i, n)))
            for _ in range(60):
                near, far = sides if rng.random() < 0.5 else sides[::-1]
                u, w = rng.choice(far), rng.choice(far)
                exc = rng.sample(near, rng.randint(1, len(near)))
                assert geom.region_empty(P, i, u, exc, w) == \
                    scan.region_empty(P, i, u, exc, w)
