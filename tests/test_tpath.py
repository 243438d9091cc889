import pytest

import tricount as tc
from tricount import geom, oracle, ptpath, sweep
from tricount.errors import InputError
from tricount.ptpath import TPath, chain_edges

from conftest import conv_points, fan5_star_triangulation, random_point_set


def test_validate_tpath(fan5):
    assert tc.validate_tpath(TPath((1, 0, 4), 1), fan5)
    assert tc.validate_tpath(TPath((3, 1, 2, 0, 4), 2), fan5)
    bad = tc.validate_tpath(TPath((3, 1, 0, 4), 2), fan5)
    assert not bad
    assert bad.reason == "edge_not_crossing_line"  # edge (1,0) misses l_2


def test_validate_reason_codes(fan5):
    assert tc.validate_tpath(TPath((1, 0), 1), fan5).reason == "too_short"
    assert tc.validate_tpath(TPath((0, 4, 0), 1), fan5).reason == "repeated_edge"
    # starts at the upper hull edge instead of the lower one
    r = tc.validate_tpath(TPath((4, 0, 1), 1), fan5)
    assert r.reason in ("bad_endpoints", "crossings_not_increasing")


def test_extract_tpath_star(fan5):
    T = fan5_star_triangulation()
    assert tc.extract_tpath(T, 2, fan5).vertices == (3, 1, 2, 0, 4)
    # l_1: always the two hull edges at the leftmost point
    assert tc.extract_tpath(T, 1, fan5).vertices == (1, 0, 4)


def test_extract_tpath_triangle(tri3):
    T = frozenset({(0, 1), (0, 2), (1, 2)})
    path = tc.extract_tpath(T, 1, tri3)
    assert path.vertices[1] == 0
    assert tc.validate_tpath(path, tri3)


def test_extract_tpath_fan_conv5(conv5):
    fan = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)})
    path = tc.extract_tpath(fan, 3, conv5)
    assert tc.validate_tpath(path, conv5)
    # uniqueness: the exhaustive chain search finds exactly this chain
    assert sweep.path_chains(conv5, 3, False, ~conv5.edge_masks(fan)[0]) \
        == [path.vertices]


def test_uniqueness_over_oracle(fan5, conv5):
    for P in (fan5, conv5):
        for T in oracle.enumerate_structures(P, "tri"):
            for i in range(1, P.n):
                assert len(sweep.path_chains(P, i, False,
                                             ~P.edge_masks(T)[0])) == 1
                # without either hull crossing edge nothing is extracted
                for e in geom.hull_crossing_edges(P, i):
                    assert sweep.path_chains(
                        P, i, False, ~P.edge_masks(T - {e})[0]) == []


def test_tpaths_are_ptpaths_of_one_vertex_excursions():
    # one search serves both families: the T-path population is the
    # PT-path population's chains whose every edge crosses the line
    sets = [tc.validate_point_set(conv_points(n)) for n in range(3, 12)]
    sets += [random_point_set(n, 100 * n + s)
             for n in range(3, 12) for s in (1, 2, 3)]
    for P in sets:
        for i in range(1, P.n):
            assert sweep.path_chains(P, i, False) == [
                c for c in sweep.path_chains(P, i, True)
                if all(geom.edge_crosses_line(e, i) for e in chain_edges(c))]


def test_is_flippable(fan5, conv5):
    T = fan5_star_triangulation()
    # spoke (0,2): quad 1,2,4,0 - convexity decided exactly
    assert tc.is_flippable(T, (0, 2), fan5) == \
        bool(fan5.edge_masks([(1, 4)])[1] & fan5.edge_masks([(0, 2)])[0])
    for h in ((0, 1), (1, 3), (3, 4), (0, 4)):
        assert not tc.is_flippable(T, h, fan5)
    fan = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)})
    assert tc.is_flippable(fan, (0, 2), conv5)
    with pytest.raises(InputError, match="not in the structure"):
        tc.is_flippable(T, (1, 4), fan5)


def test_flip(conv5):
    fan = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)})
    T2 = tc.flip(fan, (0, 2), conv5)
    assert (1, 3) in T2 and (0, 2) not in T2
    assert tc.flip(T2, (1, 3), conv5) == fan  # involution
    with pytest.raises(InputError, match="is not flippable"):
        tc.flip(fan, (0, 1), conv5)


def test_is_good_edge(fan5):
    T = fan5_star_triangulation()
    with pytest.raises(InputError, match="not in the structure"):
        tc.is_good_edge(T, (1, 4), 2, fan5)
    with pytest.raises(InputError, match="does not cross l_2"):
        tc.is_good_edge(T, (0, 1), 2, fan5)
    assert not tc.is_good_edge(T, (0, 4), 2, fan5)  # hull edge: not flippable


def test_good_edges_lie_on_tpath():
    import tricount.geom as geom
    P = random_point_set(7, 77)
    for T in oracle.enumerate_structures(P, "tri"):
        for i in range(1, P.n):
            path_edges = set(tc.extract_tpath(T, i, P).edges())
            for e in T:
                if geom.edge_crosses_line(e, i) and tc.is_good_edge(T, e, i, P):
                    assert e in path_edges


def test_successors_forced(tri3):
    k0 = (tri3.hull[1], 0, tri3.hull[-1])
    succ = tc.tpath_successors(TPath(k0, 1), tri3)
    assert len(succ) == 1


def test_successors_match_oracle(fan5):
    k0 = (fan5.hull[1], 0, fan5.hull[-1])
    succ = tc.tpath_successors(TPath(k0, 1), fan5)
    expect = ptpath.collect_paths(fan5, 2, "tri")
    assert (3, 1, 2, 0, 4) in succ
    assert succ == expect  # the unique parent is compatible with all


def test_successors_reject_invalid_parent(fan5):
    with pytest.raises(InputError):
        tc.tpath_successors(TPath((0, 4, 0), 1), fan5)


def test_successor_count_quadratic():
    P = random_point_set(8, 123)
    c = 6  # generous constant for the O(n^2) population bound
    for i in range(1, P.n - 1):
        for k in ptpath.collect_paths(P, i, "tri"):
            assert len(tc.tpath_successors(TPath(k, i), P)) <= c * P.n ** 2


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def test_a_reversed_edge_is_its_segment(fan5, conv5):
    # the single edge goes through PointSet.edge_masks, like the structure,
    # so (2, 0) is the segment (0, 2) of T, not an edge missing from it
    fan = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)})
    T = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4),
                   (3, 4)})
    for P, S in ((fan5, T), (conv5, fan)):
        for a, b in S:
            for f in (tc.flip, tc.is_flippable):
                assert _outcome(f, S, (b, a), P) == _outcome(f, S, (a, b), P)
            for i in range(1, P.n):
                if geom.edge_crosses_line((a, b), i):
                    assert _outcome(tc.is_good_edge, S, (b, a), i, P) == \
                        _outcome(tc.is_good_edge, S, (a, b), i, P)
    assert tc.flip(fan, (2, 0), conv5) == tc.flip(fan, (0, 2), conv5)
    # a T that itself writes the edge reversed flips to the same 7 segments
    written = fan - {(0, 2)} | {(2, 0)}
    for e in ((2, 0), (0, 2)):
        assert tc.flip(written, e, conv5) == tc.flip(fan, (0, 2), conv5)
        assert len(tc.flip(written, e, conv5)) == 7
