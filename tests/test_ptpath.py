import pytest

import tricount as tc
import tricount.geom as geom
from tricount import oracle, ptpath, sweep
from tricount.errors import InputError, InternalInvariantViolation
from tricount.ptpath import PTPath, TPath, chain_edges

import scan_predicates as scan
from conftest import fan5_star_triangulation, random_point_set


def test_is_pointed(fan5):
    star = fan5_star_triangulation()
    spokes = {(0, 2), (1, 2), (2, 3), (2, 4)}
    assert not tc.is_pointed(spokes, 2, fan5)  # surrounded interior vertex
    assert tc.is_pointed({(0, 2), (1, 2)}, 2, fan5)  # degree 2
    for v in (0, 1, 3, 4):  # hull vertices stay pointed even in the star
        assert tc.is_pointed(star, v, fan5)
    assert tc.is_pointed({(0, 1)}, 2, fan5)  # isolated: pointed by convention


def test_validate_pseudotriangulation(fan5, conv5):
    fan = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)}
    assert tc.validate_pseudotriangulation(fan, conv5)
    star = fan5_star_triangulation()
    r = tc.validate_pseudotriangulation(star, fan5)
    assert not r and r.reason == "not_pointed"
    hull_only = {(0, 1), (1, 3), (3, 4), (0, 4)}
    r = tc.validate_pseudotriangulation(hull_only, fan5)
    assert not r and r.reason == "not_maximal"
    r = tc.validate_pseudotriangulation({(0, 3), (1, 4)}, fan5)
    assert not r and r.reason == "edges_cross"


@pytest.mark.parametrize("n,seed", [(5, 1205), (6, 1206), (7, 1207),
                                    (7, 1217)])
def test_validate_pseudotriangulation_matches_oracle(n, seed):
    # accepts exactly the oracle's structures: each one, not each with one
    # edge removed or one non-crossing edge added, and among the
    # triangulations exactly those that are pseudo-triangulations
    P = random_point_set(n, seed)
    structures = set(oracle.enumerate_structures(P, "pt"))
    segs = P.segments
    for S in structures:
        assert tc.validate_pseudotriangulation(S, P)
        for e in S:
            r = tc.validate_pseudotriangulation(S - {e}, P)
            assert not r and r.reason == "not_maximal"
        for e in segs:
            if e not in S and not P.edge_masks([e])[0] & P.edge_masks(S)[1]:
                r = tc.validate_pseudotriangulation(S | {e}, P)
                assert not r and r.reason == "not_pointed"
    for T in oracle.enumerate_structures(P, "tri"):
        assert bool(tc.validate_pseudotriangulation(T, P)) == \
            (T in structures)


def test_oracle_structures_validate(fan5):
    for S in oracle.enumerate_structures(fan5, "pt"):
        assert tc.validate_pseudotriangulation(S, fan5)
        assert len(S) == 2 * fan5.n - 3


def test_validate_ptpath_initial(fan5):
    assert tc.validate_ptpath(PTPath((1, 0, 4), 1), fan5)
    r = tc.validate_ptpath(PTPath((4, 0, 1), 1), fan5)
    assert not r
    assert tc.validate_ptpath(PTPath((1, 0), 1), fan5).reason == "too_short"


def test_extract_ptpath(fan5, tri3):
    T = frozenset({(0, 1), (0, 2), (1, 2)})
    assert tc.extract_ptpath(T, 1, tri3).vertices == \
        tc.extract_tpath(T, 1, tri3).vertices
    for S in oracle.enumerate_structures(fan5, "pt"):
        for i in range(1, fan5.n):
            path = tc.extract_ptpath(S, i, fan5)
            assert tc.validate_ptpath(path, fan5)
            assert len(sweep.path_chains(fan5, i, True,
                                         ~fan5.edge_masks(S)[0])) == 1
            # without either hull crossing edge nothing is extracted
            for e in geom.hull_crossing_edges(fan5, i):
                assert sweep.path_chains(
                    fan5, i, True, ~fan5.edge_masks(S - {e})[0]) == []


# a pseudo-triangulation of FAN5 that is not a triangulation
FAN5_PT = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (3, 4)})
# the first oracle triangulation and the last oracle pseudo-triangulation
FAN5_T = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4),
                    (3, 4)})
FAN5_S = frozenset({(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)})


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_extraction_blames_a_bad_edge_set(monkeypatch, fan5, family):
    # an edge set in which the search finds no single path is bad input
    # (exit 2) unless it is a structure: then the engine is at fault
    extract = tc.extract_tpath if family == "tri" else tc.extract_ptpath
    star = fan5_star_triangulation()  # not pointed at vertex 2
    own, other = (star, FAN5_PT) if family == "tri" else (FAN5_PT, star)
    # a structure less one edge in which the search finds exactly one chain
    less_one = (star - {(2, 3)}, 1) if family == "tri" else \
        (FAN5_PT - {(0, 1)}, 2)
    # vertex 0 written as -5, which the tables would read as vertex 0
    negative = frozenset((-5 if a == 0 else a, b) for a, b in own)
    for S, i in ((frozenset(), 1), (frozenset(fan5.segments), 2),
                 (other, 3), less_one, (own | {(2, 2)}, 2),
                 (own | {(1, 9)}, 2), (negative, 2)):
        with pytest.raises(InputError):
            extract(S, i, fan5)
    assert extract(own, 2, fan5)
    monkeypatch.setattr(ptpath, "path_chains", lambda *args, **kw: [])
    with pytest.raises(InternalInvariantViolation):
        extract(own, 2, fan5)


def test_convex_position_pt_equals_t(conv5):
    # in convex position every pseudo-triangulation is a triangulation
    tri = oracle.enumerate_structures(conv5, "tri")
    pt = oracle.enumerate_structures(conv5, "pt")
    assert set(tri) == set(pt)
    for T in tri:
        for i in range(1, conv5.n):
            assert tc.extract_ptpath(T, i, conv5).vertices == \
                tc.extract_tpath(T, i, conv5).vertices


def test_crossing_positions(fan5):
    S = next(iter(oracle.enumerate_structures(fan5, "pt")))
    path = tc.extract_ptpath(S, 2, fan5)
    crossing = [k for k, e in enumerate(path.edges())
                if geom.edge_crosses_line(e, path.line)]
    ys = [scan.cross_y(fan5, path.edges()[k], 2) for k in crossing]
    assert ys == sorted(ys)
    assert len(ys) >= 2


def test_pt_good_edge(fan5):
    S = frozenset(sorted(oracle.enumerate_structures(fan5, "pt"))[0])
    for e in S:
        if geom.edge_crosses_line(e, 2):
            hull_edges = {(0, 1), (1, 3), (3, 4), (0, 4)}
            if e in hull_edges:
                assert tc.pt_good_edge(S, e, 2, fan5)
    with pytest.raises(InputError, match="does not cross l_2"):
        tc.pt_good_edge(S, (0, 1), 2, fan5)
    # a segment that crosses l_2 but is no edge of S (hull edges all are)
    e = next(f for f in fan5.segments
             if geom.edge_crosses_line(f, 2) and f not in S)
    with pytest.raises(InputError) as exc:
        tc.pt_good_edge(S, e, 2, fan5)
    assert str(exc.value) == f"edge {e} not in the structure"


def test_good_edges_are_path_crossings():
    # signpost rule agrees with the extracted path's crossing edges
    for n, seed in ((5, 20), (6, 21), (7, 22)):
        P = random_point_set(n, seed)
        for S in oracle.enumerate_structures(P, "pt"):
            for i in range(1, P.n):
                path = tc.extract_ptpath(S, i, P)
                crossing = {e for e in path.edges()
                            if geom.edge_crosses_line(e, i)}
                good = {e for e in S if geom.edge_crosses_line(e, i)
                        and tc.pt_good_edge(S, e, i, P)}
                assert good == crossing


def test_every_edge_on_some_ptpath(fan5):
    for S in oracle.enumerate_structures(fan5, "pt"):
        covered = set()
        for i in range(1, fan5.n):
            covered |= set(tc.extract_ptpath(S, i, fan5).edges())
        assert covered == set(S)


def test_successors_forced(tri3):
    k0 = (tri3.hull[1], 0, tri3.hull[-1])
    succ = tc.ptpath_successors(PTPath(k0, 1), tri3)
    assert len(succ) == 1


def test_successors_match_oracle(fan5):
    k0 = (fan5.hull[1], 0, fan5.hull[-1])
    succ = tc.ptpath_successors(PTPath(k0, 1), fan5)
    assert succ == ptpath.collect_paths(fan5, 2, "pt")


def test_successors_reject_invalid_parent(fan5):
    with pytest.raises(InputError):
        tc.ptpath_successors(PTPath((4, 0, 1), 1), fan5)


def test_successor_count_quartic():
    P = random_point_set(7, 23)
    c = 2  # generous constant for the O(n^4) population bound
    for i in range(1, P.n - 1):
        for k in ptpath.collect_paths(P, i, "pt"):
            assert len(tc.ptpath_successors(PTPath(k, i), P)) <= c * P.n ** 4


def test_validate_rejects_unpointed_chain():
    # a chain whose own edges surround one of its vertices is never a
    # PT-path; the search has no pointedness check of its own, so each
    # chain it finds must pass the validator's
    for n in range(5, 11):
        for seed in (31, 32, 33):
            P = random_point_set(n, 100 * n + seed)
            for i in range(1, P.n):
                for key in sweep.path_chains(P, i, True):
                    assert ptpath._all_pointed(chain_edges(key), P)


def _aliased(S, v, alias):
    """S with vertex v written as alias."""
    return frozenset(tuple(alias if u == v else u for u in e) for e in S)


# conv5's fan triangulation from vertex 0
CONV5_FAN = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3),
                       (3, 4)})

NON_SEGMENT = {
    # every lemma entry reads its pairs through PointSet.edge_masks; before,
    # each of these returned an answer for the aliased or out-of-range
    # vertex, or failed with an IndexError, TypeError or ValueError
    "flip": lambda fan5, conv5: tc.flip(_aliased(CONV5_FAN, 4, -1), (0, 2),
                                        conv5),
    "is_flippable": lambda fan5, conv5: tc.is_flippable(
        _aliased(CONV5_FAN, 4, -1), (0, 2), conv5),
    "is_good_edge": lambda fan5, conv5: tc.is_good_edge(
        _aliased(CONV5_FAN, 4, -1), (0, 2), 2, conv5),
    "pt_good_edge": lambda fan5, conv5: tc.pt_good_edge(
        _aliased(CONV5_FAN, 4, -1), (0, 2), 2, conv5),
    "is_pointed-9": lambda fan5, conv5: tc.is_pointed([(0, 9), (0, 1)], 0,
                                                      conv5),
    "pt_good_edge-edge": lambda fan5, conv5: tc.pt_good_edge(FAN5_S, (2, 2),
                                                             2, fan5),
    "flip-edge": lambda fan5, conv5: tc.flip(CONV5_FAN, (2, 2), conv5),
    "is_pointed-neg": lambda fan5, conv5: tc.is_pointed([(0, -1), (0, 1)], 0,
                                                        conv5),
    "validate_pseudotriangulation": lambda fan5, conv5:
        tc.validate_pseudotriangulation(_aliased(FAN5_PT, 0, -5), fan5),
    "reconstruct": lambda fan5, conv5: tc.reconstruct([(1, 0, -1)], fan5,
                                                      "tri"),
    "paths_cross": lambda fan5, conv5: tc.paths_cross((1, 0, -1), (1, 0, 4),
                                                      conv5),
    # a repeated vertex makes no chain edge
    "PTPath.edges": lambda fan5, conv5: PTPath((1, 1, 2), 1).edges(),
}


@pytest.mark.parametrize("name", sorted(NON_SEGMENT))
def test_a_non_segment_is_refused(fan5, conv5, name):
    with pytest.raises(InputError, match="not a segment"):
        NON_SEGMENT[name](fan5, conv5)


NOT_A_LINE = {
    # every lemma entry reads its line through geom.hull_crossing_edges;
    # unchecked, each of these would answer for a line that does not exist,
    # or fail with a TypeError or another message
    "extract_ptpath": lambda P: tc.extract_ptpath(FAN5_S, True, P),
    "extract_tpath": lambda P: tc.extract_tpath(FAN5_T, 1.0, P),
    "validate_ptpath-0": lambda P: tc.validate_ptpath(PTPath((1, 0, 4), 0), P),
    "validate_ptpath-1.5": lambda P: tc.validate_ptpath(
        PTPath((1, 0, 4), 1.5), P),
    "validate_tpath": lambda P: tc.validate_tpath(TPath((1, 0, 4), True), P),
    "ptpath_successors": lambda P: tc.ptpath_successors(
        PTPath((1, 0, 4), True), P),
    # a valid path at the last line has no line beyond it
    "tpath_successors-last": lambda P: tc.tpath_successors(
        tc.extract_tpath(FAN5_T, 4, P), P),
    "is_good_edge": lambda P: tc.is_good_edge(FAN5_T, (0, 2), 1.5, P),
    "pt_good_edge": lambda P: tc.pt_good_edge(FAN5_S, (1, 3), 0, P),
}


@pytest.mark.parametrize("name", sorted(NOT_A_LINE))
def test_a_bad_line_is_refused(fan5, name):
    with pytest.raises(InputError, match="not a sweep line"):
        NOT_A_LINE[name](fan5)


NOT_A_VERTEX = {
    # both validators read path vertices through PointSet.check_vertices,
    # after the line and before any vertex is compared or looked up; before,
    # these returned a Check (edge_not_crossing_line, bad_endpoints,
    # degenerate_edge for True read as vertex 1, too_short), raised a
    # TypeError, or were refused only as a segment further on
    "validate_ptpath-9": lambda P: tc.validate_ptpath(
        PTPath((1, 0, 2, 9, 4), 1), P),
    "validate_ptpath-neg": lambda P: tc.validate_ptpath(
        PTPath((1, 0, -1), 1), P),
    "ptpath_successors": lambda P: tc.ptpath_successors(
        PTPath((1, 0, 2, 9, 4), 1), P),
    "validate_ptpath-9-first": lambda P: tc.validate_ptpath(
        PTPath((9, 0, 4), 1), P),
    "validate_ptpath-str": lambda P: tc.validate_ptpath(
        PTPath((1, 0, "4"), 1), P),
    "validate_tpath-neg": lambda P: tc.validate_tpath(TPath((1, 0, -1), 1), P),
    "validate_tpath-7": lambda P: tc.validate_tpath(TPath((1, 0, 7, 4), 1), P),
    "validate_tpath-bool": lambda P: tc.validate_tpath(
        TPath((1, True, 4), 1), P),
    "validate_tpath-short": lambda P: tc.validate_tpath(TPath((9, 0), 1), P),
    "validate_tpath-9-first": lambda P: tc.validate_tpath(
        TPath((9, 0, 4), 1), P),
    "validate_tpath-str": lambda P: tc.validate_tpath(
        TPath((1, 0, "4"), 1), P),
    "tpath_successors": lambda P: tc.tpath_successors(
        TPath((1, 0, -1), 1), P),
}


@pytest.mark.parametrize("name", sorted(NOT_A_VERTEX))
def test_a_non_vertex_is_refused(fan5, name):
    with pytest.raises(InputError, match="^not a vertex: "):
        NOT_A_VERTEX[name](fan5)


@pytest.mark.parametrize("v", [9, 5, -1, True, 1.0])
def test_is_pointed_refuses_a_non_vertex(fan5, v):
    # unchecked, 9 and 5 would raise IndexError, -1 answer for vertex 4,
    # True for vertex 1, and 1.0 raise TypeError
    with pytest.raises(InputError, match="not a vertex"):
        tc.is_pointed([(0, 1), (0, 2), (0, 3)], v, fan5)


def test_pt_good_edge_reads_a_reversed_edge_as_its_segment(fan5):
    for i in range(1, fan5.n):
        for a, b in FAN5_S:
            if geom.edge_crosses_line((a, b), i):
                assert tc.pt_good_edge(FAN5_S, (b, a), i, fan5) == \
                    tc.pt_good_edge(FAN5_S, (a, b), i, fan5)
