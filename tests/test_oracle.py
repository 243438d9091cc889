import pytest

import tricount as tc
from tricount import oracle, ptpath
from tricount.errors import ResourceRefusal

from conftest import catalan, conv_points, random_point_set


def test_catalan():
    assert [catalan(m) for m in range(9)] == \
        [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_triangulation_counts(fan5, conv6, tri3):
    assert len(oracle.enumerate_structures(tri3, "tri")) == 1
    assert len(oracle.enumerate_structures(conv6, "tri")) == 14
    assert len(oracle.enumerate_structures(fan5, "tri")) == 3


def test_pt_counts(fan5, conv5, tri3):
    assert len(oracle.enumerate_structures(tri3, "pt")) == 1
    assert len(oracle.enumerate_structures(conv5, "pt")) == 5
    # golden value pinned by this enumerator
    assert len(oracle.enumerate_structures(fan5, "pt")) == 8


def test_convex_position_catalan():
    # in convex position every pointed pseudo-triangulation is a
    # triangulation; each family runs up to its oracle guard
    for fam, guard in (("tri", oracle.TRI_GUARD), ("pt", oracle.PT_GUARD)):
        for n in range(3, guard + 1):
            P = tc.validate_point_set(conv_points(n))
            assert len(oracle.enumerate_structures(P, fam)) == \
                catalan(n - 2)


def test_structure_invariants(fan5):
    for P in [fan5] + [random_point_set(n, 300 + n) for n in range(5, 10)]:
        n, hull, hull_edges = P.n, P.hull, set(P.hull_edges)
        tri = oracle.enumerate_structures(P, "tri")
        assert len(set(tri)) == len(tri)
        for T in tri:
            assert hull_edges <= T
            assert len(T) == 3 * n - 3 - len(hull)
            emask, blocked = P.edge_masks(T)
            assert not emask & blocked
        pt = oracle.enumerate_structures(P, "pt")
        assert len(set(pt)) == len(pt)
        for S in pt:
            assert hull_edges <= S
            assert len(S) == 2 * n - 3
            assert tc.validate_pseudotriangulation(S, P)


@pytest.mark.parametrize("fam,n", [("tri", 11), ("tri", 12), ("pt", 9),
                                   ("pt", 10)])
def test_oracle_matches_sweep_at_guard(fam, n):
    for seed in range(3):
        P = random_point_set(n, 400 + 10 * n + seed)
        assert len(oracle.enumerate_structures(P, fam)) == \
            tc.run_sweep(tc.system_for(fam), P)[0]


def test_guards():
    P = random_point_set(13, 1)
    with pytest.raises(ResourceRefusal,
                       match="n=13 exceeds triangulation oracle guard 12"):
        oracle.enumerate_structures(P, "tri")
    Q = random_point_set(11, 2)
    with pytest.raises(ResourceRefusal,
                       match="n=11 exceeds pseudo-triangulation oracle guard 10"):
        oracle.enumerate_structures(Q, "pt")


def test_cap(conv6):
    with pytest.raises(ResourceRefusal, match="more than 5 structures"):
        oracle.enumerate_structures(conv6, "tri", cap=5)


def test_collect_paths(fan5, conv5):
    for fam in ("tri", "pt"):
        assert len(ptpath.collect_paths(fan5, 1, fam)) == 1
    tri = oracle.enumerate_structures(conv5, "tri")
    for i in range(1, conv5.n):
        assert len(ptpath.collect_paths(conv5, i, "tri")) <= len(tri)


def triangulations_via_flips(P, start):
    """Closure of a triangulation under diagonal flips."""
    seen = {start}
    queue = [start]
    while queue:
        T = queue.pop()
        for e in T:
            if tc.is_flippable(T, e, P):
                T2 = tc.flip(T, e, P)
                if T2 not in seen:
                    seen.add(T2)
                    queue.append(T2)
    return seen


def test_flip_closure_matches_enumeration(fan5):
    for P in (fan5, random_point_set(6, 5), random_point_set(7, 6)):
        res = oracle.enumerate_structures(P, "tri")
        closure = triangulations_via_flips(P, res[0])
        assert closure == set(res)


def test_enumeration_is_the_sorted_list(fan5):
    for fam in ("tri", "pt"):
        structures = oracle.enumerate_structures(fan5, fam)
        assert type(structures) is list
        assert structures == sorted(structures, key=sorted)


def test_enumerate_structures_dispatch(tri3):
    with pytest.raises(ValueError):
        oracle.enumerate_structures(tri3, "x")
