"""T-paths: chains of triangulation edges crossing a sweep line.

A chain is a valid T-path w.r.t. l_i when every consecutive vertex pair is
an edge crossing l_i, the first and last edges are the two hull edges
crossed by l_i (lowest crossing first), the crossing ordinates strictly
increase, no edge repeats, the edges are pairwise non-crossing, and every
wedge spanned by two consecutive edges is empty.

Validity is exactly membership in the path population: a valid chain
extends to some triangulation (complete its edge set to a maximal
non-crossing one) and is then, by uniqueness, that triangulation's T-path.
This is what lets extraction and population building share one
constrained depth-first chain search instead of a case analysis, and lets
successors be found by joining two populations instead of searching again.
The join is child-major: each child gets the ascending indices of its
compatible parents, read off per-segment bitmasks of the parents.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import geom
from .errors import (
    EdgeNotInTriangulation,
    EdgeDoesNotCrossLine,
    InternalInvariantViolation,
    NotFlippable,
    PreconditionViolated,
)
from .geom import PointSet, Segment, seg

PathKey = tuple[int, ...]
EdgeSet = frozenset[Segment]


class Check(NamedTuple):
    """Validation outcome with a machine-readable reason code."""
    ok: bool
    reason: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


class TPath(NamedTuple):
    vertices: PathKey
    line: int

    def edges(self) -> list[Segment]:
        return chain_edges(self.vertices)


def chain_edges(vertices: Iterable[int]) -> list[Segment]:
    vs = list(vertices)
    return [seg(vs[k], vs[k + 1]) for k in range(len(vs) - 1)]


def triangulation_edge_target(P: PointSet) -> int:
    return 3 * P.n - 3 - len(P.convex_hull())


# -- validation ----------------------------------------------------------

def validate_tpath(path: TPath, P: PointSet) -> Check:
    vs = path.vertices
    i = path.line
    if not 1 <= i <= P.n - 1:
        return Check(False, "bad_line_index")
    if len(vs) < 3:
        return Check(False, "too_short")
    edges = []
    for k in range(len(vs) - 1):
        if vs[k] == vs[k + 1]:
            return Check(False, "degenerate_edge")
        e = seg(vs[k], vs[k + 1])
        if not geom.edge_crosses_line(e, i):
            return Check(False, "edge_not_crossing_line")
        edges.append(e)
    if len(set(edges)) != len(edges):
        return Check(False, "repeated_edge")
    lo, hi = geom.hull_crossing_edges(P, i)
    if edges[0] != lo or edges[-1] != hi:
        return Check(False, "bad_endpoints")
    if not all(P.above(f, e) for e, f in zip(edges, edges[1:])):
        return Check(False, "crossings_not_increasing")
    for k in range(1, len(vs) - 1):
        if not geom.wedge_empty(vs[k - 1], vs[k], vs[k + 1], i, P):
            return Check(False, "wedge_not_empty")
    emask, blocked = P.edge_masks(edges)
    if emask & blocked:
        return Check(False, "edges_cross")
    return Check(True)


# -- chain search --------------------------------------------------------

def tpath_chains(P: PointSet, i: int,
                 pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """All valid T-path chains w.r.t. l_i: the path population.

    With a pool, candidate edges are restricted to it (extraction from a
    triangulation).  The search carries one bitmask over the crossing
    table's segments: the chain's edges and every segment crossing one.
    """
    lo, hi = geom.hull_crossing_edges(P, i)
    cross = P.crossing_table()[1]
    eid = P.segment_ids()
    left, inside = P.left_table(), P.inside
    left_of_line = (1 << i) - 1
    out: list[PathKey] = []

    def extend(chain: list[int], blocked: int) -> None:
        v = chain[-1]
        prev = chain[-2]
        # the next edge vw crosses l_i above the last one, v prev, iff w is
        # left of that edge directed rightwards (PointSet.above with a
        # shared endpoint); the wedge at v is triangle (prev, v, w) clipped
        # to v's side
        if v < i:
            cands, side = left[v][prev] & ~left_of_line, left_of_line
        else:
            cands, side = left[prev][v] & left_of_line, ~left_of_line
        ids = eid[v]
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            k = ids[w]
            if blocked >> k & 1 or inside(prev, v, w) & side:
                continue
            e = (v, w) if v < w else (w, v)
            if pool is not None and e not in pool:
                continue
            if e == hi:
                out.append(tuple(chain) + (w,))
                continue
            chain.append(w)
            extend(chain, blocked | 1 << k | cross[k])
            chain.pop()

    if pool is not None and (lo not in pool or hi not in pool):
        return []
    a, b = lo
    k = eid[a][b]
    for start in ((a, b), (b, a)):
        extend(list(start), 1 << k | cross[k])
    return out


def extract_tpath(T: EdgeSet, i: int, P: PointSet) -> TPath:
    """The unique T-path of triangulation T w.r.t. l_i."""
    chains = tpath_chains(P, i, pool=frozenset(T))
    if len(chains) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one T-path at l_{i}, found {len(chains)}")
    return TPath(chains[0], i)


def tpath_join(P: PointSet, parents: Sequence[PathKey],
               children: Sequence[PathKey]) -> Iterator[list[int]]:
    """For each child in turn, the ascending indices of the parents
    compatible with it.

    Two chains are compatible iff no edge of one properly crosses an edge of
    the other.  Each segment gets the bitmask of the parents that use it;
    the parents a child edge crosses are the OR of those masks over the
    segments it crosses, and a child keeps the parents none of its edges
    crosses.  A child costs one word-parallel OR per edge and one step per
    compatible parent, not one test per parent.
    """
    cross = P.crossing_table()[1]
    eid = P.segment_ids()
    # segment index -> bitmask of the parents using it, set bytewise:
    # setting bit j of an int would copy the whole mask each time
    rows = defaultdict(lambda: bytearray(len(parents) // 8 + 1))
    for j, k in enumerate(parents):
        for a, b in zip(k, k[1:]):
            rows[eid[a][b]][j >> 3] |= 1 << (j & 7)
    users = [(x, int.from_bytes(row, "little")) for x, row in rows.items()]
    full = (1 << len(parents)) - 1
    crossed: dict[int, int] = {}  # child edge -> the parents it crosses
    for c in children:
        m = 0
        for a, b in zip(c, c[1:]):
            x = eid[a][b]
            if x not in crossed:
                crossed[x] = reduce(or_, (u for y, u in users
                                          if cross[x] >> y & 1), 0)
            m |= crossed[x]
        m = full & ~m
        js = []
        while m:
            low = m & -m
            js.append(low.bit_length() - 1)
            m ^= low
        yield js


def tpath_successors(path: TPath, P: PointSet) -> set[PathKey]:
    """All T-paths at l_{i+1} compatible (non-crossing) with the given path."""
    check = validate_tpath(path, P)
    if not check:
        raise PreconditionViolated(f"invalid parent T-path: {check.reason}")
    if path.line >= P.n - 1:
        raise PreconditionViolated("no line beyond the last sweep position")
    children = tpath_chains(P, path.line + 1)
    return {c for c, js in zip(children,
                               tpath_join(P, [path.vertices], children))
            if js}


# -- flips and good edges ------------------------------------------------

def _opposite_vertices(T: EdgeSet, e: Segment, P: PointSet) -> list[int]:
    # c spans a face with e iff both side edges exist and abc is empty
    a, b = e
    out = []
    for c in range(P.n):
        if c in e:
            continue
        if seg(a, c) in T and seg(b, c) in T and P.triangle_empty(a, b, c):
            out.append(c)
    return out


def is_flippable(T: EdgeSet, e: Segment, P: PointSet) -> bool:
    if e not in T:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    opp = _opposite_vertices(T, e, P)
    if len(opp) < 2:
        return False  # hull edge
    r, s = opp
    return P.segments_cross(seg(r, s), e)


def is_good_edge(T: EdgeSet, e: Segment, i: int, P: PointSet) -> bool:
    """Flippable and the two opposite vertices straddle l_i."""
    if e not in T:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    if not geom.edge_crosses_line(e, i):
        raise EdgeDoesNotCrossLine(f"edge {e} does not cross l_{i}")
    if not is_flippable(T, e, P):
        return False
    r, s = _opposite_vertices(T, e, P)
    return P.side(r, i) != P.side(s, i)


def flip(T: EdgeSet, e: Segment, P: PointSet) -> EdgeSet:
    if e not in T:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    if not is_flippable(T, e, P):
        raise NotFlippable(f"edge {e} is not flippable")
    r, s = _opposite_vertices(T, e, P)
    return frozenset(T - {e} | {seg(r, s)})
