"""T-paths: chains of triangulation edges crossing a sweep line.

A chain is a valid T-path w.r.t. l_i when every consecutive vertex pair is
an edge crossing l_i, the first and last edges are the two hull edges
crossed by l_i (lowest crossing first), the crossing ordinates strictly
increase, no edge repeats, the edges are pairwise non-crossing, and every
wedge spanned by two consecutive edges is empty.

Validity is exactly membership in the path population: a valid chain
extends to some triangulation (complete its edge set to a maximal
non-crossing one) and is then, by uniqueness, that triangulation's T-path.
So extraction and population building are one constrained depth-first
chain search, path_chains, which also finds PT-paths: a T-path is a
PT-path whose excursions are single vertices, and its wedges are their
regions.  Successors come from joining two populations, child-major: each
child gets the ascending indices of its compatible parents, read off
per-segment bitmasks of the parents; the PT-path join adds a pointedness
filter.  Both families' engine lives here, ptpath keeps the PT-path API.
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
    return 3 * P.n - 3 - len(P.hull)


def adjacency(edges: Iterable[Segment], n: int) -> list[int]:
    """Bitmask of each vertex's neighbours in the edge set."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


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

def path_chains(P: PointSet, i: int, zigzag: bool,
                pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """The path population at l_i, strictly ascending: every valid PT-path
    chain if zigzag, else every valid T-path chain (at l_1 the forced
    chain, the hull edges at vertex 0).

    A T-path is a PT-path whose excursions are single vertices, so without
    zigzag the search never moves along one side of l_i.  It carries one
    bitmask over P.segments, the chain's edges and every segment crossing
    one, and the open excursion as a vertex mask with its convex-turn count
    and entry edge.  With a pool (extraction from a structure), every
    segment outside it starts out blocked.  The output is ascending: the
    next vertex is tried in ascending order, same-side and cross-back
    candidates in one loop, and every chain ends at the upper hull edge.

    A one-vertex excursion v, entered from q, closes at a w that makes v a
    convex corner.  Such a w is left of qv directed rightwards, so vw
    crosses l_i above qv (PointSet.above with a shared endpoint), and the
    region is triangle q v w clipped to v's side: a T-path's wedge.  A
    longer excursion must close above its entry edge around an empty
    region (geom.region_empty).

    Every chain found is pointed, so no final check runs.  The regions
    that a vertex v's excursions close on its side are interior-disjoint,
    and no chain edge enters one.  If v is reflex in one, its angle at v is
    an edge-free gap larger than pi.  Otherwise v is the convex corner of
    each, which then lies in the triangle of v and its two crossing points
    on the line, so all of v's edges point strictly toward the line.  The
    end vertices are hull vertices, which are always pointed.
    """
    lo, hi = geom.hull_crossing_edges(P, i)
    cross, eid, left, above = P.cross, P.ids, P.left, P.above
    top = eid[hi[0]][hi[1]]
    full = (1 << P.n) - 1
    left_of_line = (1 << i) - 1
    right_of_line = full ^ left_of_line
    out: list[PathKey] = []

    def extend(chain: list[int], blocked: int, exc: int, convex: int,
               last: Segment) -> None:
        v, q = chain[-1], chain[-2]
        # turn: the w that make v a convex corner, left of directed xy; the
        # excursion polygon runs CCW on the right of the line, CW on the left
        if v >= i:
            here, x, y = right_of_line, q, v
        else:
            here, x, y = left_of_line, v, q
        turn = left[x][y]
        # stay on this side (at most one convex turn, no vertex twice), or
        # cross back after exactly one convex turn
        if not zigzag:
            cands = turn & ~here
        elif convex:
            cands = (here & ~exc | full & ~here) & ~turn
        else:
            cands = here & ~exc | turn & ~here
        # the open excursion is the chain's last m vertices, entered by the
        # crossing edge last
        m = exc.bit_count()
        if m == 1:
            # a one-vertex close at w: triangle x y w (CCW) empty on v's side
            tri, ly = turn & here, left[y]
        ids = eid[v]
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            k = ids[w]
            if blocked >> k & 1:
                continue
            if low & here:
                chain.append(w)
                extend(chain, blocked | 1 << k | cross[k], exc | low,
                       convex + (turn >> w & 1), last)
                chain.pop()
                continue
            e = (v, w) if v < w else (w, v)
            if m == 1:
                if tri & ly[w] & left[w][x]:
                    continue
            elif not (above(e, last) and geom.region_empty(
                    P, i, chain[-m - 1], chain[-m:], w)):
                continue
            if k == top:
                out.append(tuple(chain) + (w,))
                continue
            chain.append(w)
            extend(chain, blocked | 1 << k | cross[k], low, 0, e)
            chain.pop()

    a, b = lo
    k = eid[a][b]
    blocked = 1 << k | cross[k]
    if pool is not None:
        outside = ~P.edge_masks(pool)[0]
        if outside >> k & 1:
            return out
        blocked |= outside
    for v0, v1 in ((a, b), (b, a)):
        extend([v0, v1], blocked, 1 << v1, 0, lo)
    return out


def tpath_chains(P: PointSet, i: int,
                 pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """The T-path population at l_i (path_chains without zigzag)."""
    return path_chains(P, i, False, pool)


def ptpath_chains(P: PointSet, i: int,
                  pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """The PT-path population at l_i (path_chains with zigzag)."""
    return path_chains(P, i, True, pool)


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
    cross, eid = P.cross, P.ids
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


def ptpath_join(P: PointSet, parents: Sequence[PathKey],
                children: Sequence[PathKey]) -> Iterator[list[int]]:
    """For each child in turn, the ascending indices of the parents
    compatible with it as PT-paths.

    Compatible means non-crossing (tpath_join) with a pointed edge union.
    Each chain of a population is pointed on its own, so only the vertices
    both chains touch can fail; they are checked on tpath_join's
    candidates only.
    """
    adj = [adjacency(chain_edges(k), P.n) for k in parents]
    for c, js in zip(children, tpath_join(P, parents, children)):
        ac = adjacency(chain_edges(c), P.n)
        vs = set(c)
        yield [j for j in js if all(P.pointed(v, adj[j][v] | ac[v])
                                    for v in vs.intersection(parents[j]))]


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
