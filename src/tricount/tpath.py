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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence

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
EdgeSet = FrozenSet[Segment]


@dataclass(frozen=True)
class Check:
    """Validation outcome with a machine-readable reason code."""
    ok: bool
    reason: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class TPath:
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
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            if P.segments_cross(edges[a], edges[b]):
                return Check(False, "edges_cross")
    return Check(True)


# -- chain search --------------------------------------------------------

def tpath_chains(P: PointSet, i: int,
                 pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """All valid T-path chains w.r.t. l_i: the path population.

    With a pool, candidate edges are restricted to it (extraction from a
    triangulation).
    """
    lo, hi = geom.hull_crossing_edges(P, i)
    out: list[PathKey] = []

    def extend(chain: list[int], used: set[Segment], last: Segment) -> None:
        v = chain[-1]
        prev = chain[-2]
        for w in range(P.n):
            if P.side(w, i) == P.side(v, i):
                continue
            e = seg(v, w)
            if e in used or (pool is not None and e not in pool):
                continue
            if not P.above(e, last):
                continue
            if not geom.wedge_empty(prev, v, w, i, P):
                continue
            if pool is None and any(P.segments_cross(e, f) for f in used):
                continue
            if e == hi:
                out.append(tuple(chain) + (w,))
                continue
            chain.append(w)
            used.add(e)
            extend(chain, used, e)
            used.discard(e)
            chain.pop()

    if pool is not None and (lo not in pool or hi not in pool):
        return []
    a, b = lo
    for start in ((a, b), (b, a)):
        if lo == hi:  # cannot happen: two distinct hull edges cross l_i
            raise InternalInvariantViolation("hull crossing edges coincide")
        extend([start[0], start[1]], {lo}, lo)
    return out


def extract_tpath(T: EdgeSet, i: int, P: PointSet) -> TPath:
    """The unique T-path of triangulation T w.r.t. l_i."""
    chains = tpath_chains(P, i, pool=frozenset(T))
    if len(chains) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one T-path at l_{i}, found {len(chains)}")
    return TPath(chains[0], i)


def tpath_join(P: PointSet, parents: Sequence[PathKey],
               children: Sequence[PathKey]) -> list[list[PathKey]]:
    """For each parent, the children compatible with it, in children's order.

    Two chains are compatible iff no edge of one properly crosses an edge of
    the other.  Over bitmasks of all segments of P that is one AND per pair:
    the child's crossing mask against the parent's edge mask.
    """
    index, cross = P.crossing_table()
    crossed = []
    for c in children:
        m = 0
        for e in chain_edges(c):
            m |= cross[index[e]]
        crossed.append(m)
    out = []
    for k in parents:
        m = 0
        for e in chain_edges(k):
            m |= 1 << index[e]
        out.append([c for c, cm in zip(children, crossed) if not cm & m])
    return out


def tpath_successors(path: TPath, P: PointSet) -> set[PathKey]:
    """All T-paths at l_{i+1} compatible (non-crossing) with the given path."""
    check = validate_tpath(path, P)
    if not check:
        raise PreconditionViolated(f"invalid parent T-path: {check.reason}")
    if path.line >= P.n - 1:
        raise PreconditionViolated("no line beyond the last sweep position")
    (succ,) = tpath_join(P, [path.vertices], tpath_chains(P, path.line + 1))
    return set(succ)


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
