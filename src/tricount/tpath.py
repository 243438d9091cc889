"""T-paths: chains of triangulation edges crossing a sweep line.

A chain is a valid T-path w.r.t. l_i when every consecutive vertex pair is
an edge crossing l_i, the first and last edges are the two hull edges
crossed by l_i (lowest crossing first), the crossing ordinates strictly
increase, no edge repeats, the edges are pairwise non-crossing, and every
wedge spanned by two consecutive edges is empty.

Validity is exactly membership in the path population: a valid chain
extends to some triangulation (complete its edge set to a maximal
non-crossing one) and is then, by uniqueness, that triangulation's T-path.
So extraction is the engine's chain search (sweep.tpath_chains) with
every segment outside the triangulation blocked, and successors are the
engine's join (sweep.tpath_join) of one parent with the next population.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import geom
from .errors import (
    EdgeNotInTriangulation,
    EdgeDoesNotCrossLine,
    InternalInvariantViolation,
    NotFlippable,
    PreconditionViolated,
)
from .geom import EdgeSet, PointSet, Segment, seg
from .sweep import PathKey, tpath_chains, tpath_join


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


def paths_cross(k1: PathKey, k2: PathKey, P: PointSet) -> bool:
    blocked = P.edge_masks(zip(k1, k1[1:]))[1]
    return bool(blocked & P.edge_masks(zip(k2, k2[1:]))[0])


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


# -- extraction and successors ------------------------------------------

def extract_tpath(T: EdgeSet, i: int, P: PointSet) -> TPath:
    """The unique T-path of triangulation T w.r.t. l_i."""
    chains = tpath_chains(P, i, pool=frozenset(T))
    if len(chains) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one T-path at l_{i}, found {len(chains)}")
    return TPath(chains[0], i)


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

def _flip_diagonal(T: EdgeSet, e: Segment, P: PointSet) -> Optional[Segment]:
    """The diagonal rs that replaces e in a flip, or None if e is not
    flippable (a hull edge, or its two faces form a reflex quadrilateral)."""
    if e not in T:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    # c spans a face with e iff both side edges exist and abc is empty
    a, b = e
    opp = [c for c in range(P.n) if c not in e and seg(a, c) in T
           and seg(b, c) in T and not P.inside(a, b, c)]
    if len(opp) < 2:
        return None  # hull edge
    r, s = opp
    rs = seg(r, s)
    return rs if P.segments_cross(rs, e) else None


def is_flippable(T: EdgeSet, e: Segment, P: PointSet) -> bool:
    return _flip_diagonal(T, e, P) is not None


def is_good_edge(T: EdgeSet, e: Segment, i: int, P: PointSet) -> bool:
    """Flippable and the two opposite vertices straddle l_i."""
    rs = _flip_diagonal(T, e, P)
    if not geom.edge_crosses_line(e, i):
        raise EdgeDoesNotCrossLine(f"edge {e} does not cross l_{i}")
    return rs is not None and geom.edge_crosses_line(rs, i)


def flip(T: EdgeSet, e: Segment, P: PointSet) -> EdgeSet:
    rs = _flip_diagonal(T, e, P)
    if rs is None:
        raise NotFlippable(f"edge {e} is not flippable")
    return frozenset(T - {e} | {rs})
