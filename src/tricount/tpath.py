"""T-paths: chains of triangulation edges crossing a sweep line.

A chain is a valid T-path w.r.t. l_i when every consecutive vertex pair is
an edge crossing l_i, the first and last edges are the two hull edges
crossed by l_i (lowest crossing first), the crossing ordinates strictly
increase, no edge repeats, the edges are pairwise non-crossing, and every
wedge spanned by two consecutive edges is empty.

A T-path is a PT-path whose excursions are single vertices, so validation
adds the T-only checks to validate_ptpath, and extraction and successors
are ptpath's bodies with zigzag off and the triangulation's PathSystem.
Its own lemmas are paths_cross, flips and good edges.
"""

from __future__ import annotations

from typing import Optional

from . import geom
from .errors import EdgeDoesNotCrossLine, EdgeNotInTriangulation, NotFlippable
from .geom import EdgeSet, PointSet, Segment, seg
# chain_edges: importable beside the T-path lemmas
from .ptpath import (Check, PTPath, chain_edges, extract_path,
                     path_successors, validate_ptpath)
from .sweep import TRI_SYSTEM, PathKey


class TPath(PTPath):
    """A PT-path whose excursions are single vertices."""
    __slots__ = ()


def paths_cross(k1: PathKey, k2: PathKey, P: PointSet) -> bool:
    blocked = P.edge_masks(zip(k1, k1[1:]))[1]
    return bool(blocked & P.edge_masks(zip(k2, k2[1:]))[0])


# -- validation ----------------------------------------------------------

def validate_tpath(path: TPath, P: PointSet) -> Check:
    """The T-only checks, then validate_ptpath, which decides the rest:

    - every edge crosses l_i, so each excursion is one vertex v, entered
      from q and left to w;
    - vw crosses the line above qv iff v is a convex corner, so
      not_pseudo_triangle cannot fire once the order check passes;
    - region_empty(P, i, q, [v], w) is the wedge;
    - all of v's edges cross to the other side of l_i, so the union is
      pointed.
    """
    vs, i = path.vertices, path.line
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
    return validate_ptpath(path, P)


# -- extraction and successors ------------------------------------------

def extract_tpath(T: EdgeSet, i: int, P: PointSet) -> TPath:
    """The unique T-path of triangulation T w.r.t. l_i."""
    return TPath(extract_path(T, i, P, False), i)


def tpath_successors(path: TPath, P: PointSet) -> set[PathKey]:
    """All T-paths at l_{i+1} compatible (non-crossing) with the given path."""
    return path_successors(path, P, TRI_SYSTEM, validate_tpath)


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
