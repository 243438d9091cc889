"""PT-paths and T-paths: the paper's lemma API for both families.

PT-paths are zig-zag chains of pointed pseudo-triangulation edges.

A chain is a valid PT-path w.r.t. l_i when its crossing edges have strictly
increasing ordinates with the two hull crossing edges first and last, each
maximal sub-chain between consecutive crossings (an "excursion") stays on
one side and bounds, together with the line, an empty pseudo-triangle, the
edges are pairwise non-crossing, and the chain's own edge union is pointed.

A pseudo-triangle has exactly three convex corners; two of them always sit
at the line crossings, so the structural test reduces to "exactly one
convex turn among the excursion vertices" plus region emptiness.

Validity coincides with membership in the population: a valid chain
completes to a maximal planar pointed edge set, of which it is the unique
PT-path.  So extraction is the engine's chain search with every segment
outside the structure blocked, once the draws' verdict on an edge set,
sampler.structure_fault, has passed it, and successors are the engine's
join of one parent with the next population.

T-paths are the PT-paths whose excursions are single vertices: every edge
crosses l_i, and every wedge spanned by two consecutive edges is empty.
Their validation adds those checks to validate_ptpath, and extraction and
successors are the same bodies with zigzag off.  Their own lemmas are
paths_cross, flips and good edges.

Nothing in the package imports this module: count and sample run the
engine alone, and the oracle is the reference it is tested against.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Callable, Iterable, NamedTuple, Optional

from . import geom
from .errors import InputError, InternalInvariantViolation, shown, system_for
from .geom import EdgeSet, PointSet, Segment, adjacency, bits, seg
from .oracle import addable, enumerate_structures
from .sampler import structure_fault
from .sweep import PathKey, join, path_chains


class Check(NamedTuple):
    """Validation outcome with a machine-readable reason code."""
    ok: bool
    reason: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


class PTPath(NamedTuple):
    vertices: PathKey
    line: int

    def edges(self) -> list[Segment]:
        return chain_edges(self.vertices)


def chain_edges(vertices: Iterable[int]) -> list[Segment]:
    vs = list(vertices)
    return [seg(vs[k], vs[k + 1]) for k in range(len(vs) - 1)]


# -- pointedness ---------------------------------------------------------

def is_pointed(edges: Iterable[Segment], v: int, P: PointSet) -> bool:
    """True iff v's incident edges leave an angular gap larger than pi.

    Isolated vertices are pointed by convention.
    """
    geom.check_point_set(P)
    P.check_vertices([v])
    segs, emask = P.segments, P.edge_masks(edges)[0]
    return P.pointed(v, adjacency((segs[k] for k in bits(emask)), P.n)[v])


def _all_pointed(edges: Iterable[Segment], P: PointSet) -> bool:
    return all(P.pointed(v, m) for v, m in enumerate(adjacency(edges, P.n)))


def validate_pseudotriangulation(edges: Iterable[Segment], P: PointSet) -> Check:
    """Maximal planar pointed edge set check by the definition, segment by
    segment: the reference for sampler.structure_fault's edge count."""
    geom.check_point_set(P)
    emask, blocked = P.edge_masks(edges)
    segs = P.segments
    if blocked & emask:
        return Check(False, "edges_cross")
    adj = adjacency((segs[k] for k in bits(emask)), P.n)
    if not all(P.pointed(v, m) for v, m in enumerate(adj)):
        return Check(False, "not_pointed")
    free = ((1 << len(segs)) - 1) & ~(emask | blocked)
    if any(addable(P, adj, *segs[k]) for k in bits(free)):
        return Check(False, "not_maximal")
    return Check(True)


# -- extraction and successors ------------------------------------------

def _structure_mask(S: EdgeSet, P: PointSet, zigzag: bool) -> int:
    """S's mask over P.segments, if S is a pointed pseudo-triangulation
    (zigzag) or a triangulation; else InputError with the fault's reason."""
    geom.check_point_set(P)
    emask, blocked = P.edge_masks(S)
    if fault := structure_fault(P, zigzag, emask, blocked):
        raise InputError(
            f"edge set is not a {'pseudo-' * zigzag}triangulation: {fault}")
    return emask


def extract_path(S: EdgeSet, i: int, P: PointSet, zigzag: bool) -> PathKey:
    """The vertices of structure S's unique path w.r.t. l_i: its PT-path
    if zigzag, else (S a triangulation) its T-path.  S is checked first,
    since a non-structure can hold exactly one chain too; a structure
    without exactly one is a bug."""
    emask = _structure_mask(S, P, zigzag)
    chains = path_chains(P, i, zigzag, ~emask)
    if len(chains) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one path at l_{i}, found {len(chains)}")
    return chains[0]


def collect_paths(P: PointSet, i: int, family: str) -> set[PathKey]:
    """Reference path population: extract from every enumerated structure."""
    zigzag = system_for(family)
    return {extract_path(S, i, P, zigzag)
            for S in enumerate_structures(P, family)}


def path_successors(path: PTPath, P: PointSet, zigzag: bool,
                    validate: Callable) -> set[PathKey]:
    """The paths at l_{i+1} compatible with a valid path: the join of it
    with the next population (the door refuses i + 1 = n by name)."""
    check = validate(path, P)
    if not check:
        raise InputError(f"invalid parent path: {check.reason}")
    children = path_chains(P, path.line + 1, zigzag)
    joined = join(P, [path.vertices], children, zigzag)
    return {c for c, js in zip(children, joined) if js}


def extract_ptpath(S: EdgeSet, i: int, P: PointSet) -> PTPath:
    """The unique PT-path of pseudo-triangulation S w.r.t. l_i."""
    return PTPath(extract_path(S, i, P, True), i)


def ptpath_successors(path: PTPath, P: PointSet) -> set[PathKey]:
    """PT-paths at l_{i+1} non-crossing with path and jointly pointed."""
    return path_successors(path, P, True, validate_ptpath)


# -- validation ----------------------------------------------------------

def _path(path: PTPath) -> PTPath:
    """Refuse anything but a PTPath (a TPath is one) before it is read."""
    if not isinstance(path, PTPath):
        raise InputError(f"not a path: {shown(path)}")
    return path


def validate_ptpath(path: PTPath, P: PointSet) -> Check:
    vs, i = _path(path)
    lo, hi = geom.hull_crossing_edges(P, i)
    P.check_vertices(vs)
    if len(vs) < 3:
        return Check(False, "too_short")
    if any(a == b for a, b in zip(vs, vs[1:])):
        return Check(False, "degenerate_edge")
    edges = chain_edges(vs)
    if edges[0] != lo:
        return Check(False, "bad_endpoints")
    emask, blocked = P.edge_masks(edges)

    left = P.left
    last = lo
    exc_prev = vs[0]
    exc = [vs[1]]
    convex = 0
    for k in range(1, len(vs) - 1):
        v, w = vs[k], vs[k + 1]
        q = exc[-2] if len(exc) > 1 else exc_prev
        # the excursion polygon runs CCW on the right of the line, CW on
        # the left: a convex turn at v puts w left of qv on the right side
        convex += (left[q][v] >> w & 1) == (v >= i)
        e = seg(v, w)
        if (w < i) == (v < i):
            if w in exc:
                return Check(False, "excursion_vertex_repeat")
            exc.append(w)
        else:
            if not P.above(e, last):
                return Check(False, "crossings_not_increasing")
            if convex != 1:
                return Check(False, "not_pseudo_triangle")
            if not geom.region_empty(P, i, exc_prev, exc, w):
                return Check(False, "region_not_empty")
            exc_prev, exc, convex, last = v, [w], 0, e
    # hi crosses l_i, so ending on it closes the last excursion
    if edges[-1] != hi:
        return Check(False, "bad_endpoints")
    if emask & blocked:
        return Check(False, "edges_cross")
    if not _all_pointed(set(edges), P):
        return Check(False, "not_pointed")
    return Check(True)


# -- signpost edges ------------------------------------------------------

def pt_good_edge(S: EdgeSet, e: Segment, i: int, P: PointSet) -> bool:
    """Signpost test for a crossing edge of S.

    Hull edges are always good; otherwise the supporting line of e must
    meet the supporting lines of the crossing edges immediately above and
    below on different sides of l_i.
    """
    lo, hi = geom.hull_crossing_edges(P, i)
    smask, k = _structure_mask(S, P, True), P.edge_masks([e])[0]
    e = seg(*e)  # a reversed pair is its segment
    if not geom.edge_crosses_line(e, i):
        raise InputError(f"edge {e} does not cross l_{i}")
    if not smask & k:
        raise InputError(f"edge {e} not in the structure")
    if e in (lo, hi):
        return True
    crossing = sorted((P.segments[x] for x in bits(smask)
                       if geom.edge_crosses_line(P.segments[x], i)),
                      key=cmp_to_key(lambda f, g: 1 if P.above(f, g) else -1))
    pos = crossing.index(e)
    if pos == 0 or pos == len(crossing) - 1:
        raise InternalInvariantViolation(
            "non-hull crossing edge at the extreme of the crossing order")
    pa, pb = P.points[e[0]], P.points[e[1]]

    def turn(f: Segment) -> int:
        # cross product of the left-to-right directions of e and f
        qa, qb = P.points[f[0]], P.points[f[1]]
        return ((pb[0] - pa[0]) * (qb[1] - qa[1])
                - (pb[1] - pa[1]) * (qb[0] - qa[0]))

    # a line above e meets it right of l_i iff it turns clockwise from e,
    # a line below iff counterclockwise; parallel lines meet on the right
    return (turn(crossing[pos + 1]) <= 0) != (turn(crossing[pos - 1]) >= 0)


# -- T-paths -------------------------------------------------------------

class TPath(PTPath):
    """A PT-path whose excursions are single vertices."""
    __slots__ = ()


def paths_cross(k1: PathKey, k2: PathKey, P: PointSet) -> bool:
    geom.check_point_set(P)
    k1, k2 = tuple(geom.collection(k1)), tuple(geom.collection(k2))
    blocked = P.edge_masks(zip(k1, k1[1:]))[1]
    return bool(blocked & P.edge_masks(zip(k2, k2[1:]))[0])


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
    vs, i = _path(path)
    geom.hull_crossing_edges(P, i)  # refuses a bad line before it is read
    P.check_vertices(vs)
    if len(vs) < 3:
        return Check(False, "too_short")
    for a, b in zip(vs, vs[1:]):
        # a degenerate edge crosses no line either
        if not geom.edge_crosses_line((a, b), i):
            return Check(False, "degenerate_edge" if a == b
                         else "edge_not_crossing_line")
    edges = chain_edges(vs)
    if len(set(edges)) != len(edges):
        return Check(False, "repeated_edge")
    return validate_ptpath(path, P)


# -- T-path extraction and successors ------------------------------------

def extract_tpath(T: EdgeSet, i: int, P: PointSet) -> TPath:
    """The unique T-path of triangulation T w.r.t. l_i."""
    return TPath(extract_path(T, i, P, False), i)


def tpath_successors(path: TPath, P: PointSet) -> set[PathKey]:
    """All T-paths at l_{i+1} compatible (non-crossing) with the given path."""
    return path_successors(path, P, False, validate_tpath)


# -- flips and good edges ------------------------------------------------

def _flip_diagonal(T: EdgeSet, e: Segment, P: PointSet
                   ) -> tuple[int, Optional[Segment]]:
    """T's other edges as a mask, and the diagonal that replaces e in a
    flip, or None for a hull edge or a reflex quadrilateral."""
    emask, k = _structure_mask(T, P, False), P.edge_masks([e])[0]
    if not emask & k:
        raise InputError(f"edge {e} not in the structure")
    # c spans a face with e iff both side edges exist and abc is empty
    a, b = e
    opp = [c for c in range(P.n) if c not in e and not P.inside(a, b, c)
           and emask >> P.ids[a][c] & emask >> P.ids[b][c] & 1]
    if len(opp) < 2:
        return emask & ~k, None  # hull edge
    r, s = opp
    return emask & ~k, (seg(r, s) if P.cross[P.ids[r][s]] & k else None)


def is_flippable(T: EdgeSet, e: Segment, P: PointSet) -> bool:
    return _flip_diagonal(T, e, P)[1] is not None


def is_good_edge(T: EdgeSet, e: Segment, i: int, P: PointSet) -> bool:
    """Flippable and the two opposite vertices straddle l_i."""
    geom.hull_crossing_edges(P, i)  # refuses a bad line before it is read
    rs = _flip_diagonal(T, e, P)[1]
    if not geom.edge_crosses_line(e, i):
        raise InputError(f"edge {e} does not cross l_{i}")
    return rs is not None and geom.edge_crosses_line(rs, i)


def flip(T: EdgeSet, e: Segment, P: PointSet) -> EdgeSet:
    rest, rs = _flip_diagonal(T, e, P)
    if rs is None:
        raise InputError(f"edge {e} is not flippable")
    return frozenset(P.segments[x] for x in bits(rest)) | {rs}
