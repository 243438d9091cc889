"""PT-paths: zig-zag chains of pointed pseudo-triangulation edges.

A chain is a valid PT-path w.r.t. l_i when its crossing edges have strictly
increasing ordinates with the two hull crossing edges first and last, each
maximal sub-chain between consecutive crossings (an "excursion") stays on
one side and bounds, together with the line, an empty pseudo-triangle, the
edges are pairwise non-crossing, and the chain's own edge union is pointed.

A pseudo-triangle has exactly three convex corners; two of them always sit
at the line crossings, so the structural test reduces to "exactly one
convex turn among the excursion vertices" plus region emptiness.

As with T-paths, validity coincides with membership in the population: a
valid chain completes to a maximal planar pointed edge set, of which it is
the unique PT-path.  Extraction and population building are therefore one
constrained depth-first search, and successors come from a join of two
populations: the T-path join's non-crossing parents of each child, kept
where the union stays pointed.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import geom, tpath
from .errors import (
    EdgeDoesNotCrossLine,
    InternalInvariantViolation,
    PreconditionViolated,
)
from .geom import PointSet, Segment, bits, seg
from .tpath import Check, EdgeSet, PathKey, chain_edges


class PTPath(NamedTuple):
    vertices: PathKey
    line: int

    def edges(self) -> list[Segment]:
        return chain_edges(self.vertices)

    def crossing_positions(self) -> list[int]:
        """Indices k such that edge (v_k, v_{k+1}) crosses the line."""
        return [k for k, e in enumerate(self.edges())
                if geom.edge_crosses_line(e, self.line)]


def pseudotriangulation_edge_target(P: PointSet) -> int:
    return 2 * P.n - 3


# -- pointedness ---------------------------------------------------------

def adjacency(edges: Iterable[Segment], n: int) -> list[int]:
    """Bitmask of each vertex's neighbours in the edge set."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def is_pointed(edges: Iterable[Segment], v: int, P: PointSet) -> bool:
    """True iff v's incident edges leave an angular gap larger than pi.

    Isolated vertices are pointed by convention.
    """
    nbrs = 0
    for (a, b) in edges:
        if v == a:
            nbrs |= 1 << b
        elif v == b:
            nbrs |= 1 << a
    return P.pointed(v, nbrs)


def _all_pointed(edges: Iterable[Segment], P: PointSet) -> bool:
    return all(P.pointed(v, m) for v, m in enumerate(adjacency(edges, P.n)))


def addable(P: PointSet, adj: list[int], a: int, b: int) -> bool:
    """Whether edge ab keeps both endpoints pointed, given adjacency adj."""
    return P.pointed(a, adj[a] | 1 << b) and P.pointed(b, adj[b] | 1 << a)


def validate_pseudotriangulation(edges: Iterable[Segment], P: PointSet) -> Check:
    """Maximal planar pointed edge set check."""
    return validate_pt_mask(P, P.edge_masks(seg(a, b) for a, b in edges)[0])


def validate_pt_mask(P: PointSet, emask: int) -> Check:
    """validate_pseudotriangulation of emask, a bitmask over the crossing
    table's segments; adjacency and blocked mask are derived from it alone."""
    segs = list(P.crossing_table()[0])
    edges = [segs[k] for k in bits(emask)]
    blocked = P.edge_masks(edges)[1]
    if blocked & emask:
        return Check(False, "edges_cross")
    adj = adjacency(edges, P.n)
    if not all(P.pointed(v, m) for v, m in enumerate(adj)):
        return Check(False, "not_pointed")
    free = ((1 << len(segs)) - 1) & ~(emask | blocked)
    if any(addable(P, adj, *segs[k]) for k in bits(free)):
        return Check(False, "not_maximal")
    return Check(True)


# -- excursion geometry --------------------------------------------------

def _region_empty(P: PointSet, i: int, u: int, exc: list[int],
                  w: int) -> bool:
    """Whether no point lies between l_i and the excursion u, *exc, w.

    The polygon u, *exc, w differs from the region closed along the line
    only by a closed curve on the other side of l_i, so every point on
    exc's side has the same even-odd parity for both.  That parity is the
    XOR of the fan triangles from u: general position keeps every point off
    the fan diagonals.
    """
    odd = 0
    ring = exc + [w]
    for p, q in zip(ring, ring[1:]):
        odd ^= P.inside(u, p, q)
    for v in exc:
        odd &= ~(1 << v)
    left_of_line = (1 << i) - 1
    return not odd & (left_of_line if exc[0] < i else ~left_of_line)


# -- chain search --------------------------------------------------------

def ptpath_chains(P: PointSet, i: int,
                  pool: Optional[EdgeSet] = None) -> list[PathKey]:
    """All valid PT-path chains w.r.t. l_i: the path population.

    With a pool, edges are restricted to it and the final pointedness check
    is skipped (a subset of a pointed set is pointed).  As in tpath_chains,
    one bitmask carries the chain's edges and every segment crossing one.
    """
    lo, hi = geom.hull_crossing_edges(P, i)
    cross = P.crossing_table()[1]
    eid = P.segment_ids()
    left = P.left_table()
    above = P.above
    full = (1 << P.n) - 1
    left_of_line = (1 << i) - 1
    out: list[PathKey] = []

    def extend(chain: list[int], blocked: int, start: int, exc: int,
               convex: int, last: Segment) -> None:
        # the open excursion is chain[start:] (exc as a vertex mask),
        # entered from chain[start - 1]
        v, q = chain[-1], chain[-2]
        # turn: the w that make v a convex corner (as in validate_ptpath)
        if v >= i:
            here, turn = full ^ left_of_line, left[q][v]
        else:
            here, turn = left_of_line, full ^ left[q][v]
        # stay on this side (at most one convex turn, no vertex twice), or
        # cross back after exactly one convex turn
        stay = here & ~exc
        if convex:
            cands = (stay | full & ~here) & ~turn
        else:
            cands = stay | turn & ~here
        ids = eid[v]
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            k = ids[w]
            if blocked >> k & 1:
                continue
            e = (v, w) if v < w else (w, v)
            if pool is not None and e not in pool:
                continue
            chain.append(w)
            if low & here:
                extend(chain, blocked | 1 << k | cross[k], start,
                       exc | 1 << w, convex + (turn >> w & 1), last)
            elif above(e, last) and _region_empty(
                    P, i, chain[start - 1], chain[start:-1], w):
                # the excursion closes as an empty pseudo-triangle
                if e != hi:
                    extend(chain, blocked | 1 << k | cross[k],
                           len(chain) - 1, 1 << w, 0, e)
                elif pool is not None or _all_pointed(chain_edges(chain), P):
                    out.append(tuple(chain))
            chain.pop()

    if pool is not None and (lo not in pool or hi not in pool):
        return []
    a, b = lo
    k = eid[a][b]
    for (v0, v1) in ((a, b), (b, a)):
        extend([v0, v1], 1 << k | cross[k], 1, 1 << v1, 0, lo)
    return out


def extract_ptpath(S: EdgeSet, i: int, P: PointSet) -> PTPath:
    """The unique PT-path of pseudo-triangulation S w.r.t. l_i."""
    chains = ptpath_chains(P, i, pool=frozenset(S))
    if len(chains) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one PT-path at l_{i}, found {len(chains)}")
    return PTPath(chains[0], i)


def ptpath_join(P: PointSet, parents: Sequence[PathKey],
                children: Sequence[PathKey]) -> Iterator[list[int]]:
    """For each child in turn, the ascending indices of the parents
    compatible with it.

    Compatible means non-crossing (tpath_join) with a pointed edge union.
    Each chain of a population is pointed on its own, so only the vertices
    both chains touch can fail; they are checked on tpath_join's
    candidates only.
    """
    adj = [adjacency(chain_edges(k), P.n) for k in parents]
    for c, js in zip(children, tpath.tpath_join(P, parents, children)):
        ac = adjacency(chain_edges(c), P.n)
        vs = set(c)
        yield [j for j in js if all(P.pointed(v, adj[j][v] | ac[v])
                                    for v in vs.intersection(parents[j]))]


def ptpath_successors(path: PTPath, P: PointSet) -> set[PathKey]:
    """PT-paths at l_{i+1} non-crossing with path and jointly pointed."""
    check = validate_ptpath(path, P)
    if not check:
        raise PreconditionViolated(f"invalid parent PT-path: {check.reason}")
    if path.line >= P.n - 1:
        raise PreconditionViolated("no line beyond the last sweep position")
    children = ptpath_chains(P, path.line + 1)
    return {c for c, js in zip(children,
                               ptpath_join(P, [path.vertices], children))
            if js}


# -- validation ----------------------------------------------------------

def validate_ptpath(path: PTPath, P: PointSet) -> Check:
    vs = path.vertices
    i = path.line
    if not 1 <= i <= P.n - 1:
        return Check(False, "bad_line_index")
    if len(vs) < 3:
        return Check(False, "too_short")
    for k in range(len(vs) - 1):
        if vs[k] == vs[k + 1]:
            return Check(False, "degenerate_edge")
    edges = chain_edges(vs)
    lo, hi = geom.hull_crossing_edges(P, i)
    if not geom.edge_crosses_line(edges[0], i) or edges[0] != lo:
        return Check(False, "bad_endpoints")

    left = P.left_table()
    last = lo
    exc_prev = vs[0]
    exc = [vs[1]]
    convex = 0
    closed_at_end = False
    for k in range(1, len(vs) - 1):
        v, w = vs[k], vs[k + 1]
        q = exc[-2] if len(exc) > 1 else exc_prev
        # the excursion polygon runs CCW on the right of the line, CW on
        # the left: a convex turn at v puts w left of qv on the right side
        convex += (left[q][v] >> w & 1) == (v >= i)
        e = seg(v, w)
        if P.side(w, i) == P.side(v, i):
            if w in exc:
                return Check(False, "excursion_vertex_repeat")
            exc.append(w)
            closed_at_end = False
        else:
            if not P.above(e, last):
                return Check(False, "crossings_not_increasing")
            if convex != 1:
                return Check(False, "not_pseudo_triangle")
            if not _region_empty(P, i, exc_prev, exc, w):
                return Check(False, "region_not_empty")
            exc_prev, exc, convex, last = v, [w], 0, e
            closed_at_end = True
    if not closed_at_end or edges[-1] != hi:
        return Check(False, "bad_endpoints")
    emask, blocked = P.edge_masks(edges)
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
    if not geom.edge_crosses_line(e, i):
        raise EdgeDoesNotCrossLine(f"edge {e} does not cross l_{i}")
    if e not in S:
        raise PreconditionViolated(f"edge {e} not in the structure")
    hull = P.convex_hull()
    h = len(hull)
    hull_edges = {seg(hull[k], hull[(k + 1) % h]) for k in range(h)}
    if e in hull_edges:
        return True
    crossing = sorted((f for f in S if geom.edge_crosses_line(f, i)),
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
