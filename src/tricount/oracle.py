"""Brute-force ground truth for small point sets.

Triangulations are the maximal non-crossing edge sets, pointed
pseudo-triangulations the maximal planar pointed ones.  One include/exclude
backtracking over the segments in lexicographic order enumerates both.  It
starts from the hull edges: every structure holds them, nothing crosses
them, and a hull vertex is pointed whatever its edges.  Including a segment
drops the segments crossing it and, in pt, re-tests the addable ones at its
interior endpoints.  A branch dies once an excluded, still addable segment
can no longer be ruled out by a free one that crosses it or, in pt, meets
it at an interior vertex.  Edge counts (3n-3-h and 2n-3) are asserted on
every emitted structure.
"""

from __future__ import annotations

from typing import Optional

from .errors import (InternalInvariantViolation, ResourceRefusal,
                     check_nonnegative, system_for)
from .geom import EdgeSet, PointSet, adjacency, bits, check_point_set

TRI_GUARD = 12
PT_GUARD = 10


def addable(P: PointSet, adj: list[int], a: int, b: int) -> bool:
    """Whether edge ab keeps both endpoints pointed, given adjacency adj."""
    return P.pointed(a, adj[a] | 1 << b) and P.pointed(b, adj[b] | 1 << a)


def enumerate_structures(P: PointSet, family: str,
                         cap: Optional[int] = None) -> list[EdgeSet]:
    """Every triangulation ("tri") or pointed pseudo-triangulation ("pt")
    of P as a set of segments, in sorted order."""
    if cap is not None:
        check_nonnegative("cap", cap)
    zigzag = system_for(family)
    check_point_set(P)
    if zigzag:
        guard, name = PT_GUARD, "pseudo-triangulation"
        target = 2 * P.n - 3
    else:
        guard, name = TRI_GUARD, "triangulation"
        target = 3 * P.n - 3 - len(P.hull)
    if P.n > guard:
        raise ResourceRefusal(f"n={P.n} exceeds {name} oracle guard {guard}")
    n, edges, cross = P.n, P.segments, P.cross
    # inner[v]: the segments at v if including one can break v's
    # pointedness, i.e. at an interior vertex in pt; none in tri
    inner = [0] * n
    if zigzag:
        for v in P.interior:
            inner[v] = P.star[v]
    # block[k]: the segments whose inclusion can rule segment k out
    block = [cross[k] | inner[a] | inner[b] for k, (a, b) in enumerate(edges)]
    adj = adjacency(P.hull_edges, n)  # of the included segments
    structures: list[EdgeSet] = []

    def rec(imask: int, xmask: int, avail: int) -> None:
        free = avail & ~xmask
        if free == 0:
            if avail == 0:
                chosen = frozenset(edges[k] for k in bits(imask))
                if len(chosen) != target:
                    raise InternalInvariantViolation(
                        f"maximal {family} set with {len(chosen)} edges, "
                        f"expected {target}")
                structures.append(chosen)
                if cap is not None and len(structures) > cap:
                    raise ResourceRefusal(f"more than {cap} structures")
            return
        # an excluded but still addable segment must be ruled out later
        dead = avail & xmask
        while dead:
            x = dead & -dead
            if block[x.bit_length() - 1] & free == 0:
                return
            dead ^= x
        e = free & -free
        k = e.bit_length() - 1
        a, b = edges[k]
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        rest = avail & ~(e | cross[k])
        for j in bits(rest & (inner[a] | inner[b])):
            if not addable(P, adj, *edges[j]):
                rest ^= 1 << j
        rec(imask | e, xmask, rest)
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        rec(imask, xmask | e, avail)

    hmask = P.edge_masks(P.hull_edges)[0]
    rec(hmask, 0, ((1 << len(edges)) - 1) ^ hmask)
    structures.sort(key=sorted)
    return structures

