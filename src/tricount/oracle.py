"""Brute-force ground truth for small point sets.

Triangulations are enumerated as maximal non-crossing edge sets, pointed
pseudo-triangulations as maximal planar pointed edge sets.  Both use the
same include/exclude backtracking over the edge list in lexicographic
order: a branch dies as soon as some excluded edge can no longer be
blocked by any remaining candidate.  Expected edge counts (3n-3-h and
2n-3) are asserted on every emitted structure.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from . import geom, ptpath, tpath
from .errors import CapExceeded, InternalInvariantViolation, TooLarge
from .geom import PointSet, Segment
from .tpath import EdgeSet

TRI_GUARD = 12
PT_GUARD = 10


class EnumerationResult:
    def __init__(self, family: str):
        self.family = family  # "tri" or "pt"
        self.structures: list[EdgeSet] = []

    @property
    def count(self) -> int:
        return len(self.structures)


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _emit(structures: list[EdgeSet], edges: list[Segment], imask: int,
          target: int, cap: Optional[int], family: str) -> None:
    chosen = frozenset(e for k, e in enumerate(edges) if imask >> k & 1)
    if len(chosen) != target:
        raise InternalInvariantViolation(
            f"maximal {family} set with {len(chosen)} edges, expected {target}")
    structures.append(chosen)
    if cap is not None and len(structures) > cap:
        raise CapExceeded(f"more than {cap} structures")


def enumerate_triangulations(P: PointSet, cap: Optional[int] = None,
                             guard: int = TRI_GUARD) -> EnumerationResult:
    if P.n > guard:
        raise TooLarge(f"n={P.n} exceeds triangulation oracle guard {guard}")
    edges = geom.all_edges(P)
    m = len(edges)
    cross = P.crossing_table()[1]
    target = tpath.triangulation_edge_target(P)
    result = EnumerationResult("tri")

    def rec(imask: int, xmask: int, addable: int) -> None:
        free = addable & ~xmask
        if free == 0:
            if addable == 0:
                _emit(result.structures, edges, imask, target, cap, "tri")
            return
        # an excluded but still addable edge must be crossed out eventually
        dead = addable & xmask
        while dead:
            x = dead & -dead
            if cross[x.bit_length() - 1] & free == 0:
                return
            dead &= dead - 1
        e = free & -free
        k = e.bit_length() - 1
        rec(imask | e, xmask, addable & ~(e | cross[k]))
        rec(imask, xmask | e, addable)

    full = (1 << m) - 1
    # forced edges (crossed by nothing, e.g. hull edges) are in every set
    forced = 0
    for k in range(m):
        if cross[k] == 0:
            forced |= 1 << k
    addable = full & ~forced
    for k in range(m):
        if forced >> k & 1:
            addable &= ~cross[k]
    rec(forced, 0, addable)
    result.structures.sort(key=sorted)
    return result


def enumerate_pointed_pseudotriangulations(
        P: PointSet, cap: Optional[int] = None,
        guard: int = PT_GUARD) -> EnumerationResult:
    if P.n > guard:
        raise TooLarge(f"n={P.n} exceeds pseudo-triangulation oracle guard {guard}")
    edges = geom.all_edges(P)
    m = len(edges)
    cross = P.crossing_table()[1]
    target = ptpath.pseudotriangulation_edge_target(P)
    result = EnumerationResult("pt")
    # edges sharing an endpoint can change each other's pointedness
    incident = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if set(edges[a]) & set(edges[b]):
                incident[a] |= 1 << b
                incident[b] |= 1 << a

    adj = [0] * P.n  # neighbour masks of the included edges

    def refilter(addable: int, imask: int) -> int:
        out = 0
        rest = addable
        while rest:
            e = rest & -rest
            k = e.bit_length() - 1
            if not cross[k] & imask and ptpath.addable(P, adj, *edges[k]):
                out |= e
            rest &= rest - 1
        return out

    def rec(imask: int, xmask: int, addable: int) -> None:
        free = addable & ~xmask
        if free == 0:
            if addable == 0:
                _emit(result.structures, edges, imask, target, cap, "pt")
            return
        dead = addable & xmask
        while dead:
            x = dead & -dead
            k = x.bit_length() - 1
            # only a crossing or endpoint-sharing edge can ever block x
            if (cross[k] | incident[k]) & free == 0:
                return
            dead &= dead - 1
        e = free & -free
        k = e.bit_length() - 1
        imask2 = imask | e
        a, b = edges[k]
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        rec(imask2, xmask, refilter(addable & ~e, imask2))
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        rec(imask, xmask | e, addable)

    full = (1 << m) - 1
    rec(0, 0, refilter(full, 0))
    result.structures.sort(key=sorted)
    return result


def enumerate_structures(P: PointSet, family: str,
                         cap: Optional[int] = None) -> EnumerationResult:
    if family == "tri":
        return enumerate_triangulations(P, cap=cap)
    if family == "pt":
        return enumerate_pointed_pseudotriangulations(P, cap=cap)
    raise ValueError(f"unknown family {family!r}")


def collect_paths(P: PointSet, i: int, family: str) -> set[tuple[int, ...]]:
    """Reference path population: extract from every enumerated structure."""
    result = enumerate_structures(P, family)
    if family == "tri":
        return {tpath.extract_tpath(S, i, P).vertices for S in result.structures}
    return {ptpath.extract_ptpath(S, i, P).vertices for S in result.structures}


def triangulations_via_flips(P: PointSet, start: EdgeSet) -> set[EdgeSet]:
    """Closure of a triangulation under diagonal flips (test cross-check)."""
    seen = {start}
    queue = [start]
    while queue:
        T = queue.pop()
        for e in T:
            if tpath.is_flippable(T, e, P):
                T2 = tpath.flip(T, e, P)
                if T2 not in seen:
                    seen.add(T2)
                    queue.append(T2)
    return seen
