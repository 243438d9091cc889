"""An independent pseudo-triangulation counter: the flip graph.

Breadth-first search over the flip graph of pointed pseudo-triangulations,
which is connected (Rote, Santos and Streinu, "Expansive motions and the
polytope of pointed pseudo-triangulations", 2003).  It shares nothing with
the sweep or the oracle but the crossing masks, hull edges and pointedness
test of PointSet.

The search starts from a greedy maximal planar pointed edge set that
contains the hull, and asserts that it has 2n - 3 edges.  A flip of an
interior edge k of a pseudo-triangulation S replaces k by its partner, the
one segment f with S - k + f again a pseudo-triangulation:

- f is not in S;
- f crosses no edge of S - k;
- f keeps both of its endpoints pointed in S - k.

f need not cross k: it may share an endpoint with k.  So "f crosses k and
nothing else of S" is not the rule.  The search asserts that every interior
edge has exactly one partner.  A hull edge has none, as every structure
holds it.  S - k's blocked mask is a prefix OR and a suffix OR of the
crossing masks over S's edges, so it costs two ORs per edge.
"""

from __future__ import annotations

from tricount.geom import PointSet, bits


def count_pseudotriangulations(P: PointSet) -> int:
    n, segs, cross, pointed = P.n, P.segments, P.cross, P.pointed
    hull = sum(1 << P.ids[a][b] for a, b in P.hull_edges)
    full = (1 << len(segs)) - 1

    def adjacency(S: int) -> list[int]:
        adj = [0] * n
        for k in bits(S):
            a, b = segs[k]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def addable(adj: list[int], f: int) -> bool:
        a, b = segs[f]
        return pointed(a, adj[a] | 1 << b) and pointed(b, adj[b] | 1 << a)

    S, adj = hull, adjacency(hull)
    for f in range(len(segs)):
        if not (S >> f & 1 or cross[f] & S) and addable(adj, f):
            S |= 1 << f
            adj = adjacency(S)
    assert S.bit_count() == 2 * n - 3, S.bit_count()

    seen = {S}
    frontier = [S]
    while frontier:
        found = []
        for S in frontier:
            ks = list(bits(S))
            pre, suf = [0], [0]
            for k in ks:
                pre.append(pre[-1] | cross[k])
            for k in reversed(ks):
                suf.append(suf[-1] | cross[k])
            suf.reverse()
            adj = adjacency(S)
            for j, k in enumerate(ks):
                if hull >> k & 1:
                    continue
                a, b = segs[k]
                adj[a] ^= 1 << b
                adj[b] ^= 1 << a
                free = full & ~(S | pre[j] | suf[j + 1])
                partners = [f for f in bits(free) if addable(adj, f)]
                adj[a] ^= 1 << b
                adj[b] ^= 1 << a
                assert len(partners) == 1, (segs[k], partners)
                T = S ^ (1 << k) | 1 << partners[0]
                if T not in seen:
                    seen.add(T)
                    found.append(T)
        frontier = found
    return len(seen)
