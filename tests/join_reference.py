"""The bitset joins that the engine's single join (tricount.sweep.join)
replaced, kept verbatim as its reference: tpath_join for T-paths, and
ptpath_join, which filters tpath_join's non-crossing candidates by testing
union pointedness one (candidate, shared interior vertex) pair at a time.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from tricount.geom import PointSet, adjacency, bits
from tricount.sweep import PathKey


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
        yield list(bits(full & ~m))


def ptpath_join(P: PointSet, parents: Sequence[PathKey],
                children: Sequence[PathKey]) -> Iterator[list[int]]:
    """For each child in turn, the ascending indices of the parents
    compatible with it as PT-paths.

    Compatible means non-crossing (tpath_join) with a pointed edge union.
    Each chain of a population is pointed on its own, and a hull vertex is
    pointed whatever its edges, so only the interior vertices both chains
    touch can fail; they are checked on tpath_join's candidates only.
    """
    adj = [adjacency(zip(k, k[1:]), P.n) for k in parents]
    for c, js in zip(children, tpath_join(P, parents, children)):
        ac = adjacency(zip(c, c[1:]), P.n)
        vs = set(c).difference(P.hull)
        yield [j for j in js if all(P.pointed(v, adj[j][v] | ac[v])
                                    for v in vs.intersection(parents[j]))]
