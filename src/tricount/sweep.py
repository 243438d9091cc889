"""Sweep-line dynamic program over path families: the counting engine.

A path population is found by one constrained depth-first chain search,
path_chains, for both families: a T-path is a PT-path whose excursions
are single vertices, and its wedges are their regions.  So a family is
one bit, zigzag (errors.system_for reads it off the family's name), and
the search, the join and the sweep take it.  Validity is exactly
membership in the population (ptpath): a valid chain extends to a
structure and is then, by uniqueness, that structure's path.
Two populations are joined child-major, by one join for both families:
each child gets the ascending indices of its compatible parents, read off
bitmasks of the parents per segment and, for PT-paths, per corner.

sweep_lines is the sweep's only loop: a stream of the lines l_1 .. l_{n-1},
each the search's strictly ascending population (the key is the vertex
tuple; at l_1 just the forced path, the two hull edges at the leftmost
point) with each chain's parents, as ascending indices into the previous
line.  Its consumers act between two lines: run_sweep keeps each chain's
count of compatible path prefixes T(pi), the sampler its nodes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import reduce
from itertools import zip_longest
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import geom
from .errors import InputError, InternalInvariantViolation, shown
from .geom import PointSet, Segment, adjacency, bits

PathKey = tuple[int, ...]


# -- chain search --------------------------------------------------------

def path_chains(P: PointSet, i: int, zigzag: bool,
                blocked: int = 0) -> list[PathKey]:
    """The path population at l_i, strictly ascending: every valid PT-path
    chain if zigzag, else every valid T-path chain (at l_1 the forced
    chain, the hull edges at vertex 0).

    A T-path is a PT-path whose excursions are single vertices, so without
    zigzag the search never moves along one side of l_i.  It carries one
    bitmask over P.segments, the chain's edges and every segment crossing
    one, and the open excursion as a vertex mask with its convex-turn count
    and entry edge.  That bitmask starts as blocked (extraction passes
    the segments outside its structure).  The output is ascending: the
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
    if blocked >> k & 1:
        return out
    blocked |= 1 << k | cross[k]
    for v0, v1 in ((a, b), (b, a)):
        extend([v0, v1], blocked, 1 << v1, 0, lo)
    return out


# -- joins ---------------------------------------------------------------

def join(P: PointSet, parents: Sequence[PathKey],
         children: Sequence[PathKey], zigzag: bool) -> Iterator[list[int]]:
    """For each child in turn, the ascending indices of its compatible
    parents: no edge of one crosses one of the other and, if zigzag, their
    union is pointed.  Each segment has a row, the mask of the parents on
    it; with zigzag so has each corner (v, p), an interior v where a parent
    has neighbours p.  A child's edge rules out the rows of the segments it
    crosses, its corner (v, q) the rows (v, p) with v not pointed in p | q:
    one OR each, cached per line.  Only an interior v that both chains touch
    can fail: a hull vertex is pointed whatever its edges, and elsewhere the
    union's edges are one chain's, which is pointed.  A parent without v is
    in no row of v.
    """
    cross, eid = P.cross, P.ids

    def corners(k):  # interior v on chain k, with all of k's edges at v
        adj = adjacency(zip(k, k[1:]), P.n)
        return [(v, adj[v]) for v in P.interior if adj[v]]

    # segment index -> bitmask of the parents using it, set bytewise:
    # setting bit j of an int would copy the whole mask each time
    rows = defaultdict(lambda: bytearray(len(parents) // 8 + 1))
    for j, k in enumerate(parents):
        for a, b in zip(k, k[1:]):
            rows[eid[a][b]][j >> 3] |= 1 << (j & 7)
    users = [(x, int.from_bytes(row, "little")) for x, row in rows.items()]
    # interior v -> p -> the row of corner (v, p), set likewise
    at = defaultdict(lambda: defaultdict(rows.default_factory))
    for j, k in enumerate(parents) if zigzag else ():
        for v, p in corners(k):
            at[v][p][j >> 3] |= 1 << (j & 7)
    full = (1 << len(parents)) - 1
    ruled_out: dict = {}  # child edge or corner -> the parents it rules out
    for c in children:
        m = 0
        for a, b in zip(c, c[1:]):
            x = eid[a][b]
            if x not in ruled_out:
                ruled_out[x] = reduce(or_, (u for y, u in users
                                            if cross[x] >> y & 1), 0)
            m |= ruled_out[x]
        for v, q in corners(c) if zigzag else ():
            if (v, q) not in ruled_out:
                ruled_out[v, q] = reduce(or_, (
                    int.from_bytes(row, "little") for p, row in at[v].items()
                    if not P.pointed(v, p | q)), 0)
            m |= ruled_out[v, q]
        yield list(bits(full & ~m))


# -- the sweep -----------------------------------------------------------

class SweepStats(NamedTuple):
    t_per_line: list[int]  # chains found at l_1 .. l_{n-1}, all kept
    # per line from l_2 on: search, join and aggregation seconds, and
    # parent links kept
    line_seconds: list[float]
    join_pairs: list[int]


def _linked(i: int, children: Sequence[PathKey],
            parents: Iterable[list[int]]) -> Iterator[list[int]]:
    for c, js in zip_longest(children, parents):
        if c is None or not js:
            raise InternalInvariantViolation(
                f"path {c} at l_{i} has no parent" if c and js == [] else
                f"join at l_{i}: too {'few' if c else 'many'} parent lists")
        yield js


def sweep_lines(zigzag: bool, P: PointSet
                ) -> Iterator[tuple[list[PathKey], Iterator[list[int]]]]:
    """Each line l_1 .. l_{n-1} in turn: its ascending population and a
    lazy iterator over each chain's ascending parent indices (none at l_1).
    A line is searched only when asked for and joined only as its parents
    are read, so no line's parent lists outlive their reading.

    Every chain of a population has a compatible parent, so a child with
    none, or a join with a list too few or too many, raises
    InternalInvariantViolation instead of being dropped (an empty line then
    fails at the next line or at the end).  A chain is in the population
    only if it is valid, and a valid chain at l_{i+1} extends to a
    structure whose path there it is (ptpath).  That structure's path at l_i
    is in the population at l_i, and the two paths are compatible, as both
    are edges of one structure: the join must report it.

    A zigzag that is not a bool (a family's name included) or a P that is
    not a PointSet (geom.hull_crossing_edges) raises InputError as the
    first line is asked for.
    """
    if type(zigzag) is not bool:
        raise InputError(f"not a family bit: {shown(zigzag)}")
    keys = path_chains(P, 1, zigzag)
    yield keys, ([] for _ in keys)
    for i in range(2, P.n):
        children = path_chains(P, i, zigzag)
        joined = join(P, keys, children, zigzag)
        yield children, _linked(i, children, joined)
        keys = children
    if len(keys) != 1:
        raise InternalInvariantViolation(
            f"expected a single path at l_{P.n - 1}, got {len(keys)}")


def run_sweep(zigzag: bool, P: PointSet
              ) -> tuple[int, SweepStats, None]:
    """The number of structures of the family whose bit is zigzag
    (system_for) and the sweep's per-line stats.  The third
    value is always None, kept for callers that unpack three values (the
    benchmark's tracer)."""
    lines = sweep_lines(zigzag, P)
    counts = [1] * len(next(lines)[0])
    t_per_line, line_seconds, join_pairs = [len(counts)], [], []
    t0 = time.perf_counter()
    for keys, parents in lines:
        sums, pairs = [], 0
        for js in parents:
            sums.append(sum(counts[j] for j in js))
            pairs += len(js)
        counts = sums
        t_per_line.append(len(keys))
        line_seconds.append(time.perf_counter() - t0)
        join_pairs.append(pairs)
        t0 = time.perf_counter()
    return counts[0], SweepStats(t_per_line, line_seconds, join_pairs), None
