"""Uniform random generation by reverse sweep over the sweep's lines.

Walking backwards from the unique path at l_{n-1}, a parent pi at l_i is
chosen with probability count(pi)/count(pi') among the parents of pi'.
The telescoping product makes every compatible path tuple, and hence
every structure, equally likely.  Parent choice uses exact big-integer
cumulative thresholds, drawn as randrange(count(pi')) draws them (by
rejection from getrandbits of the count's bit length); no floating point.

A structure is one bitmask over P.segments (lexicographic order).  Each
path becomes a node as its line arrives from sweep.sweep_lines: its edge
and blocked masks, its parents' cumulative counts and its parent nodes,
found by index in the previous line, so a draw is a bisect and two ORs a
line.  Only the nodes the last line's node reaches outlive the sweep, and
draws is a stream, so memory does not grow with the number of draws.  A
pt draw is its union, as every pt edge lies on a PT-path (the covering
lemma, acceptance criterion 6), checked by Streinu's edge count; tri
draws are completed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .errors import (IncompatibleTuple, InternalInvariantViolation,
                     MemoryBudgetExceeded, TooLarge)
from .geom import PointSet, Segment, bits
from .sweep import PathKey, sweep_lines, system_for
from .tpath import EdgeSet, triangulation_edge_target

# draws are streamed, so m bounds time and output size, not memory: about
# 0.8 KB of JSON a draw at tri n=14 (80 MB at this guard); m above it is
# refused
M_GUARD = 100_000


class ReconstructedStructure(NamedTuple):
    family: str
    mask: int  # bit k: segments[k] is an edge
    segments: list[Segment]  # the point set's segments, by bit

    @property
    def edges(self) -> EdgeSet:
        return frozenset(self.segments[k] for k in bits(self.mask))


class SampleRun(NamedTuple):
    seed: int
    family: str
    tuples: list[list[PathKey]]
    structures: list[ReconstructedStructure]


@lru_cache(maxsize=1)
def _interior_stars(P: PointSet) -> list[tuple[int, int, dict[int, int]]]:
    """Each interior vertex, the mask of its segments, their other ends."""
    stars = {v: {P.ids[v][u]: 1 << u for u in range(P.n) if u != v}
             for v in set(range(P.n)).difference(P.hull)}
    return [(v, sum(1 << k for k in ends), ends) for v, ends in stars.items()]


def _complete(P: PointSet, family: str, emask: int, blocked: int) -> int:
    """The structure of a full tuple's union, checked.  pt: the union
    itself, by the covering lemma, guarded by Streinu's count: a planar
    pointed graph has at most 2n - 3 edges and exactly the pointed
    pseudo-triangulations have 2n - 3, so a partial tuple is not maximal
    (ptpath.validate_pt_mask gives the same verdicts).  A hull vertex is
    pointed whatever its edges, so only interior ones are tested.  tri: the
    union's greedy completion in bit order; a compatible tuple determines
    its triangulation, so the order does not matter."""
    if blocked & emask:
        raise IncompatibleTuple("tuple union has crossing edges")
    if family == "pt":
        for v, star, ends in _interior_stars(P):
            at_v = emask & star
            if at_v.bit_count() > 2 and not P.pointed(
                    v, sum(map(ends.__getitem__, bits(at_v)))):
                raise IncompatibleTuple("tuple union is not pointed")
        if emask.bit_count() != 2 * P.n - 3:
            raise InternalInvariantViolation(
                "tuple union is not a pseudo-triangulation: not_maximal")
        return emask
    cross = P.cross
    free = ((1 << len(P.segments)) - 1) & ~(emask | blocked)
    while free:
        low = free & -free
        emask |= low
        free &= ~(low | cross[low.bit_length() - 1])
    target = triangulation_edge_target(P)
    if emask.bit_count() != target:
        raise InternalInvariantViolation(
            f"completed to {emask.bit_count()} edges, expected {target}")
    return emask


def reconstruct(tuple_keys: list[PathKey], P: PointSet,
                family: str) -> ReconstructedStructure:
    """Structure of a full tuple; a partial pt tuple raises (not_maximal)."""
    pairs = (e for key in tuple_keys for e in zip(key, key[1:]))
    emask = _complete(P, family, *P.edge_masks(pairs))
    return ReconstructedStructure(family, emask, P.segments)


def _root(P: PointSet, family: str,
          max_table_entries: Optional[int]) -> tuple:
    """The node of the path at l_{n-1}; a node is (key, count, count's bit
    length, edge mask, blocked mask, cumulative parent counts, parent
    nodes), whose count is the last cumulative count (cum is [1] at l_1).
    Nodes are built as their line arrives; the budget is checked there."""
    level, entries = [], 0
    for keys, parents in sweep_lines(system_for(family), P):
        entries += len(keys)
        if max_table_entries is not None and entries > max_table_entries:
            raise MemoryBudgetExceeded(
                f"path tables exceed {max_table_entries} entries")
        below, level = level, []
        for key, js in zip(keys, parents):
            nodes = [below[j] for j in js]
            cum = list(accumulate(p[1] for p in nodes)) or [1]
            level.append((key, cum[-1], cum[-1].bit_length(),
                          *P.edge_masks(zip(key, key[1:])), cum, nodes))
    return level[0]  # the stream has checked that l_{n-1} holds one path


def draws(P: PointSet, family: str, seed: int, m: int,
          max_table_entries: Optional[int] = None
          ) -> Iterator[tuple[list[PathKey], ReconstructedStructure]]:
    """m i.i.d. uniform draws, each its path tuple (l_1 first) and its
    structure, yielded one at a time.  The guards, the sweep and the nodes
    run at the call, so a refusal comes before any draw."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > M_GUARD:
        raise TooLarge(f"m={m} exceeds sample guard {M_GUARD}")
    root = _root(P, family, max_table_entries)

    def walk():
        getrandbits = random.Random(seed).getrandbits
        for _ in range(m):
            key, count, k, emask, blocked, cum, parents = root
            chosen = [key]
            while parents:
                # randrange(count), inlined
                r = getrandbits(k)
                while r >= count:
                    r = getrandbits(k)
                key, count, k, e, b, cum, parents = \
                    parents[bisect_right(cum, r)]
                chosen.append(key)
                emask |= e
                blocked |= b
            chosen.reverse()
            yield chosen, ReconstructedStructure(
                family, _complete(P, family, emask, blocked), P.segments)

    return walk()


def sample(P: PointSet, family: str, seed: int, m: int,
           max_table_entries: Optional[int] = None) -> SampleRun:
    """Draw m structures i.i.d. uniformly at random, all kept."""
    run = list(draws(P, family, seed, m, max_table_entries))
    return SampleRun(seed, family, [t for t, _ in run], [s for _, s in run])
