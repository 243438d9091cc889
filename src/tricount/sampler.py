"""Uniform random generation by reverse sweep over recorded path tables.

Walking backwards from the unique path at l_{n-1}, a parent pi at l_i is
chosen with probability count(pi)/count(pi') among the recorded parents of
pi'.  The telescoping product makes every compatible path tuple, and hence
every structure, equally likely.  Parent choice uses exact big-integer
cumulative thresholds, drawn as randrange(count(pi')) draws them (by
rejection from getrandbits of the count's bit length); no floating point.

A structure is one bitmask over P.segments (lexicographic order): each
path becomes a node with its edge and blocked masks, its parents'
cumulative counts and its parent nodes, found by index in the previous
line, so a draw is a bisect and two ORs a line.  A pt draw is its union,
as every pt edge lies on a PT-path (the covering lemma, acceptance
criterion 6), checked by Streinu's edge count; tri draws are completed.

draws is a stream.  Each sweep table is dropped once its nodes are built,
only the last line's node and the nodes it reaches are kept, and no past
draw is, so memory does not grow with the number of draws.  sample
collects the stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from . import tpath
from .errors import IncompatibleTuple, InternalInvariantViolation, TooLarge
from .geom import PointSet, Segment, bits
from .sweep import PathKey, run_sweep, system_for
from .tpath import EdgeSet

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


def _complete(P: PointSet, family: str, emask: int, blocked: int) -> int:
    """The structure of a full tuple's union, checked.  pt: the union
    itself, by the covering lemma, guarded by Streinu's count: a planar
    pointed graph has at most 2n - 3 edges and exactly the pointed
    pseudo-triangulations have 2n - 3, so a partial tuple is not maximal
    and raises InternalInvariantViolation (ptpath.validate_pt_mask gives
    the same verdicts).  tri: the union's greedy completion in bit order;
    a compatible tuple determines its triangulation, so the order does not
    matter."""
    if blocked & emask:
        raise IncompatibleTuple("tuple union has crossing edges")
    if family == "pt":
        adj = tpath.adjacency(map(P.segments.__getitem__, bits(emask)), P.n)
        if not all(map(P.pointed, range(P.n), adj)):
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
    target = tpath.triangulation_edge_target(P)
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
    nodes)."""
    _, _, tables = run_sweep(system_for(family), P, record_parents=True,
                             max_table_entries=max_table_entries)
    level: list[tuple] = []
    # a table's index lists are dropped once its nodes are built
    tables.reverse()
    while tables:
        table = tables.pop()
        below, level = level, []
        for key, count, js in zip(table.keys, table.counts, table.parents):
            parents = [below[j] for j in js]
            cum = list(accumulate(p[1] for p in parents))
            if cum and cum[-1] != count:
                raise InternalInvariantViolation("parent counts do not add up")
            level.append((key, count, count.bit_length(),
                          *P.edge_masks(zip(key, key[1:])), cum, parents))
    (root,) = level
    return root


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
    tuples, structures = [], []
    for keys, structure in draws(P, family, seed, m, max_table_entries):
        tuples.append(keys)
        structures.append(structure)
    return SampleRun(seed, family, tuples, structures)
