"""Uniform random generation by reverse sweep over recorded path tables.

Walking backwards from the unique path at l_{n-1}, a parent pi at l_i is
chosen with probability count(pi)/count(pi') among the recorded parents of
pi'.  The telescoping product makes every compatible path tuple, and hence
every structure, equally likely.  Parent choice uses exact big-integer
cumulative thresholds; no floating point is involved.

A structure is one bitmask over the crossing table's (lexicographic)
segment index: each table entry stores its path's edge and blocked masks
and its cumulative parent counts, so a draw is a bisect and two ORs a line.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional

from . import ptpath, tpath
from .errors import IncompatibleTuple, InternalInvariantViolation
from .geom import PointSet, Segment, bits
from .sweep import PathKey, run_sweep, system_for
from .tpath import EdgeSet


class ReconstructedStructure(NamedTuple):
    family: str
    mask: int  # bit k: segments[k] is an edge
    segments: list[Segment]  # the crossing table's segments, by bit

    @property
    def edges(self) -> EdgeSet:
        return frozenset(self.segments[k] for k in bits(self.mask))


class SampleRun(NamedTuple):
    seed: int
    family: str
    tuples: list[list[PathKey]]
    structures: list[ReconstructedStructure]


def _complete(P: PointSet, family: str, segs: list[Segment], emask: int,
              blocked: int) -> int:
    """Greedy completion of a tuple union to a maximal set, checked.

    A compatible tuple determines its structure, so the greedy order does
    not matter; ascending bit (lexicographic) order is used anyway.
    """
    if blocked & emask:
        raise IncompatibleTuple("tuple union has crossing edges")
    cross = P.crossing_table()[1]
    adj = None
    if family == "pt":
        adj = ptpath.adjacency((segs[k] for k in bits(emask)), P.n)
        if not all(P.pointed(v, m) for v, m in enumerate(adj)):
            raise IncompatibleTuple("tuple union is not pointed")
    free = ((1 << len(segs)) - 1) & ~(emask | blocked)
    while free:
        low = free & -free
        free ^= low
        k = low.bit_length() - 1
        if adj is not None:
            a, b = segs[k]
            if not ptpath.addable(P, adj, a, b):
                continue
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        emask |= low
        free &= ~cross[k]
    if family == "tri":
        target = tpath.triangulation_edge_target(P)
        if emask.bit_count() != target:
            raise InternalInvariantViolation(
                f"completed to {emask.bit_count()} edges, expected {target}")
    else:
        check = ptpath.validate_pt_mask(P, emask)
        if not check:
            raise InternalInvariantViolation(
                f"completion is not a pseudo-triangulation: {check.reason}")
    return emask


def reconstruct(tuple_keys: list[PathKey], P: PointSet,
                family: str) -> ReconstructedStructure:
    """Union of the tuple's edges, greedily completed to a maximal set."""
    segs = list(P.crossing_table()[0])
    pairs = (e for key in tuple_keys for e in zip(key, key[1:]))
    emask = _complete(P, family, segs, *P.edge_masks(pairs))
    return ReconstructedStructure(family, emask, segs)


def sample(P: PointSet, family: str, seed: int, m: int,
           max_table_entries: Optional[int] = None) -> SampleRun:
    """Draw m structures i.i.d. uniformly at random."""
    _, _, tables = run_sweep(system_for(family), P, record_parents=True,
                             max_table_entries=max_table_entries)
    # per entry: key, count, edge mask, blocked mask, cum. counts, parents
    level: dict[PathKey, tuple] = {}
    for table in tables:
        below, level = level, {}
        for key, entry in table.entries.items():
            parents = [below[p] for p in entry.parents]
            cum = list(accumulate(p[1] for p in parents))
            if cum and cum[-1] != entry.count:
                raise InternalInvariantViolation("parent counts do not add up")
            level[key] = (key, entry.count, *P.edge_masks(zip(key, key[1:])),
                          cum, parents)
    (root,) = level.values()

    segs = list(P.crossing_table()[0])
    rng = random.Random(seed)
    tuples, structures = [], []
    for _ in range(m):
        key, count, emask, blocked, cum, parents = root
        chosen = [key]
        while parents:
            key, count, e, b, cum, parents = \
                parents[bisect_right(cum, rng.randrange(count))]
            chosen.append(key)
            emask |= e
            blocked |= b
        chosen.reverse()
        tuples.append(chosen)
        structures.append(ReconstructedStructure(
            family, _complete(P, family, segs, emask, blocked), segs))
    return SampleRun(seed, family, tuples, structures)
