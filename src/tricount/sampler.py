"""Uniform random generation by reverse sweep over the sweep's lines.

Walking backwards from the unique path at l_{n-1}, a parent pi at l_i is
chosen with probability count(pi)/count(pi') among the parents of pi'.
The telescoping product makes every compatible path tuple, and hence
every structure, equally likely.  Parent choice uses exact big-integer
cumulative thresholds, drawn as randrange(count(pi')) draws them (by
rejection from getrandbits of the count's bit length); no floating point.

A draw is its structure, one bitmask over P.segments (lexicographic
order).  Each path becomes a node as its line arrives from
sweep.sweep_lines: its edge and blocked masks, its parents' cumulative
counts and its parent nodes, found by index in the previous line, so a
draw is a bisect and two ORs a line.  No node keeps its key: a draw's
path at l_i is path_chains(P, i, zigzag, ~mask).  Only the nodes the last
line's node reaches outlive the sweep, and draws is a stream, so memory
does not grow with the number of draws.  A pt draw is its union, as every
pt edge lies on a PT-path (the covering lemma, acceptance criterion 6);
tri draws are completed, and each is checked by structure_fault.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Optional

from .errors import (InputError, InternalInvariantViolation,
                     ResourceRefusal, check_nonnegative, shown, system_for)
from .geom import PointSet, bits, check_point_set, collection
from .sweep import PathKey, path_chains, sweep_lines

# draws are streamed, so m bounds time and output size, not memory: about
# 0.8 KB of JSON a draw at tri n=14 (80 MB at this guard); m above it is
# refused
M_GUARD = 100_000


def structure_fault(P: PointSet, zigzag: bool, emask: int,
                    blocked: int) -> str:
    """Why emask (blocked: the segments its edges cross) is no structure
    of the family, as ptpath.Check names it: edges_cross, not_pointed or
    not_maximal; "" if it is one.  Maximality is a count: 3n - 3 - h
    non-crossing edges make a triangulation, and a planar pointed graph
    has at most 2n - 3, the pointed pseudo-triangulations exactly (Streinu).
    A hull vertex is pointed whatever its edges."""
    if blocked & emask:
        return "edges_cross"
    if zigzag:
        segs = P.segments
        for v in P.interior:
            at_v = emask & P.star[v]
            if at_v.bit_count() > 2:
                nbrs = 0
                for k in bits(at_v):
                    a, b = segs[k]
                    nbrs |= 1 << (a ^ b ^ v)  # the other end
                if not P.pointed(v, nbrs):
                    return "not_pointed"
    size = 2 * P.n - 3 if zigzag else 3 * P.n - 3 - len(P.hull)
    return "" if emask.bit_count() == size else "not_maximal"


def _complete(P: PointSet, emask: int, blocked: int) -> int:
    """A tri union completed greedily in bit order by segments that cross
    none of its edges; a compatible tuple fixes its triangulation."""
    cross = P.cross
    free = ((1 << len(P.segments)) - 1) & ~(emask | blocked)
    while free:
        low = free & -free
        emask |= low
        free &= ~(low | cross[low.bit_length() - 1])
    return emask


def reconstruct(tuple_keys: list[PathKey], P: PointSet, family: str) -> int:
    """Structure of a full tuple, its paths at l_1 .. l_{n-1} in order, as
    its bitmask over P.segments; a bad tuple raises InputError, a union
    that is no structure with structure_fault's reason."""
    zigzag = system_for(family)
    check_point_set(P)
    keys = [tuple(collection(key)) for key in collection(tuple_keys)]
    pairs = (e for key in keys for e in zip(key, key[1:]))
    emask, blocked = P.edge_masks(pairs)
    if not zigzag:
        emask = _complete(P, emask, blocked)
    if fault := structure_fault(P, zigzag, emask, blocked):
        raise InputError(f"tuple union is not a structure: {fault}")
    if [path_chains(P, i, zigzag, ~emask) for i in range(1, P.n)] != \
            [[key] for key in keys]:
        raise InputError("tuple is not its structure's paths")
    return emask


def _root(P: PointSet, zigzag: bool,
          max_table_entries: Optional[int]) -> tuple:
    """The node of the path at l_{n-1}; a node is (count, its bit length,
    edge mask, blocked mask, cumulative parent counts, parent nodes), with
    no key, and count is the last cumulative count (cum is [1] at l_1).
    Nodes are built as their line arrives; the budget is checked there."""
    level, entries = [], 0
    for keys, parents in sweep_lines(zigzag, P):
        entries += len(keys)
        if max_table_entries is not None and entries > max_table_entries:
            raise ResourceRefusal(
                f"path tables exceed {max_table_entries} entries")
        below, level = level, []
        for key, js in zip(keys, parents, strict=True):
            nodes = [below[j] for j in js]
            cum = list(accumulate(p[0] for p in nodes)) or [1]
            level.append((cum[-1], cum[-1].bit_length(),
                          *P.edge_masks(zip(key, key[1:])), cum, nodes))
    return level[0]  # the stream has checked that l_{n-1} holds one path


def draws(P: PointSet, family: str, seed: int, m: int,
          max_table_entries: Optional[int] = None
          ) -> Iterator[int]:
    """m i.i.d. uniform draws, each its structure's bitmask over
    P.segments, yielded one at a time.  The guards, the sweep and the
    nodes run at the call, so a refusal comes before any draw."""
    check_nonnegative("m", m)
    if max_table_entries is not None:
        check_nonnegative("max_table_entries", max_table_entries)
    check_nonnegative("seed", seed)
    if m > M_GUARD:
        raise ResourceRefusal(f"m={shown(m)} exceeds sample guard {M_GUARD}")
    zigzag = system_for(family)
    root = _root(P, zigzag, max_table_entries)

    def walk():
        getrandbits = random.Random(seed).getrandbits
        for _ in range(m):
            count, k, emask, blocked, cum, parents = root
            while parents:
                # randrange(count), inlined
                r = getrandbits(k)
                while r >= count:
                    r = getrandbits(k)
                count, k, e, b, cum, parents = parents[bisect_right(cum, r)]
                emask |= e
                blocked |= b
            if not zigzag:
                emask = _complete(P, emask, blocked)
            # the tuple is the engine's own: a failed check is a bug
            if fault := structure_fault(P, zigzag, emask, blocked):
                raise InternalInvariantViolation(
                    f"drawn tuple union is not a structure: {fault}")
            yield emask

    return walk()
