"""Uniform random generation by reverse sweep over recorded path tables.

Walking backwards from the unique path at l_{n-1}, a parent pi at l_i is
chosen with probability count(pi)/count(pi') among the recorded parents of
pi'.  The telescoping product makes every compatible path tuple, and hence
every structure, equally likely.  Parent choice uses exact big-integer
cumulative thresholds; no floating point is involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Optional

from . import ptpath, tpath
from .errors import IncompatibleTuple, InternalInvariantViolation
from .geom import PointSet, Segment
from .sweep import PathKey, PathTable, run_sweep, system_for
from .tpath import chain_edges

EdgeSet = FrozenSet[Segment]


@dataclass
class ReconstructedStructure:
    family: str
    edges: EdgeSet


@dataclass
class SampleRun:
    seed: int
    family: str
    tuples: list[list[PathKey]]
    structures: list[ReconstructedStructure]


def _draw_tuple(tables: list[PathTable], rng: random.Random) -> list[PathKey]:
    last = tables[-1]
    (key, entry), = last.entries.items()
    chosen = [key]
    for table in reversed(tables[:-1]):
        r = rng.randrange(entry.count)
        acc = 0
        for parent in entry.parents:
            acc += table.entries[parent].count
            if r < acc:
                break
        else:
            raise InternalInvariantViolation("parent counts do not add up")
        key, entry = parent, table.entries[parent]
        chosen.append(key)
    chosen.reverse()
    return chosen


def reconstruct(tuple_keys: list[PathKey], P: PointSet,
                family: str) -> ReconstructedStructure:
    """Union of the tuple's edges, greedily completed to a maximal set.

    The completion is independent of the greedy order because a compatible
    tuple determines its structure uniquely; lexicographic candidate order
    is used for determinism anyway.  The edge set is kept as a bitmask over
    the crossing table's segment index (which is in lexicographic order),
    and for pt as each vertex's neighbour mask.
    """
    index, cross = P.crossing_table()
    edges: set[Segment] = set()
    for key in tuple_keys:
        edges.update(chain_edges(key))
    emask = 0
    for e in edges:
        emask |= 1 << index[e]
    if any(cross[index[e]] & emask for e in edges):
        raise IncompatibleTuple("tuple union has crossing edges")
    adj = ptpath.adjacency(edges, P.n)
    if family == "pt" and not all(P.pointed(v, m) for v, m in enumerate(adj)):
        raise IncompatibleTuple("tuple union is not pointed")

    for (a, b), k in index.items():
        if emask >> k & 1 or cross[k] & emask:
            continue
        if family == "pt":
            if not ptpath.addable(P, adj, a, b):
                continue
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        emask |= 1 << k
        edges.add((a, b))

    if family == "tri":
        target = tpath.triangulation_edge_target(P)
        if len(edges) != target:
            raise InternalInvariantViolation(
                f"completed to {len(edges)} edges, expected {target}")
    else:
        check = ptpath.validate_pseudotriangulation(edges, P)
        if not check:
            raise InternalInvariantViolation(
                f"completion is not a pseudo-triangulation: {check.reason}")
    return ReconstructedStructure(family, frozenset(edges))


def sample(P: PointSet, family: str, seed: int, m: int,
           max_table_entries: Optional[int] = None) -> SampleRun:
    """Draw m structures i.i.d. uniformly at random."""
    system = system_for(family)
    _, _, tables = run_sweep(system, P, record_parents=True,
                             max_table_entries=max_table_entries)
    rng = random.Random(seed)
    tuples = []
    structures = []
    for _ in range(m):
        chosen = _draw_tuple(tables, rng)
        tuples.append(chosen)
        structures.append(reconstruct(chosen, P, family))
    return SampleRun(seed, family, tuples, structures)
