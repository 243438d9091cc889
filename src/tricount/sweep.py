"""Sweep-line dynamic program over path families.

The sweep walks the lines l_1 .. l_{n-1}, keeping for every path pi in the
current population the number of compatible path prefixes T(pi).  Counts
are merged by canonical path key (the vertex tuple), so the final table at
l_{n-1} holds a single entry whose count is the number of structures.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import ptpath, tpath
from .errors import InternalInvariantViolation, MemoryBudgetExceeded
from .geom import PointSet, seg
from .tpath import PathKey


class PathSystem(NamedTuple):
    family: str  # "tri" or "pt"
    # the path population at l_i
    chains: Callable[[PointSet, int], list[PathKey]]
    # for each child in turn, the ascending indices of its compatible parents
    join: Callable[[PointSet, Sequence[PathKey], Sequence[PathKey]],
                   Iterable[list[int]]]


class SweepStats:
    def __init__(self, t_per_line: list[int]):
        self.t_per_line = t_per_line
        # per line from l_2 on: search and join time, chains found, and
        # parent -> child links kept
        self.line_seconds: list[float] = []
        self.population: list[int] = []
        self.join_pairs: list[int] = []

    @property
    def t_max(self) -> int:
        return max(self.t_per_line)


class TableEntry:
    __slots__ = ("count", "parents")

    def __init__(self, count: int, parents: Sequence[PathKey] = ()):
        self.count = count
        self.parents = parents


class PathTable(NamedTuple):
    line: int
    entries: dict[PathKey, TableEntry]


def initial_path(P: PointSet) -> PathKey:
    """The forced path at l_1: the two hull edges at the leftmost point."""
    hull = P.convex_hull()
    pos = hull.index(0)
    b = hull[(pos - 1) % len(hull)]
    c = hull[(pos + 1) % len(hull)]
    if P.above(seg(0, b), seg(0, c)):
        b, c = c, b
    return (b, 0, c)


def paths_cross(k1: PathKey, k2: PathKey, P: PointSet) -> bool:
    blocked = P.edge_masks(zip(k1, k1[1:]))[1]
    return bool(blocked & P.edge_masks(zip(k2, k2[1:]))[0])


TRI_SYSTEM = PathSystem("tri", tpath.tpath_chains, tpath.tpath_join)
PT_SYSTEM = PathSystem("pt", ptpath.ptpath_chains, ptpath.ptpath_join)


def system_for(family: str) -> PathSystem:
    if family == "tri":
        return TRI_SYSTEM
    if family == "pt":
        return PT_SYSTEM
    raise ValueError(f"unknown family {family!r}")


def run_sweep(system: PathSystem, P: PointSet, record_parents: bool = False,
              max_table_entries: Optional[int] = None
              ) -> tuple[int, SweepStats, Optional[list[PathTable]]]:
    """Count structures; optionally retain all tables for the sampler.

    Each line's population is joined to the previous one's in sorted key
    order, so every entry's parents list is sorted.
    """
    key0 = initial_path(P)
    counts: dict[PathKey, int] = {key0: 1}
    tables: Optional[list[PathTable]] = None
    total_entries = 1
    if record_parents:
        tables = [PathTable(1, {key0: TableEntry(1)})]
    stats = SweepStats([1])

    for i in range(1, P.n - 1):
        t0 = time.perf_counter()
        parent_keys = sorted(counts)
        parent_counts = [counts[k] for k in parent_keys]
        children = sorted(set(system.chains(P, i + 1)))
        nxt: dict[PathKey, TableEntry] = {}
        pairs = 0
        for c, js in zip(children, system.join(P, parent_keys, children)):
            if not js:
                continue
            entry = nxt[c] = TableEntry(sum(parent_counts[j] for j in js))
            if record_parents:
                entry.parents = [parent_keys[j] for j in js]
            pairs += len(js)
        if not nxt:
            raise InternalInvariantViolation(
                f"population at l_{i + 1} is empty")
        counts = {k: e.count for k, e in nxt.items()}
        stats.t_per_line.append(len(nxt))
        stats.line_seconds.append(time.perf_counter() - t0)
        stats.population.append(len(children))
        stats.join_pairs.append(pairs)
        if record_parents:
            total_entries += len(nxt)
            if max_table_entries is not None and total_entries > max_table_entries:
                raise MemoryBudgetExceeded(
                    f"path tables exceed {max_table_entries} entries")
            tables.append(PathTable(i + 1, nxt))

    if len(counts) != 1:
        raise InternalInvariantViolation(
            f"expected a single path at l_{P.n - 1}, got {len(counts)}")
    final = next(iter(counts.values()))
    return final, stats, tables
