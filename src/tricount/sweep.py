"""Sweep-line dynamic program over path families.

The sweep walks the lines l_1 .. l_{n-1}, keeping for every path pi in the
current population the number of compatible path prefixes T(pi).  The
population search is the only source of paths: it returns each line's
chains strictly ascending (the key is the vertex tuple), and at l_1 just
the forced path, the two hull edges at the leftmost point.  A line is held
as parallel lists in that order: the keys, their counts and, for the
sampler, each key's parents as ascending indices into the previous line's
keys.  The final line holds a single key whose count is the number of
structures.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import tpath
from .errors import InternalInvariantViolation, MemoryBudgetExceeded
from .geom import PointSet
from .tpath import PathKey


class PathSystem(NamedTuple):
    # the path population at l_i, strictly ascending
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


class PathTable(NamedTuple):
    line: int
    keys: list[PathKey]  # ascending
    counts: list[int]  # counts[k] = T(keys[k])
    parents: list[list[int]]  # ascending indices into the previous keys


def paths_cross(k1: PathKey, k2: PathKey, P: PointSet) -> bool:
    blocked = P.edge_masks(zip(k1, k1[1:]))[1]
    return bool(blocked & P.edge_masks(zip(k2, k2[1:]))[0])


TRI_SYSTEM = PathSystem(tpath.tpath_chains, tpath.tpath_join)
PT_SYSTEM = PathSystem(tpath.ptpath_chains, tpath.ptpath_join)


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

    Every line starts from the search's own ascending population and keeps
    it in order, so every line's keys are ascending and the join's index
    lists are its parents as they stand.

    Every chain of a population has a compatible parent, so a child with
    none raises InternalInvariantViolation instead of being dropped (an
    empty line then fails at the next line or at the end).  A chain is in
    the population only if it is valid, and a valid chain at l_{i+1}
    extends to a structure whose path there it is (tpath, ptpath).  That
    structure's path at l_i is in the population at l_i, and the two paths
    are compatible, as both are edges of one structure: the join must
    report it.
    """
    keys = system.chains(P, 1)
    counts = [1] * len(keys)
    tables: Optional[list[PathTable]] = None
    total_entries = len(keys)
    if record_parents:
        tables = [PathTable(1, keys, counts, [[] for _ in keys])]
    stats = SweepStats([len(keys)])

    for i in range(1, P.n - 1):
        t0 = time.perf_counter()
        children = system.chains(P, i + 1)
        sums, parents = [], []
        pairs = 0
        for c, js in zip(children, system.join(P, keys, children)):
            if not js:
                raise InternalInvariantViolation(
                    f"path {c} at l_{i + 1} has no parent")
            sums.append(sum(counts[j] for j in js))
            if record_parents:
                parents.append(js)
            pairs += len(js)
        keys, counts = children, sums
        stats.t_per_line.append(len(keys))
        stats.line_seconds.append(time.perf_counter() - t0)
        stats.population.append(len(children))
        stats.join_pairs.append(pairs)
        if record_parents:
            total_entries += len(keys)
            if max_table_entries is not None and total_entries > max_table_entries:
                raise MemoryBudgetExceeded(
                    f"path tables exceed {max_table_entries} entries")
            tables.append(PathTable(i + 1, keys, counts, parents))

    if len(keys) != 1:
        raise InternalInvariantViolation(
            f"expected a single path at l_{P.n - 1}, got {len(keys)}")
    return counts[0], stats, tables
