"""Sweep-line dynamic program over path families.

sweep_lines is the sweep's only loop: a stream of the lines l_1 .. l_{n-1},
each the search's strictly ascending population (the key is the vertex
tuple; at l_1 just the forced path, the two hull edges at the leftmost
point) with each chain's parents, as ascending indices into the previous
line.  Its consumers act between two lines: run_sweep keeps each chain's
count of compatible path prefixes T(pi), the sampler its nodes.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import tpath
from .errors import InternalInvariantViolation
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
        # per line from l_2 on: search and join seconds, parent links kept
        self.line_seconds: list[float] = []
        self.join_pairs: list[int] = []

    @property
    def t_max(self) -> int:
        return max(self.t_per_line)

    @property
    def population(self) -> list[int]:  # chains found from l_2 on, all kept
        return self.t_per_line[1:]


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


def _linked(i: int, children: Sequence[PathKey],
            parents: Iterable[list[int]]) -> Iterator[list[int]]:
    for c, js in zip(children, parents):
        if not js:
            raise InternalInvariantViolation(
                f"path {c} at l_{i} has no parent")
        yield js


def sweep_lines(system: PathSystem, P: PointSet
                ) -> Iterator[tuple[list[PathKey], Iterator[list[int]]]]:
    """Each line l_1 .. l_{n-1} in turn: its ascending population and a
    lazy iterator over each chain's ascending parent indices (none at l_1).
    A line is searched only when asked for and joined only as its parents
    are read, so no line's parent lists outlive their reading.

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
    yield keys, ([] for _ in keys)
    for i in range(2, P.n):
        children = system.chains(P, i)
        yield children, _linked(i, children, system.join(P, keys, children))
        keys = children
    if len(keys) != 1:
        raise InternalInvariantViolation(
            f"expected a single path at l_{P.n - 1}, got {len(keys)}")


def run_sweep(system: PathSystem, P: PointSet
              ) -> tuple[int, SweepStats, None]:
    """The number of structures and the sweep's per-line stats.  The third
    value is always None, kept for callers that unpack three values (the
    benchmark's tracer)."""
    lines = sweep_lines(system, P)
    counts = [1] * len(next(lines)[0])
    stats = SweepStats([len(counts)])
    t0 = time.perf_counter()
    for keys, parents in lines:
        sums, pairs = [], 0
        for js in parents:
            sums.append(sum(counts[j] for j in js))
            pairs += len(js)
        counts = sums
        stats.t_per_line.append(len(keys))
        stats.line_seconds.append(time.perf_counter() - t0)
        stats.join_pairs.append(pairs)
        t0 = time.perf_counter()
    return counts[0], stats, None
