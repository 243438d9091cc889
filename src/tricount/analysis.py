"""T-path-bound recurrence and sweep reports.

The pair of sequences

    f_k = g_k + sum_{i=1..k-1} f_i * g_{k-i}
    g_k = h_k + f_{k-1} + sum_{i=1..k-1} f_i * g_{k-i}

with f_0 = g_0 = h_0 = 0 and h_k = 1 iff k = 1 bounds the number of
one-sided T-path signatures; f_k grows roughly like 8^k (OEIS A064062).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .geom import PointSet
from .sweep import SweepStats


class BoundSequence(NamedTuple):
    k: int
    f: int
    g: int


class SweepReport(NamedTuple):
    n: int
    family: str
    count: int
    t_per_line: list[int]
    t_max: int
    elapsed_ms: float
    t_max_within_nine_pow_n: Optional[bool]  # tri only; no pt bound exists
    t_max_vs_count: int  # -1, 0 or 1


def bound_sequence(K: int) -> list[BoundSequence]:
    if K < 0:
        raise ValueError("K must be nonnegative")
    f = [0] * (K + 1)
    g = [0] * (K + 1)
    out = [BoundSequence(0, 0, 0)]
    for k in range(1, K + 1):
        s = sum(f[i] * g[k - i] for i in range(1, k))
        h = 1 if k == 1 else 0
        g[k] = h + f[k - 1] + s
        f[k] = g[k] + s
        out.append(BoundSequence(k, f[k], g[k]))
    return out


def report(stats: SweepStats, P: PointSet, family: str, count: int,
           elapsed_ms: float) -> SweepReport:
    t_max = stats.t_max
    within = t_max <= 9 ** P.n if family == "tri" else None
    cmp = (t_max > count) - (t_max < count)
    return SweepReport(
        n=P.n,
        family=family,
        count=count,
        t_per_line=list(stats.t_per_line),
        t_max=t_max,
        elapsed_ms=elapsed_ms,
        t_max_within_nine_pow_n=within,
        t_max_vs_count=cmp,
    )
