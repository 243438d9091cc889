"""T-path-bound recurrence.

The pair of sequences

    f_k = g_k + sum_{i=1..k-1} f_i * g_{k-i}
    g_k = h_k + f_{k-1} + sum_{i=1..k-1} f_i * g_{k-i}

with f_0 = g_0 = h_0 = 0 and h_k = 1 iff k = 1 bounds the number of
one-sided T-path signatures; f_k grows roughly like 8^k (OEIS A064062).
The sweep's own per-line record is sweep.SweepStats, which holds only what
the sweep measured; `count --stats` derives t_max and population from it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ResourceRefusal, check_nonnegative, shown

# bound_sequence refuses K above this: the recurrence is O(K^2) products of
# ever wider integers (K = 1000 takes about half a second, K = 2000 six)
K_GUARD = 1000


class BoundSequence(NamedTuple):
    k: int
    f: int
    g: int


def bound_sequence(K: int) -> list[BoundSequence]:
    check_nonnegative("K", K)
    if K > K_GUARD:
        raise ResourceRefusal(f"K={shown(K)} exceeds sequence guard {K_GUARD}")
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

