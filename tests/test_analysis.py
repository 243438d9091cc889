from math import comb

import pytest

import tricount as tc
from tricount.analysis import bound_sequence


def test_golden_values():
    rows = bound_sequence(6)
    assert [r.f for r in rows] == [0, 1, 3, 13, 67, 381, 2307]
    assert rows[0].g == 0
    assert rows[1].g == 1


def test_boundary():
    rows = bound_sequence(0)
    assert len(rows) == 1
    assert rows[0].f == 0 and rows[0].g == 0
    with pytest.raises(ValueError):
        bound_sequence(-1)


def test_growth_ratio():
    rows = bound_sequence(200)
    ratio = rows[200].f / rows[199].f
    assert abs(ratio - 8) / 8 < 0.05
    for r in rows[1:]:
        assert r.f < 8 ** r.k


def test_binomial_identity():
    for a in range(31):
        assert sum(comb(a, i) * 8 ** i for i in range(a + 1)) == 9 ** a


def test_report(tri3, conv5):
    # the sweep's per-line report is its SweepStats, written as it stands
    # by `count --stats`
    count, stats, _ = tc.run_sweep(tc.TRI_SYSTEM, tri3)
    assert count == 1
    assert stats.t_per_line == [1, 1]
    assert stats.t_max == 1
    assert stats.t_max <= 9 ** tri3.n  # the paper's bound on T-paths per line

    count, stats, _ = tc.run_sweep(tc.TRI_SYSTEM, conv5)
    assert count == 5
    assert stats.t_max <= count  # small convex case
    assert stats.t_max <= 9 ** conv5.n

    count, stats, _ = tc.run_sweep(tc.PT_SYSTEM, conv5)
    assert len(stats.t_per_line) == conv5.n - 1
    assert stats.t_max == max(stats.t_per_line)


def test_fan5_t_per_line_golden(fan5):
    # values pinned after the oracle-validated first run
    _, stats, _ = tc.run_sweep(tc.TRI_SYSTEM, fan5)
    assert stats.t_per_line == [1, 2, 2, 1]
    _, stats, _ = tc.run_sweep(tc.PT_SYSTEM, fan5)
    assert stats.t_per_line == [1, 4, 4, 1]
