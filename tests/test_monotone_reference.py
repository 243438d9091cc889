"""The marked monotone-path counter (monotone_reference) against the
oracle, Catalan numbers, the sweep and the double chain's closed form."""

import pytest

import tricount as tc
from tricount import oracle

from conftest import (catalan, conv_points, double_chain,
                      double_chain_tri_count, random_point_set)
from monotone_reference import count_triangulations


def test_convex_catalan():
    for n in range(3, 12):
        P = tc.validate_point_set(conv_points(n))
        assert count_triangulations(P) == catalan(n - 2)


@pytest.mark.parametrize("n", range(4, 11))
def test_matches_oracle(n):
    for s in range(6):
        P = random_point_set(n, 900 + 10 * n + s)
        expect = len(oracle.enumerate_structures(P, "tri"))
        assert count_triangulations(P) == expect


@pytest.mark.parametrize("n", range(13, 17))
def test_matches_sweep_above_the_oracle_range(n):
    for seed in (500 + n, 700 + n):
        P = random_point_set(n, seed)
        assert count_triangulations(P) == tc.run_sweep(False, P)[0]


def test_double_chain_closed_form():
    for n in range(6, 19):
        P = tc.validate_point_set(double_chain(n))
        assert count_triangulations(P) == double_chain_tri_count(n)
