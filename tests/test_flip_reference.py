"""The flip-graph counter (flip_reference) against Catalan numbers, the
oracle and the sweep."""

import pytest

import tricount as tc
from tricount import oracle

from conftest import (catalan, conv_points, double_chain, near_convex,
                      random_point_set)
from flip_reference import count_pseudotriangulations


def test_convex_catalan():
    # in convex position every vertex is a hull vertex, so the pointed
    # pseudo-triangulations are the triangulations
    for n in range(3, 10):
        P = tc.validate_point_set(conv_points(n))
        assert count_pseudotriangulations(P) == catalan(n - 2)


@pytest.mark.parametrize("n", range(5, 10))
def test_matches_oracle(n):
    P = random_point_set(n, 1000 * n)
    expect = len(oracle.enumerate_structures(P, "pt"))
    assert count_pseudotriangulations(P) == expect


@pytest.mark.parametrize("n", range(5, 10))
def test_matches_sweep_on_double_chain(n):
    P = tc.validate_point_set(double_chain(n))
    assert count_pseudotriangulations(P) == tc.run_sweep(tc.PT_SYSTEM, P)[0]


def test_matches_sweep_near_convex():
    # above the oracle range, where the edge identity cannot see a pt join
    # that only drops pairs: ten points in convex position and two inside
    P = tc.validate_point_set(near_convex(10, 2, 512))
    assert count_pseudotriangulations(P) == tc.run_sweep(tc.PT_SYSTEM, P)[0]
