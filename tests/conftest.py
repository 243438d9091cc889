import os
import random
from math import comb
from pathlib import Path
from typing import NamedTuple

import pytest

import tricount as tc
from tricount.geom import bits
from tricount.sweep import path_chains, sweep_lines

from scan_predicates import sign

# subprocess tests run `python -m tricount.cli`; let them import from src/
# as the test process does (pyproject's pytest pythonpath)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

FAN5 = [(0, 0), (2, 2), (3, 7), (4, 8), (6, 18)]
# lex order: (0,0)=0, (2,2)=1, (3,7)=2, (4,8)=3, (6,18)=4; 2 is interior


def conv_points(n):
    """n points on a parabola: convex position, no collinear triple."""
    return [(k, k * k) for k in range(n)]


def random_points(n, seed, span=40, columns=None):
    """Seeded general-position integer points via rejection; with columns,
    x takes only that many values, so that points share x."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        q = (rng.randrange(columns or span), rng.randrange(span))
        if q in pts:
            continue
        if any(sign(a, b, q) == 0
               for i, a in enumerate(pts) for b in pts[i + 1:]):
            continue
        pts.append(q)
    return pts


def double_chain(n):
    """p = n // 2 points on a lower chain bulging up and q = n - p on an
    upper chain bulging down, alternating in x.  Its triangulations are one
    of each outer pocket (a convex polygon on one chain) times one of the
    middle region, whose reflex chains interleave, so its tri count is
    C(n - 2, p - 1) * Cat(p - 2) * Cat(q - 2) (double_chain_tri_count)."""
    p = n // 2
    q = n - p
    return ([(2 * k, k * (p - 1 - k)) for k in range(p)] +
            [(2 * k + 1, 1000 - k * (q - 1 - k)) for k in range(q)])


def near_convex(m, k, seed):
    """m points (10x, 10x^2) in convex position and k seeded points
    strictly inside their hull, by rejection: validate_point_set refuses a
    repeated point or a collinear triple, and a point is kept only if it is
    an interior vertex of the set.  Few points inside keep the pt count
    small enough for the flip counter (tests/flip_reference.py) above the
    oracle range."""
    rng = random.Random(seed)
    pts = [(10 * x, 10 * x * x) for x in range(m)]
    while len(pts) < m + k:
        q = (rng.randrange(10 * m), rng.randrange(10 * m * m))
        try:
            P = tc.validate_point_set(pts + [q])
        except tc.TricountError:
            continue
        if q in [P.points[v] for v in P.interior]:
            pts.append(q)
    return pts


def double_chain_tri_count(n):
    p = n // 2
    return comb(n - 2, p - 1) * catalan(p - 2) * catalan(n - p - 2)


def random_point_set(n, seed):
    return tc.validate_point_set(random_points(n, seed))


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def sample(P, family, seed, m, max_table_entries=None):
    """m seeded draws of the sampler's stream (tricount.draws), all kept:
    each draw's bitmask over P.segments."""
    return list(tc.draws(P, family, seed, m, max_table_entries))


def draw_path(P, family, mask, i):
    """A draw's path at l_i, recovered from its mask: the search at l_i
    with every segment outside the structure blocked finds exactly one
    chain, the structure's path there."""
    chains = path_chains(P, i, tc.system_for(family).zigzag, ~mask)
    assert len(chains) == 1, (i, bin(mask), chains)
    return chains[0]


def edge_set(P, mask):
    """A structure's bitmask over P.segments as its set of vertex pairs."""
    return frozenset(P.segments[k] for k in bits(mask))


class Table(NamedTuple):
    line: int
    keys: list  # ascending
    counts: list  # counts[k] = T(keys[k])
    parents: list  # ascending indices into the previous keys


def line_tables(lines):
    """Each line of a sweep stream (sweep.sweep_lines) as a table, yielded
    as the line arrives, l_1 first: its keys, their counts and its parent
    lists, which the stream gives lazily and the table keeps."""
    counts = None
    for line, (keys, parents) in enumerate(lines, 1):
        parents = list(parents)
        counts = ([1] * len(keys) if counts is None else
                  [sum(counts[j] for j in js) for js in parents])
        yield Table(line, keys, counts, parents)


def rotated_key(key, n):
    """A path key of an n-point set as a key of its 180-degree image, and
    back: vertex v is vertex n-1-v there, and the lower end is the upper."""
    return tuple(n - 1 - v for v in reversed(key))


def forward_backward(P, family):
    """Each line l_m of P's sweep, l_1 first, as its forward table and its
    backward counts B: the image of P turned by 180 degrees sweeps the other
    way, and its line l_{n-m} is l_m, so B maps each path of the image's
    population there, as a key of P, to its forward count.  A structure of
    P is a path at l_m with a structure on either side, so F(key) * B(key)
    of them have that path there."""
    system = tc.system_for(family)
    image = tc.validate_point_set([(-x, -y) for x, y in P.points])
    back = list(line_tables(sweep_lines(system, image)))
    for table in line_tables(sweep_lines(system, P)):
        b = back[P.n - 1 - table.line]
        yield table, {rotated_key(k, P.n): c
                      for k, c in zip(b.keys, b.counts)}


def check_forward_backward(P, family):
    """Assert, at every line, that the population's image is exactly the
    image's population and that the sum of F * B over it is the count N;
    return N."""
    sums = []
    for table, B in forward_backward(P, family):
        assert set(table.keys) == B.keys(), (family, table.line)
        sums.append(sum(F * B[k] for k, F in zip(table.keys, table.counts)))
    # l_{n-1} holds the one path, whose forward count is N
    assert sums == [table.counts[0]] * len(sums), (family, sums)
    return sums[0]


def constrained_count(P, family, blocked):
    """The sweep's count with blocked, a bitmask over P.segments, passed to
    every line's search (sweep.path_chains): the compatible tuples of paths
    that use no blocked segment, each line joined by the family's join.  A
    child without a parent counts 0, and an emptied line empties the rest."""
    system = tc.system_for(family)
    keys = path_chains(P, 1, system.zigzag, blocked)
    counts = [1] * len(keys)
    for i in range(2, P.n):
        children = path_chains(P, i, system.zigzag, blocked)
        counts = [sum(counts[j] for j in js)
                  for js in system.join(P, keys, children, system.zigzag)]
        keys = children
    return sum(counts)


def edge_counts(P, family):
    """N(e) for each segment e of P, in P.segments order: the number of
    structures of the family that contain e, by one constrained sweep each.

    tri: block cross[e].  A triangulation T with e has no edge crossing e,
    so neither have its paths.  Conversely, if T's paths avoid cross[e],
    their union with e is non-crossing and completes to a triangulation T';
    each path of T is a valid T-path whose edges lie in T', so it is the
    path of T' at its line (a triangulation has exactly one there), and T'
    has T's tuple, so T' = T holds e.  The sweep counts each triangulation
    once, by its tuple, so the count is N(e).

    pt: block e itself and subtract from N: every pt edge lies on one of
    its PT-paths (the covering lemma), so the count is the structures
    without e.

    The look-alikes are wrong.  Blocking e for tri does not count the
    triangulations without e, as some triangulation edges lie on no
    T-path.  Blocking cross[e] for pt does not count the structures with
    e, as a pointed set that e does not cross need not take e and stay
    pointed.
    """
    if family == "tri":
        return [constrained_count(P, family, c) for c in P.cross]
    total = constrained_count(P, family, 0)
    return [total - constrained_count(P, family, 1 << k)
            for k in range(len(P.segments))]


def structure_edge_count(P, family):
    """|E|, the number of edges of every structure of the family on P."""
    return 3 * P.n - 3 - len(P.hull) if family == "tri" else 2 * P.n - 3


@pytest.fixture(scope="session")
def fan5():
    return tc.validate_point_set(FAN5)


@pytest.fixture(scope="session")
def conv5():
    return tc.validate_point_set(conv_points(5))


@pytest.fixture(scope="session")
def conv6():
    return tc.validate_point_set(conv_points(6))


@pytest.fixture(scope="session")
def tri3():
    return tc.validate_point_set([(0, 0), (3, 1), (1, 4)])


def fan5_star_triangulation():
    """FAN5 hull plus all four spokes from the interior point (index 2)."""
    return frozenset({(0, 1), (1, 3), (3, 4), (0, 4),
                      (0, 2), (1, 2), (2, 3), (2, 4)})
