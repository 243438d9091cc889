import os
import random
from pathlib import Path
from typing import NamedTuple

import pytest

import tricount as tc
from tricount.geom import orientation

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


def random_points(n, seed, span=40):
    """Seeded general-position integer points via rejection."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        q = (rng.randrange(span), rng.randrange(span))
        if q in pts:
            continue
        if any(orientation(a, b, q) == 0
               for i, a in enumerate(pts) for b in pts[i + 1:]):
            continue
        pts.append(q)
    return pts


def random_point_set(n, seed):
    return tc.validate_point_set(random_points(n, seed))


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
