"""Seeded benchmark instances and their reference counts.

Every workload is a fixed matrix of base point sets: convex sets on the
parabola (k, k^2) and general-position sets drawn by rejection sampling
from fixed base seeds.  The benchmark's --seed picks, per instance, an
integer unimodular map (a rotation or reflection of the grid followed by
two small shears).  Such a map keeps integrality, general position and the
order type, so the exact count is the same for every seed and can be
checked against a committed reference (Catalan numbers for convex sets),
while the lexicographic sweep order -- and so the sweep's populations and
search cost -- changes with the seed.

Run this file to print the reference counts of every random base set,
computed with the engine under src/ on the untransformed points:

    PYTHONPATH=src python3 bench/instances.py > bench/reference_counts.json
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

Point = tuple[int, int]

REFERENCE_FILE = Path(__file__).with_name("reference_counts.json")


@dataclass(frozen=True)
class Spec:
    """One base instance of a workload's matrix."""
    family: str          # "tri" or "pt"
    n: int
    base: int | None     # base seed of a random set; None for a convex set
    samples: int = 0     # > 0: run `sample --count samples` instead of `count`

    @property
    def name(self) -> str:
        kind = "convex" if self.base is None else f"r{self.base}"
        return f"{self.family}-n{self.n}-{kind}"


def _randoms(family: str, n: int, count: int, samples: int = 0) -> list[Spec]:
    first = 1000 * n + (0 if family == "tri" else 500)
    return [Spec(family, n, first + k, samples) for k in range(count)]


# Each matrix is one size class of random sets (plus convex sets, whose
# counts are Catalan numbers), so that the median and the tail of the wall
# times fall inside one cluster rather than between two.  Sizes keep one
# pass near 22 s on two cores at the first measured commit, with 25 to 60
# CLI runs per pass: the spread of the sum over instances across seeds
# falls with the number of instances, and the tail needs ten samples
# beyond it.
WORKLOADS: dict[str, list[Spec]] = {
    "tri-count": (_randoms("tri", 12, 22)
                  + [Spec("tri", 12, None), Spec("tri", 13, None)]),
    "pt-count": (_randoms("pt", 7, 60)
                 + [Spec("pt", 7, None), Spec("pt", 8, None)]),
    "sample": _randoms("tri", 10, 18, 1000) + _randoms("pt", 7, 18, 1000),
}


def orientation(a: Point, b: Point, c: Point) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def random_points(n: int, seed: int, span: int = 40) -> list[Point]:
    """Seeded general-position integer points via rejection (as in the
    test suite's generator, kept here so the benchmark does not import the
    tests)."""
    rng = random.Random(seed)
    pts: list[Point] = []
    while len(pts) < n:
        q = (rng.randrange(span), rng.randrange(span))
        if q in pts:
            continue
        if any(orientation(a, b, q) == 0
               for i, a in enumerate(pts) for b in pts[i + 1:]):
            continue
        pts.append(q)
    return pts


def base_points(spec: Spec) -> list[Point]:
    if spec.base is None:
        return [(k, k * k) for k in range(spec.n)]
    return random_points(spec.n, spec.base)


def unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    """A random integer matrix (a, b, c, d) with ad - bc = +-1."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(2):
        k = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b = -a, -b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return a, b, c, d


def instance_points(spec: Spec, seed: int) -> list[Point]:
    """The points the program receives for this instance under --seed."""
    a, b, c, d = unimodular(random.Random(f"{seed}:{spec.name}"))
    return sorted((a * x + b * y, c * x + d * y) for x, y in base_points(spec))


def catalan(m: int) -> int:
    c = 1
    for k in range(m):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def expected_count(spec: Spec, references: dict[str, str]) -> int:
    """Exact count of the instance: Catalan(n-2) for convex position (both
    families coincide there), else the committed reference."""
    if spec.base is None:
        return catalan(spec.n - 2)
    return int(references[spec.name])


def load_references() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())


def convex_hull_size(points: list[Point]) -> int:
    pts = sorted(points)

    def half(seq: list[Point]) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(half(pts)) + len(half(pts[::-1])) - 2


def main() -> None:
    from tricount import run_sweep, system_for, validate_point_set

    refs = {}
    for specs in WORKLOADS.values():
        for spec in specs:
            if spec.base is None or spec.name in refs:
                continue
            P = validate_point_set(base_points(spec))
            refs[spec.name] = str(run_sweep(system_for(spec.family), P)[0])
    print(json.dumps(dict(sorted(refs.items())), indent=1))


if __name__ == "__main__":
    main()
