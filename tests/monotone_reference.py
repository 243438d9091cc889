"""An independent triangulation counter: marked monotone paths.

This is the O(n^2 2^n) dynamic program of Alvarez and Seidel ("A simple
aggregative algorithm for counting triangulations of planar point sets and
related problems", SoCG 2013).  It shares nothing with the sweep or the
oracle but the left-of masks and triangle emptiness of PointSet.

A state is an x-monotone path of vertices from vertex 0 to vertex n-1 (a
strictly ascending vertex tuple), with a mark m, an edge index.  The part
of the hull below the path is triangulated, and each move adds one empty
triangle just above the path.  With edges e_j = (v_j, v_{j+1}):

- insert at an edge j >= m: a vertex x with v_j < x < v_{j+1}, left of
  directed v_j v_{j+1}, with triangle v_j x v_{j+1} empty; the new mark is
  j;
- remove vertex j >= max(1, m): v_j not left of directed v_{j-1} v_{j+1},
  with triangle v_{j-1} v_j v_{j+1} empty; the new mark is j - 1.

The mark keeps only the leftmost-first order of adding the triangles of
one triangulation, so every triangulation is one sequence of moves from
the lower hull (mark 0) to the upper hull.  Each move adds one triangle
and every triangulation has the same number, so the layers by move count
are a topological order.
"""

from __future__ import annotations

from collections import defaultdict

from tricount.geom import PointSet, bits


def count_triangulations(P: PointSet) -> int:
    n, left = P.n, P.left
    end = P.hull.index(n - 1)
    lower = P.hull[:end + 1]
    upper = (0,) + P.hull[:end:-1] + (n - 1,)
    total = 0
    layer = {(lower, 0): 1}
    while layer:
        nxt: dict = defaultdict(int)
        for (path, m), c in layer.items():
            if path == upper:
                total += c
                continue
            for j in range(m, len(path) - 1):
                a, b = path[j], path[j + 1]
                between = (1 << b) - (2 << a)
                for x in bits(left[a][b] & between):
                    if not P.inside(a, x, b):
                        nxt[path[:j + 1] + (x,) + path[j + 1:], j] += c
            for j in range(max(1, m), len(path) - 1):
                a, v, b = path[j - 1], path[j], path[j + 1]
                if not left[a][b] >> v & 1 and not P.inside(a, v, b):
                    nxt[path[:j] + path[j + 1:], j - 1] += c
        layer = nxt
    return total
