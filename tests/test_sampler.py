import collections
import hashlib
import itertools
import math
import random
import weakref
from bisect import bisect_right
from itertools import accumulate

import pytest

import tricount as tc
from tricount import oracle, ptpath, sampler, sweep
from tricount.cli import main
from tricount.errors import (
    InputError,
    InternalInvariantViolation,
    ResourceRefusal,
)

from conftest import (FAN5, conv_points, draw_path, edge_counts, edge_set,
                      forward_backward, line_tables, random_point_set,
                      random_points, sample)


def test_three_points_constant(tri3):
    T = frozenset({(0, 1), (0, 2), (1, 2)})
    assert all(edge_set(tri3, s) == T
               for s in sample(tri3, "tri", seed=1, m=5))


def test_a_draw_is_its_mask_over_the_segments(fan5):
    # bit k of a draw is P.segments[k]; a pt draw is the union of its
    # paths, with nothing completed
    for s in sampler.draws(fan5, "pt", 0, 20):
        assert type(s) is int
        keys = [draw_path(fan5, "pt", s, i) for i in range(1, fan5.n)]
        pairs = (e for key in keys for e in zip(key, key[1:]))
        assert fan5.edge_masks(pairs)[0] == s


def test_seed_determinism(conv5):
    a = sample(conv5, "tri", seed=9, m=20)
    b = sample(conv5, "tri", seed=9, m=20)
    assert a == b
    c = sample(conv5, "tri", seed=10, m=20)
    assert a != c


def test_samples_are_valid_structures(fan5):
    for fam in ("tri", "pt"):
        valid = set(oracle.enumerate_structures(fan5, fam))
        for s in sample(fan5, fam, seed=3, m=30):
            assert edge_set(fan5, s) in valid


def test_reconstruct_round_trip(fan5, conv5):
    for P in (fan5, conv5, random_point_set(6, 60)):
        for fam in ("tri", "pt"):
            for S in oracle.enumerate_structures(P, fam):
                if fam == "tri":
                    keys = [tc.extract_tpath(S, i, P).vertices
                            for i in range(1, P.n)]
                else:
                    keys = [tc.extract_ptpath(S, i, P).vertices
                            for i in range(1, P.n)]
                assert tc.reconstruct(keys, P, fam) == P.edge_masks(S)[0]


def test_reconstruct_order_independent(conv5):
    S = oracle.enumerate_structures(conv5, "tri")[0]
    keys = [tc.extract_tpath(S, i, conv5).vertices for i in range(1, conv5.n)]
    base = tc.reconstruct(keys, conv5, "tri")
    # reversed greedy candidate order must complete to the same set
    edges = set()
    for k in keys:
        edges.update(tc.TPath(k, 1).edges())
    for a in reversed(range(conv5.n)):
        for b in reversed(range(a + 1, conv5.n)):
            e = (a, b)
            if e not in edges and not (conv5.edge_masks([e])[0]
                                       & conv5.edge_masks(edges)[1]):
                edges.add(e)
    assert conv5.edge_masks(edges)[0] == base


def test_reconstruct_rejects_crossing_tuple(conv5):
    with pytest.raises(InputError, match="crossing"):
        tc.reconstruct([(1, 0, 4), (3, 0, 2, 1, 4)], conv5, "tri")


def test_reconstruct_rejects_pt_tuples(fan5):
    # (0, 3) and (1, 4) are the diagonals of FAN5's hull quadrilateral
    with pytest.raises(InputError, match="crossing"):
        tc.reconstruct([(1, 0, 3), (0, 1, 4)], fan5, "pt")
    # spokes from interior point 2 to 0, 3 and 4 leave no gap above pi
    with pytest.raises(InputError, match="not pointed"):
        tc.reconstruct([(0, 2, 4), (2, 3)], fan5, "pt")
    # one line's path is no pseudo-triangulation, and it is not completed:
    # the caller's tuple is bad input (exit 2), not a bug
    with pytest.raises(InputError, match="not_maximal"):
        tc.reconstruct([(fan5.hull[1], 0, fan5.hull[-1])], fan5, "pt")
    # an unknown family is refused, not completed as a triangulation
    for family in ("xyz", "PT"):
        with pytest.raises(ValueError, match="unknown family"):
            tc.reconstruct([(1, 0, 4)], fan5, family)


GUARD_REASONS = {"tuple union has crossing edges": "edges_cross",
                 "tuple union is not pointed": "not_pointed",
                 "tuple union is not a pseudo-triangulation: not_maximal":
                 "not_maximal"}


def _guard_reason(P, emask, blocked):
    """The sampler's pt check of a union, as a validate_pt_mask reason."""
    try:
        sampler._complete(P, True, emask, blocked)
    except InputError as exc:
        return GUARD_REASONS[str(exc)]
    return "ok"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_pt_guard_matches_validate_pt_mask(n):
    # the guard (no crossing, every vertex pointed, 2n - 3 edges) gives
    # validate_pt_mask's verdict and reason on every sampled union, on each
    # union with one segment toggled, and on random masks of mixed density
    rng = random.Random(n)
    reasons = collections.Counter()
    for seed in (500 + n, 600 + n):
        P = random_point_set(n, seed)
        s = len(P.segments)
        unions = set(sample(P, "pt", seed, 40))
        masks = unions | {u ^ 1 << k for u in unions for k in range(s)}
        for _ in range(400):
            m = rng.getrandbits(s)
            for _ in range(rng.randrange(4)):
                m &= rng.getrandbits(s)
            masks.add(m)
        for m in masks:
            blocked = P.edge_masks(P.segments[k] for k in tc.geom.bits(m))[1]
            want = ptpath.validate_pt_mask(P, m, blocked).reason
            assert _guard_reason(P, m, blocked) == want, (seed, bin(m))
            reasons[want] += 1
    assert set(reasons) == {"ok", "edges_cross", "not_pointed",
                            "not_maximal"}, reasons


def test_walk_draws_as_randrange(monkeypatch, tri3):
    # the walk's getrandbits rejection draws what randrange(count) draws
    # from one shared stream: a chain of nodes, one per count, each with
    # thresholds cum over its parents; small counts get one parent per
    # value, so the drawn integer itself is seen.  Each parent has its own
    # edge bit and the check is patched out, so a draw's mask, the OR of
    # its picks' bits, names the pick at every depth
    counts = [1, 2, 3, 7, 8, 9, 31, 32, 33, 2**99 + 12345]

    def cum_of(c):
        return list(range(1, c + 1)) if c < 64 else [c // 3, c - c // 5, c]

    # the first edge bit of each depth's parents
    first = list(accumulate((len(cum_of(c)) for c in counts), initial=0))
    node = (1, 1, 0, 0, [], [])  # count, bit length, masks, no parents
    for depth in reversed(range(len(counts))):
        c = counts[depth]
        count, k, _, _, cum, parents = node
        parents = [(count, k, 1 << (first[depth] + j), 0, cum, parents)
                   for j in range(len(cum_of(c)))]
        node = (c, c.bit_length(), 0, 0, cum_of(c), parents)
    monkeypatch.setattr(sampler, "_root", lambda *args: node)
    monkeypatch.setattr(sampler, "_complete", lambda P, zigzag, e, b: e)
    drawn = list(sampler.draws(tri3, "tri", 17, 300))
    rng = random.Random(17)
    picks = [[bisect_right(cum_of(c), rng.randrange(c)) for c in counts]
             for _ in range(300)]
    assert drawn == [sum(1 << (f + j) for f, j in zip(first, pick))
                     for pick in picks]


# sha256 of `tricount sample F --structure S --count C --seed 3` stdout.
# FAN5 and conv6 (C = 50) were recorded before the predicates moved to the
# left-of mask kernel; the random sets (C = 200, many parents per entry and
# edges in every bit position) before the sampler drew, completed and
# printed each structure as one segment bitmask.
GOLDEN_SAMPLE_SHA256 = {
    ("fan5", "tri"):
        "70d1999ac9c76f7670728b98f7b3426e90f7d86f11bef186b75091e3faaacda9",
    ("fan5", "pt"):
        "db63e10ee79ec37010d3085c34e255694c7260c35a52de14fdb037a4bdfb40a0",
    ("conv6", "tri"):
        "69323a0bcaebc4ff7be4f5424ff9947fd2eec9191126c1011d151b46294a9d7f",
    ("conv6", "pt"):
        "69323a0bcaebc4ff7be4f5424ff9947fd2eec9191126c1011d151b46294a9d7f",
    ("random10", "tri"):
        "0724927edcfcfc84077dd5ecb789085740d246559dc3f0d5576ab644e0ce37f2",
    ("random7", "pt"):
        "b764fa6304f6f58ce8153b7706fc0dad30bb50088f0492b21756d2b1172aa94c",
}
GOLDEN_INPUTS = {
    "fan5": (FAN5, 50),
    "conv6": (conv_points(6), 50),
    "random10": (random_points(10, 510), 200),
    "random7": (random_points(7, 507), 200),
}


@pytest.mark.parametrize("name,family", sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_stdout_golden(tmp_path, capsys, name, family):
    pts, count = GOLDEN_INPUTS[name]
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in pts))
    assert main(["sample", str(f), "--structure", family,
                 "--count", str(count), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_SAMPLE_SHA256[(name, family)]


@pytest.mark.parametrize("family,n,seed", [("tri", 10, 510), ("pt", 7, 507)])
def test_sampled_structures_match_reconstruct(family, n, seed):
    # the mask walk completes each draw exactly as reconstruct does its tuple
    P = random_point_set(n, seed)
    run = sample(P, family, seed=5, m=200)
    assert len(run) == 200
    for s in run:
        keys = [draw_path(P, family, s, i) for i in range(1, n)]
        assert tc.reconstruct(keys, P, family) == s
        if family == "pt":
            # a pt draw is its tuple's union, with nothing completed
            pairs = (e for key in keys for e in zip(key, key[1:]))
            assert P.edge_masks(pairs)[0] == s


def test_chi_square_uniformity(conv5):
    from scipy.stats import chisquare
    cats = oracle.enumerate_structures(conv5, "tri")
    counter = collections.Counter(
        edge_set(conv5, s) for s in sample(conv5, "tri", seed=11, m=2000))
    observed = [counter[S] for S in cats]
    assert chisquare(observed).pvalue > 1e-3


def hull_chords(P, family):
    """Each segment ab between non-adjacent hull vertices, with its exact
    marginal: the number of structures that contain it.  These are the
    pairs of a structure of each side, where a side is the points on it
    plus a and b.  tri: ab cuts the hull into two convex regions.  pt: a
    and b are hull vertices of P, so the union of a pseudo-triangulation of
    each side is planar and pointed with 2n - 3 edges; conversely each side
    of a structure that contains ab is planar and pointed, so it has at
    most 2|side| - 3 edges, and the total forces equality."""
    def count(mask):
        side = tc.validate_point_set([P.points[v]
                                      for v in tc.geom.bits(mask)])
        return tc.run_sweep(tc.system_for(family), side)[0]

    h = P.hull
    for s in range(len(h)):
        for t in range(s + 2, len(h) - (s == 0)):
            a, b = sorted((h[s], h[t]))
            ends = 1 << a | 1 << b
            yield (a, b), count(P.left[a][b] | ends) * count(
                P.left[b][a] | ends)


@pytest.mark.parametrize("family,max_n", [("tri", 10), ("pt", 9)])
def test_hull_chord_marginals_match_oracle(family, max_n):
    for n in range(5, max_n + 1):
        for seed in range(4):
            P = random_point_set(n, 500 + 100 * seed + n)
            structures = oracle.enumerate_structures(P, family)
            for e, marginal in hull_chords(P, family):
                assert sum(e in S for S in structures) == marginal, (n, e)


@pytest.mark.parametrize("family,n", [("tri", 14), ("pt", 11)])
def test_hull_chord_frequencies_of_draws(family, n):
    # above the oracle range: every chord's frequency in 20,000 draws lies
    # within |z| <= 5 of its exact marginal, safe over all its chords
    P = random_point_set(n, 500 + n)
    total = tc.run_sweep(tc.system_for(family), P)[0]
    m = 20_000
    chords = list(hull_chords(P, family))
    hits = collections.Counter()
    for s in sampler.draws(P, family, 0, m):
        hits.update(e for e, _ in chords if s >> P.ids[e[0]][e[1]] & 1)
    for e, marginal in chords:
        p = marginal / total
        z = (hits[e] - m * p) / math.sqrt(m * p * (1 - p))
        assert abs(z) <= 5, (e, hits[e], m * p)


@pytest.mark.parametrize("family,n", [("tri", 14), ("pt", 11)])
def test_middle_line_path_frequencies_of_draws(family, n):
    # above the oracle range, every path of the middle line l_{n//2} at
    # once: F(key) * B(key) / N is its exact marginal (forward_backward),
    # against which 20,000 draws' tally there gives a chi-square statistic.
    # For a uniform sampler it has mean dof and variance about 2 dof, so z
    # is about standard normal; cells expecting under one draw widen it a
    # little, and multinomial draws from these marginals reach z >= 5 about
    # once in 1e4 (tri) and less than once in 1e5 (pt).  So z < 5 holds for
    # a reseeded stream, while the parent-pick mutants that select this
    # test read z of 200 and more.  A deficit shows no bias, so the bound
    # is one sided.
    P = random_point_set(n, 500 + n)
    line = n // 2
    table, B = next(itertools.islice(forward_backward(P, family),
                                     line - 1, None))
    weights = [F * B[k] for k, F in zip(table.keys, table.counts)]
    total = sum(weights)
    m = 20_000
    hits = collections.Counter(draw_path(P, family, s, line)
                               for s in sampler.draws(P, family, 0, m))
    assert hits.keys() <= set(table.keys)
    chi2 = sum((hits[k] - m * w / total) ** 2 / (m * w / total)
               for k, w in zip(table.keys, weights))
    dof = len(table.keys) - 1
    z = (chi2 - dof) / math.sqrt(2 * dof)
    assert z < 5, (z, dof)


@pytest.mark.parametrize("family,n", [("tri", 14), ("pt", 9)])
def test_segment_frequencies_of_draws(family, n):
    # above the oracle range, every segment at once: N(e) / N is its exact
    # marginal (conftest.edge_counts).  In 20,000 uniform draws its tally is
    # Binomial(20,000, p), so a segment with p = 0 or 1 is hit exactly 0 or
    # 20,000 times, and the others lie within |z| <= 5: summed over the 81
    # (tri) and 30 (pt) such cells, the exact binomial tails beyond 5 sd
    # come to 5.0e-5 and 1.7e-5, so a reseeded stream fails this test less
    # than once in 1e4 (seed 0 reads max |z| 2.66 and 3.77)
    P = random_point_set(n, 500 + n)
    total = tc.run_sweep(tc.system_for(family), P)[0]
    m = 20_000
    hits = [0] * len(P.segments)
    for s in sampler.draws(P, family, 0, m):
        for k in tc.geom.bits(s):
            hits[k] += 1
    for k, marginal in enumerate(edge_counts(P, family)):
        p = marginal / total
        if p in (0, 1):
            assert hits[k] == m * p, (P.segments[k], hits[k])
            continue
        z = (hits[k] - m * p) / math.sqrt(m * p * (1 - p))
        assert abs(z) <= 5, (P.segments[k], hits[k], m * p)


def test_interleaved_pt_streams_are_independent():
    # two pt streams on different point sets share no state: drawn in
    # turns, each yields exactly what it yields alone
    P, Q = random_point_set(8, 808), random_point_set(9, 909)
    alone = [list(sampler.draws(X, "pt", 2, 200)) for X in (P, Q)]
    turns = list(zip(sampler.draws(P, "pt", 2, 200),
                     sampler.draws(Q, "pt", 2, 200)))
    assert [list(t) for t in zip(*turns)] == alone


def test_draw_count_guard(monkeypatch, conv5):
    # m above the guard and a negative m are refused at the call, before
    # the sweep and the first draw
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sampler, "sweep_lines", no_sweep)
    with pytest.raises(ResourceRefusal,
                       match=f"m={sampler.M_GUARD + 1} exceeds sample guard"):
        sampler.draws(conv5, "tri", 0, sampler.M_GUARD + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        sampler.draws(conv5, "tri", 0, -1)


def test_draws_is_the_sample_stream(conv6):
    # the sweep runs at the call, even for no draws
    with pytest.raises(ResourceRefusal, match="path tables exceed 1 entries"):
        sampler.draws(conv6, "tri", 0, 0, max_table_entries=1)
    stream = list(sampler.draws(conv6, "pt", 4, 30))
    assert list(sampler.draws(conv6, "pt", 4, 30)) == stream
    # seeded draws are one stream: fewer draws are a prefix of more
    assert list(sampler.draws(conv6, "pt", 4, 12)) == stream[:12]


def test_draws_drop_the_tables(monkeypatch, conv6):
    # only the nodes outlive the call: no line's keys or parent lists stay
    # referenced while drawing
    class Kept(list):  # a list that takes weak references
        pass

    refs = []

    def tracked(*args):
        for table in line_tables(sweep.sweep_lines(*args)):
            keys, parents = Kept(table.keys), Kept(map(Kept, table.parents))
            refs.extend(map(weakref.ref, [keys, parents, *parents]))
            yield keys, iter(parents)

    monkeypatch.setattr(sampler, "sweep_lines", tracked)
    stream = sampler.draws(conv6, "tri", 0, 3)
    assert len(refs) > 5 and all(ref() is None for ref in refs)
    assert len(list(stream)) == 3


def _keep_every_parent(P, parents, children, zigzag):
    return ([*range(len(parents))] for _ in children)


def _join_without_pointedness(P, parents, children, zigzag):
    return sweep.join(P, parents, children, False)


@pytest.mark.parametrize("family,system,seed", [
    # a join that keeps crossing parents
    ("tri", sweep.PathSystem(False, _keep_every_parent), 6000),
    # the pt search with a join that runs without its pointedness rows
    ("pt", sweep.PathSystem(True, _join_without_pointedness), 6001),
])
def test_failed_draw_check_is_internal(monkeypatch, tmp_path, capsys,
                                       family, system, seed):
    # a draw's tuple is the engine's own, so a union that fails its check
    # is a bug (exit 4), not bad input (exit 2)
    monkeypatch.setattr(sampler, "system_for", lambda family: system)
    P = random_point_set(6, seed)
    with pytest.raises(InternalInvariantViolation):
        list(sampler.draws(P, family, 0, 10))
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in random_points(6, seed)))
    assert main(["sample", str(f), "--structure", family,
                 "--count", "10"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_budget_refusal_stops_the_sweep(monkeypatch):
    # the budget is checked as each line arrives: the line that crosses it
    # is the last one searched
    P = random_point_set(8, 508)
    path_chains = sweep.path_chains
    sizes = [len(path_chains(P, i, False)) for i in range(1, P.n)]
    searched = []

    def spy(P, i, zigzag, blocked=0):
        searched.append(i)
        return path_chains(P, i, zigzag, blocked)

    monkeypatch.setattr(sweep, "path_chains", spy)
    for last in range(1, P.n - 1):
        budget = sum(sizes[:last]) - 1
        searched.clear()
        with pytest.raises(ResourceRefusal,
                           match=f"path tables exceed {budget} entries"):
            sampler.draws(P, "tri", 0, 1, max_table_entries=budget)
        assert searched == list(range(1, last + 1))
    searched.clear()
    assert len(sample(P, "tri", seed=0, m=2,
                      max_table_entries=sum(sizes))) == 2
    assert searched == list(range(1, P.n))


def test_memory_budget(conv5):
    with pytest.raises(ResourceRefusal, match="path tables exceed 2 entries"):
        sample(conv5, "tri", seed=0, m=1, max_table_entries=2)
