import itertools
import random

import pytest

import tricount as tc
from tricount import geom, oracle, ptpath, sampler, sweep, tpath
from tricount.errors import InternalInvariantViolation

from conftest import line_tables, random_point_set, random_points


def first_path(P):
    """The forced path at l_1: the two hull edges at the leftmost point,
    lower one first (the hull runs CCW from vertex 0)."""
    return (P.hull[1], 0, P.hull[-1])


def test_first_line_is_the_hull_path(fan5, conv5, tri3):
    # the sweep's l_1 comes from the population search alone
    assert first_path(fan5) == first_path(conv5) == (1, 0, 4)
    sets = [fan5, conv5, tri3] + [random_point_set(n, 300 + n)
                                  for n in range(3, 11)]
    for P in sets:
        for system in (tc.TRI_SYSTEM, tc.PT_SYSTEM):
            assert system.chains(P, 1) == [first_path(P)]


def test_run_sweep_basics(fan5, conv5, tri3):
    assert tc.run_sweep(tc.TRI_SYSTEM, tri3)[0] == 1
    assert tc.run_sweep(tc.TRI_SYSTEM, conv5)[0] == 5
    assert tc.run_sweep(tc.TRI_SYSTEM, fan5)[0] == 3


def test_stats_boundaries(fan5, conv5, tri3):
    for P in (fan5, conv5, tri3):
        for system in (tc.TRI_SYSTEM, tc.PT_SYSTEM):
            _, stats, _ = tc.run_sweep(system, P)
            assert stats.t_per_line[0] == 1
            assert stats.t_per_line[-1] == 1
            assert len(stats.t_per_line) == P.n - 1
            assert stats.t_max == max(stats.t_per_line)


def test_paths_cross(conv5):
    keys = sorted(oracle.collect_paths(conv5, 2, "tri"))
    for k in keys:
        assert not tc.paths_cross(k, k, conv5)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            assert tc.paths_cross(keys[a], keys[b], conv5)


def test_initial_successor_compatible(fan5):
    k0 = first_path(fan5)
    for s in tc.tpath_successors(tc.TPath(k0, 1), fan5):
        assert not tc.paths_cross(k0, s, fan5)


def _check_parent_tables(family, P):
    system = tc.system_for(family)
    tables = list(line_tables(sweep.sweep_lines(system, P)))
    assert len(tables) == P.n - 1
    assert tables[-1].counts == [tc.run_sweep(system, P)[0]]
    assert tables[0].keys == [first_path(P)]
    assert tables[0].counts == [1]
    for tab in tables:
        # the sweep keeps keys and parent lists ascending instead of
        # re-sorting them
        assert len(tab.keys) == len(tab.counts) == len(tab.parents)
        assert all(a < b for a, b in zip(tab.keys, tab.keys[1:]))
        for js in tab.parents:
            assert all(a < b for a, b in zip(js, js[1:]))
    for prev, cur in zip(tables, tables[1:]):
        # every chain of the line is kept, as each has a compatible parent,
        # and the join keeps exactly criterion 7's compatible parents
        assert cur.keys == system.chains(P, cur.line)
        row = dict(zip(cur.keys, zip(cur.counts, cur.parents)))
        for key in cur.keys:
            expect = []
            for j, k in enumerate(prev.keys):
                ok = not tc.paths_cross(k, key, P)
                if family == "pt" and ok:
                    union = set(tpath.chain_edges(k)) | \
                        set(tpath.chain_edges(key))
                    ok = ptpath._all_pointed(union, P)
                if ok:
                    expect.append(j)
            count, js = row[key]
            assert js == expect
            assert count >= 1
            assert count == sum(prev.counts[j] for j in js)
    return tables


def test_parent_counts_add_up(fan5):
    for family, P in itertools.product(("tri", "pt"),
                                       (fan5, random_point_set(7, 42))):
        _check_parent_tables(family, P)


@pytest.mark.parametrize("family,n,seed", [("tri", 10, 1028), ("pt", 8, 42)])
def test_parent_bitsets_span_several_words(family, n, seed):
    # some line holds more than 64 paths, so the join's per-segment parent
    # masks are wider than one machine word
    tables = _check_parent_tables(family, random_point_set(n, seed))
    assert max(len(t.keys) for t in tables) > 64


@pytest.mark.parametrize("family,n,seed", [
    ("tri", 5, 3), ("tri", 9, 909), ("tri", 10, 1028),
    ("pt", 6, 606), ("pt", 8, 42),
])
def test_run_sweep_reads_the_stream(family, n, seed):
    # the stream's populations are the search's, l_1 first; run_sweep's
    # stats are the stream's populations and its parent-link totals
    system = tc.system_for(family)
    P = random_point_set(n, seed)
    populations, links = [], []
    for i, (keys, parents) in enumerate(sweep.sweep_lines(system, P), 1):
        assert keys == system.chains(P, i)
        populations.append(len(keys))
        links.append(sum(map(len, parents)))
    assert len(populations) == n - 1 and links[0] == 0
    _, stats, third = tc.run_sweep(system, P)
    assert third is None
    assert stats.t_per_line == populations
    assert stats.population == populations[1:]
    assert stats.join_pairs == links[1:]
    assert len(stats.line_seconds) == n - 2


def test_sweep_lines_search_a_line_when_asked(conv5):
    # no line is searched before it is asked for, and no join runs before
    # its parents are read
    calls = []

    def chains(P, i):
        calls.append(i)
        return tc.TRI_SYSTEM.chains(P, i)

    def join(P, parents, children):
        calls.append("join")
        yield from tc.TRI_SYSTEM.join(P, parents, children)

    lines = sweep.sweep_lines(sweep.PathSystem(chains, join), conv5)
    assert calls == []
    next(lines)
    _, parents = next(lines)
    assert calls == [1, 2]
    assert next(parents) == [0] and calls == [1, 2, "join"]
    assert [keys for keys, _ in lines] == \
        [tc.TRI_SYSTEM.chains(conv5, i) for i in (3, 4)]
    assert calls == [1, 2, "join", 3, 4]


def test_child_without_parent_raises(monkeypatch, conv6):
    # a join that loses the last child's parents stops the sweep (and the
    # sampler, which reads the same stream)
    def lossy(P, parents, children):
        js = list(tc.TRI_SYSTEM.join(P, parents, children))
        return js[:-1] + [[]]

    system = sweep.PathSystem(tc.TRI_SYSTEM.chains, lossy)
    with pytest.raises(InternalInvariantViolation, match="at l_2 has no parent"):
        tc.run_sweep(system, conv6)
    monkeypatch.setattr(sampler, "system_for", lambda family: system)
    with pytest.raises(InternalInvariantViolation, match="has no parent"):
        tc.sample(conv6, "tri", seed=0, m=1)


def _chain_variants(rng, P, i, population, count):
    """Vertex sequences near and far from the population at l_i: random
    walks from the lower hull crossing edge, and population chains with one
    vertex replaced, inserted or deleted."""
    lo, hi = geom.hull_crossing_edges(P, i)
    for _ in range(count):
        if rng.random() < 0.5:
            vs = list(rng.choice(population))
            j = rng.randrange(1, len(vs) - 1)
            move = rng.randrange(3)
            if move == 0:
                vs[j] = rng.randrange(P.n)
            elif move == 1:
                vs.insert(j, rng.randrange(P.n))
            elif len(vs) > 3:
                del vs[j]
        else:
            vs = list(lo) if rng.random() < 0.5 else list(lo[::-1])
            for _ in range(rng.randint(1, 2 * P.n)):
                v = vs[-1]
                across = rng.random() < 0.5
                vs.append(rng.choice([w for w in range(P.n) if w != v and (
                    not across or P.side(w, i) != P.side(v, i))]))
            if rng.random() < 0.5 and vs[-1] in hi:
                vs.append(hi[1] if vs[-1] == hi[0] else hi[0])
        yield tuple(vs)


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_validator_agrees_with_population(family):
    # a chain is valid iff the population search finds it, also where
    # crossings of a rejected chain cross each other
    path, validate = ((tc.TPath, tc.validate_tpath) if family == "tri"
                      else (tc.PTPath, tc.validate_ptpath))
    rng = random.Random(5)
    for n in (6, 7, 8):
        for s in range(4):
            P = random_point_set(n, 1000 * n + s)
            for i in range(1, n):
                population = tc.system_for(family).chains(P, i)
                # strictly ascending: the sweep keeps it without sorting
                assert all(a < b for a, b in zip(population, population[1:]))
                members = set(population)
                for vs in population:
                    assert validate(path(vs, i), P)
                for vs in _chain_variants(rng, P, i, population, 400):
                    assert bool(validate(path(vs, i), P)) == (vs in members)


def test_system_for():
    assert tc.system_for("tri") is tc.TRI_SYSTEM
    assert tc.system_for("pt") is tc.PT_SYSTEM
    with pytest.raises(ValueError):
        tc.system_for("other")


@pytest.mark.parametrize("n,seed", [(5, 10), (6, 11), (7, 12)])
def test_sweep_matches_oracle_random(n, seed):
    P = random_point_set(n, seed)
    assert tc.run_sweep(tc.TRI_SYSTEM, P)[0] == \
        oracle.enumerate_triangulations(P).count
    assert tc.run_sweep(tc.PT_SYSTEM, P)[0] == \
        oracle.enumerate_pointed_pseudotriangulations(P).count


@pytest.mark.parametrize("family,n,seed,count", [
    ("tri", 13, 513, 67647),
    ("tri", 14, 514, 386767),
    ("tri", 16, 516, 5176695),
    ("pt", 9, 509, 2900),
    ("pt", 11, 511, 59836),
    ("pt", 12, 512, 977732),
])
def test_count_invariant_under_rotation_and_reflection(family, n, seed, count):
    # above the oracle guards; each map reorders the sweep completely
    pts = random_points(n, seed)
    maps = [lambda x, y: (x, y), lambda x, y: (-y, x),
            lambda x, y: (-x, y), lambda x, y: (y, x)]
    for f in maps:
        P = tc.validate_point_set([f(x, y) for x, y in pts])
        assert tc.run_sweep(tc.system_for(family), P)[0] == count
