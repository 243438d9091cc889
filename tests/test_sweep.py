import itertools
import random

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import tricount as tc
from tricount import geom, oracle, ptpath, sampler, sweep
from tricount.cli import main
from tricount.errors import InternalInvariantViolation

from conftest import (check_forward_backward, constrained_count,
                      conv_points, double_chain, double_chain_tri_count,
                      edge_counts, line_tables, random_point_set,
                      random_points, sample, structure_edge_count)
from flip_reference import count_pseudotriangulations
from join_reference import ptpath_join, tpath_join
from monotone_reference import count_triangulations
from scan_predicates import sign


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
            assert sweep.path_chains(P, 1, system.zigzag) == [first_path(P)]


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
    keys = sorted(ptpath.collect_paths(conv5, 2, "tri"))
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
        assert cur.keys == sweep.path_chains(P, cur.line, system.zigzag)
        row = dict(zip(cur.keys, zip(cur.counts, cur.parents)))
        for key in cur.keys:
            expect = []
            for j, k in enumerate(prev.keys):
                ok = not tc.paths_cross(k, key, P)
                if family == "pt" and ok:
                    union = set(ptpath.chain_edges(k)) | \
                        set(ptpath.chain_edges(key))
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


JOIN_REFERENCE_SETS = [random_points(n, 700 + 10 * n + s)
                       for n in range(5, 12) for s in range(3)] + \
    [double_chain(n) for n in range(8, 12)]


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_join_matches_reference(family):
    # at every line, the join gives the parent lists of the joins it
    # replaced (tests/join_reference.py): tpath_join's for T-paths, and for
    # PT-paths ptpath_join's, which tests pointedness pair by pair
    zigzag = family == "pt"
    reference = ptpath_join if zigzag else tpath_join
    for pts in JOIN_REFERENCE_SETS:
        P = tc.validate_point_set(pts)
        parents = sweep.path_chains(P, 1, zigzag)
        for i in range(2, P.n):
            children = sweep.path_chains(P, i, zigzag)
            assert list(sweep.join(P, parents, children, zigzag)) == \
                list(reference(P, parents, children)), (pts, i)
            parents = children


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
        assert keys == sweep.path_chains(P, i, system.zigzag)
        populations.append(len(keys))
        links.append(sum(map(len, parents)))
    assert len(populations) == n - 1 and links[0] == 0
    _, stats, third = tc.run_sweep(system, P)
    assert third is None
    assert stats.t_per_line == populations
    assert stats.population == populations[1:]
    assert stats.join_pairs == links[1:]
    assert len(stats.line_seconds) == n - 2


def test_sweep_lines_search_a_line_when_asked(monkeypatch, conv5):
    # no line is searched before it is asked for, and no join runs before
    # its parents are read
    calls = []
    path_chains = sweep.path_chains

    def spy(P, i, zigzag, blocked=0):
        calls.append(i)
        return path_chains(P, i, zigzag, blocked)

    def join(P, parents, children, zigzag):
        calls.append("join")
        yield from tc.TRI_SYSTEM.join(P, parents, children, zigzag)

    monkeypatch.setattr(sweep, "path_chains", spy)
    lines = sweep.sweep_lines(sweep.PathSystem(False, join), conv5)
    assert calls == []
    next(lines)
    _, parents = next(lines)
    assert calls == [1, 2]
    assert next(parents) == [0] and calls == [1, 2, "join"]
    assert [keys for keys, _ in lines] == \
        [path_chains(conv5, i, False) for i in (3, 4)]
    assert calls == [1, 2, "join", 3, 4]


def test_child_without_parent_raises(monkeypatch, tmp_path, capsys, conv6):
    # a join that loses the last child's parents, or gives one parent list
    # too few or too many, stops the sweep and the sampler, which reads the
    # same stream; from the CLI that is exit 4, not a traceback
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in conv6.points))
    for edit, message in [(lambda js: js[:-1] + [[]], "has no parent"),
                          (lambda js: js[:-1], "too few parent lists"),
                          (lambda js: js + [[0]], "too many parent lists")]:
        def join(P, parents, children, zigzag, edit=edit):
            return edit(list(tc.TRI_SYSTEM.join(P, parents, children,
                                                zigzag)))

        system = sweep.PathSystem(False, join)
        with pytest.raises(InternalInvariantViolation,
                           match=f"at l_2.*{message}"):
            tc.run_sweep(system, conv6)
        monkeypatch.setattr(sampler, "system_for", lambda family: system)
        with pytest.raises(InternalInvariantViolation,
                           match=f"at l_2.*{message}"):
            sample(conv6, "tri", seed=0, m=1)
        assert main(["sample", str(f), "--structure", "tri",
                     "--count", "1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


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
                    not across or (w < i) != (v < i))]))
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
    sets = [random_point_set(n, 1000 * n + s) for n in (6, 7, 8)
            for s in range(4)]
    # the double chain is the densest family measured
    sets += [tc.validate_point_set(double_chain(n)) for n in (6, 7, 8)]
    for P in sets:
        for i in range(1, P.n):
            population = sweep.path_chains(P, i,
                                           tc.system_for(family).zigzag)
            # strictly ascending: the sweep keeps it without sorting
            assert all(a < b for a, b in zip(population, population[1:]))
            members = set(population)
            for vs in population:
                assert validate(path(vs, i), P)
            for vs in _chain_variants(rng, P, i, population, 400):
                assert bool(validate(path(vs, i), P)) == (vs in members)


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_blocked_seed_keeps_the_chains_inside(fan5, conv6, family):
    # a chain avoids every blocked segment: seeded with the segments
    # outside S, the search finds exactly the population's chains that lie
    # in S, for each structure S and for S less any one edge
    zigzag = tc.system_for(family).zigzag
    for P in (fan5, conv6):
        population = {i: sweep.path_chains(P, i, zigzag)
                      for i in range(1, P.n)}
        for S in oracle.enumerate_structures(P, family):
            for E in [S] + [S - {e} for e in S]:
                outside = ~P.edge_masks(E)[0]
                for i, chains in population.items():
                    assert sweep.path_chains(P, i, zigzag, outside) == [
                        c for c in chains if set(ptpath.chain_edges(c)) <= E]


def test_system_for():
    assert tc.system_for("tri") is tc.TRI_SYSTEM
    assert tc.system_for("pt") is tc.PT_SYSTEM
    with pytest.raises(ValueError):
        tc.system_for("other")


@pytest.mark.parametrize("n,seed", [(5, 10), (6, 11), (7, 12)])
def test_sweep_matches_oracle_random(n, seed):
    P = random_point_set(n, seed)
    assert tc.run_sweep(tc.TRI_SYSTEM, P)[0] == \
        len(oracle.enumerate_structures(P, "tri"))
    assert tc.run_sweep(tc.PT_SYSTEM, P)[0] == \
        len(oracle.enumerate_structures(P, "pt"))


@pytest.mark.parametrize("family,n,seed,count", [
    ("tri", 13, 513, 67647),
    ("tri", 14, 514, 386767),
    ("tri", 16, 516, 5176695),
    ("pt", 9, 509, 2900),
    ("pt", 11, 511, 59836),
    ("pt", 12, 512, 977732),
    ("tri", 14, None, 1629936),  # the double chain, its closed form below
])
def test_count_invariant_under_rotation_and_reflection(family, n, seed, count):
    # above the oracle guards; each map reorders the sweep completely
    pts = double_chain(n) if seed is None else random_points(n, seed)
    maps = [lambda x, y: (x, y), lambda x, y: (-y, x),
            lambda x, y: (-x, y), lambda x, y: (y, x)]
    for f in maps:
        P = tc.validate_point_set([f(x, y) for x, y in pts])
        assert tc.run_sweep(tc.system_for(family), P)[0] == count


def _coefficient(bound):
    return st.integers(-bound, bound)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2 ** 32), grid=st.booleans(),
       linear=st.tuples(*[_coefficient(10 ** 18)] * 4).filter(
           lambda m: m[0] * m[3] != m[1] * m[2]),
       shift=st.tuples(_coefficient(10 ** 20), _coefficient(10 ** 20)))
def test_counters_agree_under_large_affine_maps(n, seed, grid, linear, shift):
    # an integer affine map keeps every orientation's sign up to one global
    # flip, so the structures, but it reorders the sweep; on a grid of
    # n // 2 + 1 columns, points share x and ties are broken by index
    pts = random_points(n, seed, columns=n // 2 + 1 if grid else None)
    (a, b, c, d), (u, v) = linear, shift
    P = tc.validate_point_set(pts)
    Q = tc.validate_point_set([(a * x + b * y + u, c * x + d * y + v)
                               for x, y in pts])
    counts = {}
    for family in ("tri", "pt"):
        counts[family] = tc.run_sweep(tc.system_for(family), P)[0]
        assert tc.run_sweep(tc.system_for(family), Q)[0] == counts[family]
        assert len(oracle.enumerate_structures(Q, family)) == counts[family]
    assert count_triangulations(Q) == counts["tri"]
    if n <= 8:
        assert count_pseudotriangulations(Q) == counts["pt"]


@st.composite
def _family_and_points(draw):
    """A family and a general-position integer set: tri n = 4-9, pt n = 4-8
    (the flip counter's range), the first n of 3n drawn candidates that
    keep general position, on a wide grid or on n // 2 + 1 columns, where
    many points share x."""
    family = draw(st.sampled_from(("tri", "pt")))
    n = draw(st.integers(4, 9 if family == "tri" else 8))
    xs = draw(st.sampled_from((st.integers(-1000, 1000),
                               st.integers(0, n // 2))))
    pts = []
    for q in draw(st.lists(st.tuples(xs, st.integers(-1000, 1000)),
                           min_size=3 * n, max_size=3 * n)):
        if len(pts) < n and q not in pts and all(
                sign(a, b, q)
                for a, b in itertools.combinations(pts, 2)):
            pts.append(q)
    assume(len(pts) == n)
    return family, pts


# no shrink phase: a failure is reported as drawn within seconds; shrinking
# its big-integer map re-runs all four counters for minutes
@settings(derandomize=True, max_examples=60, deadline=None,
          phases=(Phase.generate,))
@given(drawn=_family_and_points(),
       linear=st.tuples(*[_coefficient(10 ** 18)] * 4).filter(
           lambda m: m[0] * m[3] != m[1] * m[2]),
       shift=st.tuples(_coefficient(10 ** 20), _coefficient(10 ** 20)))
def test_four_counters_agree_on_drawn_sets(drawn, linear, shift):
    # the sweep of a drawn set and of its affine image, the oracle and the
    # family's own reference counter, which share no search code
    family, pts = drawn
    (a, b, c, d), (u, v) = linear, shift
    P = tc.validate_point_set(pts)
    Q = tc.validate_point_set([(a * x + b * y + u, c * x + d * y + v)
                               for x, y in pts])
    system = tc.system_for(family)
    count = tc.run_sweep(system, P)[0]
    assert tc.run_sweep(system, Q)[0] == count
    assert len(oracle.enumerate_structures(P, family)) == count
    reference = count_triangulations if family == "tri" else \
        count_pseudotriangulations
    assert reference(Q) == count


def test_double_chain_tri_closed_form():
    # above the oracle guard too; n=16 is the heaviest x-sweep here
    for n in range(6, 17):
        P = tc.validate_point_set(double_chain(n))
        assert tc.run_sweep(tc.TRI_SYSTEM, P)[0] == double_chain_tri_count(n)


def test_double_chain_pt_matches_oracle():
    # no closed form is known for pt
    for n in range(5, 10):
        P = tc.validate_point_set(double_chain(n))
        assert tc.run_sweep(tc.PT_SYSTEM, P)[0] == \
            len(oracle.enumerate_structures(P, "pt"))


@pytest.mark.parametrize("family,max_n,chains", [("tri", 14, (8, 10, 12)),
                                                 ("pt", 11, (8, 10))])
def test_forward_times_backward_is_the_count(family, max_n, chains):
    # at every line the population turns into the 180-degree image's, and
    # the paths' forward times backward counts add up to N: each structure
    # has exactly one path at each line
    sets = [random_points(n, 500 + n) for n in range(5, max_n + 1)]
    sets += [double_chain(n) for n in chains]
    sets += [conv_points(n) for n in (6, 9, 12)]
    for pts in sets:
        check_forward_backward(tc.validate_point_set(pts), family)


EDGE_IDENTITY_SETS = {
    "tri": [random_points(n, 500 + n) for n in (10, 11, 12)]
    + [conv_points(11), double_chain(10)],
    "pt": [random_points(n, 500 + n) for n in (8, 9)] + [double_chain(8)],
}


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_edge_counts_sum_to_count_times_edges(family):
    # every structure has |E| edges, so the counts N(e) of the structures
    # that contain e add up to N * |E| over all segments: the search and
    # the join run under a different blocked mask for each segment, and
    # the sum needs no oracle at any n
    for pts in EDGE_IDENTITY_SETS[family]:
        P = tc.validate_point_set(pts)
        count = tc.run_sweep(tc.system_for(family), P)[0]
        assert sum(edge_counts(P, family)) == \
            count * structure_edge_count(P, family)


@pytest.mark.parametrize("family", ["tri", "pt"])
@pytest.mark.parametrize("n", [7, 8])
def test_edge_counts_match_oracle(family, n):
    # each segment's count, hull edges and segments in no structure too
    P = random_point_set(n, 600 + n)
    structures = oracle.enumerate_structures(P, family)
    assert edge_counts(P, family) == [sum(e in S for S in structures)
                                      for e in P.segments]


@pytest.mark.parametrize("family", ["tri", "pt"])
@pytest.mark.parametrize("n", [7, 8])
def test_constrained_counts_of_segment_sets_match_oracle(family, n):
    # sets of 2-3 segments: tri, blocking the union of cross[e] over a
    # pairwise non-crossing R counts the triangulations that contain R
    # (conftest.edge_counts' argument, with R for e); pt, blocking a set F
    # counts the structures without F (the covering lemma), drawn off the
    # hull, as a forbidden hull edge counts 0
    P = random_point_set(n, 600 + n)
    masks = [P.edge_masks(S)[0] for S in oracle.enumerate_structures(P, family)]
    hull = P.edge_masks(P.hull_edges)[0]
    pool = [k for k in range(len(P.segments))
            if family == "tri" or not hull >> k & 1]
    rng = random.Random(n)
    tested = 0
    while tested < 60:
        R = [P.segments[k] for k in rng.sample(pool, rng.choice([2, 3]))]
        emask, crossing = P.edge_masks(R)
        if family == "tri":
            if crossing & emask:
                continue
            blocked, want = crossing, sum(m & emask == emask for m in masks)
        else:
            blocked, want = emask, sum(not m & emask for m in masks)
        assert constrained_count(P, family, blocked) == want, R
        tested += 1
