import collections
import hashlib
import random
import weakref
from bisect import bisect_right

import pytest

import tricount as tc
from tricount import oracle, ptpath, sampler, sweep
from tricount.cli import main
from tricount.errors import (
    IncompatibleTuple,
    InternalInvariantViolation,
    MemoryBudgetExceeded,
    TooLarge,
)

from conftest import (FAN5, conv_points, line_tables, random_point_set,
                      random_points)


def test_three_points_constant(tri3):
    run = tc.sample(tri3, "tri", seed=1, m=5)
    T = frozenset({(0, 1), (0, 2), (1, 2)})
    assert all(s.edges == T for s in run.structures)


def test_seed_determinism(conv5):
    a = tc.sample(conv5, "tri", seed=9, m=20)
    b = tc.sample(conv5, "tri", seed=9, m=20)
    assert [s.edges for s in a.structures] == [s.edges for s in b.structures]
    c = tc.sample(conv5, "tri", seed=10, m=20)
    assert [s.edges for s in a.structures] != [s.edges for s in c.structures]


def test_samples_are_valid_structures(fan5):
    for fam in ("tri", "pt"):
        run = tc.sample(fan5, fam, seed=3, m=30)
        valid = set(oracle.enumerate_structures(fan5, fam).structures)
        for s in run.structures:
            assert s.edges in valid


def test_reconstruct_round_trip(fan5, conv5):
    for P in (fan5, conv5, random_point_set(6, 60)):
        for fam in ("tri", "pt"):
            for S in oracle.enumerate_structures(P, fam).structures:
                if fam == "tri":
                    keys = [tc.extract_tpath(S, i, P).vertices
                            for i in range(1, P.n)]
                else:
                    keys = [tc.extract_ptpath(S, i, P).vertices
                            for i in range(1, P.n)]
                assert tc.reconstruct(keys, P, fam).edges == S


def test_reconstruct_order_independent(conv5):
    S = oracle.enumerate_triangulations(conv5).structures[0]
    keys = [tc.extract_tpath(S, i, conv5).vertices for i in range(1, conv5.n)]
    base = tc.reconstruct(keys, conv5, "tri").edges
    # reversed greedy candidate order must complete to the same set
    edges = set()
    for k in keys:
        edges.update(tc.TPath(k, 1).edges())
    for a in reversed(range(conv5.n)):
        for b in reversed(range(a + 1, conv5.n)):
            e = (a, b)
            if e not in edges and not any(
                    conv5.segments_cross(e, f) for f in edges):
                edges.add(e)
    assert frozenset(edges) == base


def test_reconstruct_rejects_crossing_tuple(conv5):
    with pytest.raises(IncompatibleTuple):
        tc.reconstruct([(1, 0, 4), (3, 0, 2, 1, 4)], conv5, "tri")


def test_reconstruct_rejects_pt_tuples(fan5):
    # (0, 3) and (1, 4) are the diagonals of FAN5's hull quadrilateral
    with pytest.raises(IncompatibleTuple, match="crossing"):
        tc.reconstruct([(1, 0, 3), (0, 1, 4)], fan5, "pt")
    # spokes from interior point 2 to 0, 3 and 4 leave no gap above pi
    with pytest.raises(IncompatibleTuple, match="not pointed"):
        tc.reconstruct([(0, 2, 4), (2, 3)], fan5, "pt")
    # one line's path is no pseudo-triangulation, and it is not completed
    with pytest.raises(InternalInvariantViolation, match="not_maximal"):
        tc.reconstruct([(fan5.hull[1], 0, fan5.hull[-1])], fan5, "pt")


def _guard_reason(P, emask):
    """The sampler's pt check of a union, as a validate_pt_mask reason."""
    blocked = P.edge_masks(P.segments[k] for k in tc.geom.bits(emask))[1]
    try:
        sampler._complete(P, "pt", emask, blocked)
    except IncompatibleTuple as exc:
        return "edges_cross" if "crossing" in str(exc) else "not_pointed"
    except InternalInvariantViolation as exc:
        return str(exc).rsplit(": ", 1)[1]
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
        unions = {x.mask for x in tc.sample(P, "pt", seed, 40).structures}
        masks = unions | {u ^ 1 << k for u in unions for k in range(s)}
        for _ in range(400):
            m = rng.getrandbits(s)
            for _ in range(rng.randrange(4)):
                m &= rng.getrandbits(s)
            masks.add(m)
        for m in masks:
            want = ptpath.validate_pt_mask(P, m).reason
            assert _guard_reason(P, m) == want, (seed, bin(m))
            reasons[want] += 1
    assert set(reasons) == {"ok", "edges_cross", "not_pointed",
                            "not_maximal"}, reasons


def test_walk_draws_as_randrange(monkeypatch, tri3):
    # the walk's getrandbits rejection draws what randrange(count) draws
    # from one shared stream: a chain of nodes, one per count, each with
    # thresholds cum over its parents; small counts get one parent per
    # value, so the drawn integer itself is seen
    counts = [1, 2, 3, 7, 8, 9, 31, 32, 33, 2**99 + 12345]

    def cum_of(c):
        return list(range(1, c + 1)) if c < 64 else [c // 3, c - c // 5, c]

    node = (1, 1, 0, 0, [], [])  # count, bit length, masks, no parents
    for depth in reversed(range(len(counts))):
        c = counts[depth]
        parents = [((depth, j),) + node for j in range(len(cum_of(c)))]
        node = (c, c.bit_length(), 0, 0, cum_of(c), parents)
    monkeypatch.setattr(sampler, "_root", lambda *args: ("root",) + node)
    drawn = [keys for keys, _ in sampler.draws(tri3, "tri", 17, 300)]
    rng = random.Random(17)
    expected = [[(d, bisect_right(cum_of(c), rng.randrange(c)))
                 for d, c in enumerate(counts)][::-1] + ["root"]
                for _ in range(300)]
    assert drawn == expected


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
    run = tc.sample(P, family, seed=5, m=200)
    assert len(run.tuples) == len(run.structures) == 200
    for keys, s in zip(run.tuples, run.structures):
        assert len(keys) == n - 1
        assert tc.reconstruct(keys, P, family).edges == s.edges
        if family == "pt":
            # a pt draw is its tuple's union, with nothing completed
            pairs = (e for key in keys for e in zip(key, key[1:]))
            assert P.edge_masks(pairs)[0] == s.mask


def test_chi_square_uniformity(conv5):
    from scipy.stats import chisquare
    cats = oracle.enumerate_triangulations(conv5).structures
    run = tc.sample(conv5, "tri", seed=11, m=2000)
    counter = collections.Counter(s.edges for s in run.structures)
    observed = [counter[S] for S in cats]
    assert chisquare(observed).pvalue > 1e-3


def test_draw_count_guard(monkeypatch, conv5):
    # both refused before the sweep, so nothing is drawn; draws refuses at
    # the call, not at the first draw
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sampler, "sweep_lines", no_sweep)
    for draw in (tc.sample, sampler.draws):
        with pytest.raises(TooLarge, match="sample guard"):
            draw(conv5, "tri", 0, sampler.M_GUARD + 1)
        with pytest.raises(ValueError, match="nonnegative"):
            draw(conv5, "tri", 0, -1)


def test_draws_is_the_sample_stream(conv6):
    # the sweep runs at the call, even for no draws
    with pytest.raises(MemoryBudgetExceeded):
        sampler.draws(conv6, "tri", 0, 0, max_table_entries=1)
    run = tc.sample(conv6, "pt", seed=4, m=30)
    stream = sampler.draws(conv6, "pt", 4, 30)
    assert list(stream) == list(zip(run.tuples, run.structures))
    # seeded draws are one stream: fewer draws are a prefix of more
    assert tc.sample(conv6, "pt", seed=4, m=12).structures == \
        run.structures[:12]


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


def test_budget_refusal_stops_the_sweep(monkeypatch):
    # the budget is checked as each line arrives: the line that crosses it
    # is the last one searched
    P = random_point_set(8, 508)
    sizes = [len(tc.TRI_SYSTEM.chains(P, i)) for i in range(1, P.n)]
    searched = []

    def chains(P, i):
        searched.append(i)
        return tc.TRI_SYSTEM.chains(P, i)

    system = sweep.PathSystem(chains, tc.TRI_SYSTEM.join)
    monkeypatch.setattr(sampler, "system_for", lambda family: system)
    for last in range(1, P.n - 1):
        budget = sum(sizes[:last]) - 1
        searched.clear()
        with pytest.raises(MemoryBudgetExceeded,
                           match=f"path tables exceed {budget} entries"):
            sampler.draws(P, "tri", 0, 1, max_table_entries=budget)
        assert searched == list(range(1, last + 1))
    searched.clear()
    assert len(tc.sample(P, "tri", seed=0, m=2,
                         max_table_entries=sum(sizes)).structures) == 2
    assert searched == list(range(1, P.n))


def test_memory_budget(conv5):
    with pytest.raises(MemoryBudgetExceeded):
        tc.sample(conv5, "tri", seed=0, m=1, max_table_entries=2)
