"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with -s to see the per-criterion lines.  Structural criteria run over a
curated instance list frozen below to keep total runtime bounded.
"""

import collections
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import tricount as tc
import tricount.geom as geom
from tricount import oracle, ptpath, sweep
from conftest import (FAN5, catalan, conv_points, edge_set, line_tables,
                      random_point_set, sample)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    else:
        print(f"ACCEPTANCE {num} ({name}): PASS")


def cli_count(tmp_path, pts, family, extra=()):
    f = tmp_path / "input.txt"
    f.write_text("\n".join(f"{x} {y}" for x, y in pts) + "\n")
    cmd = [sys.executable, "-m", "tricount.cli", "count", str(f),
           "--structure", family, *extra]
    r = subprocess.run(cmd, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return int(r.stdout)


def count_inprocess(pts, family):
    P = tc.validate_point_set(pts)
    return tc.run_sweep(tc.system_for(family), P)[0], P


SEEDS = range(50)


def instances_structural(max_n):
    out = [tc.validate_point_set(FAN5)]
    out += [tc.validate_point_set(conv_points(n)) for n in (5, 6)]
    out += [random_point_set(n, 7000 + n * 10 + s)
            for n in (5, 6, 7, 8) if n <= max_n for s in range(2)]
    return out


def test_criterion_1_oracle_equivalence_tri(tmp_path):
    with criterion(1, "oracle equivalence, triangulations"):
        for n in range(4, 10):
            for s in SEEDS:
                pts = random_point_set(n, 1000 * n + s).points
                got, P = count_inprocess(pts, "tri")
                assert got == len(oracle.enumerate_structures(P, "tri"))
        for n in range(3, 11):
            pts = conv_points(n)
            got, P = count_inprocess(pts, "tri")
            assert got == len(oracle.enumerate_structures(P, "tri"))
        # the CLI path itself, spot-checked end to end
        assert cli_count(tmp_path, FAN5, "tri") == 3
        assert cli_count(tmp_path, conv_points(6), "tri") == 14


def test_criterion_2_oracle_equivalence_pt(tmp_path):
    with criterion(2, "oracle equivalence, pseudo-triangulations"):
        for n in range(4, 9):
            for s in SEEDS:
                pts = random_point_set(n, 2000 * n + s).points
                got, P = count_inprocess(pts, "pt")
                assert got == \
                    len(oracle.enumerate_structures(P, "pt"))
        for n in range(3, 9):
            got, P = count_inprocess(conv_points(n), "pt")
            assert got == \
                len(oracle.enumerate_structures(P, "pt"))
        assert cli_count(tmp_path, FAN5, "pt") == 8


def test_criterion_3_convex_catalan():
    with criterion(3, "convex-position closed form"):
        for n in range(3, 11):
            expect = catalan(n - 2)
            for fam in ("tri", "pt"):
                got, _ = count_inprocess(conv_points(n), fam)
                assert got == expect


def test_criterion_4_recurrence():
    with criterion(4, "recurrence golden values"):
        rows = tc.bound_sequence(200)
        assert [r.f for r in rows[:7]] == [0, 1, 3, 13, 67, 381, 2307]
        assert abs(rows[200].f / rows[199].f - 8) / 8 < 0.05


def test_criterion_5_path_population_equivalence():
    with criterion(5, "path-population equivalence"):
        for P in instances_structural(max_n=8):
            for fam in ("tri", "pt"):
                zigzag = tc.system_for(fam)
                for tab in line_tables(sweep.sweep_lines(zigzag, P)):
                    assert set(tab.keys) == \
                        ptpath.collect_paths(P, tab.line, fam)


def test_criterion_6_structural_lemmas():
    with criterion(6, "structural lemma suite"):
        for P in instances_structural(max_n=8):
            tris = oracle.enumerate_structures(P, "tri")
            sigs = set()
            for T in tris:
                covered = set()
                paths = []
                for i in range(1, P.n):
                    # uniqueness: exactly one valid chain per (T, i)
                    chains = sweep.path_chains(P, i, False,
                                               ~P.edge_masks(T)[0])
                    assert len(chains) == 1
                    path = tc.TPath(chains[0], i)
                    paths.append(path.vertices)
                    pe = set(path.edges())
                    covered |= pe
                    for e in T:
                        if geom.edge_crosses_line(e, i) and \
                                tc.is_good_edge(T, e, i, P):
                            assert e in pe
                for e in T:
                    if tc.is_flippable(T, e, P):
                        assert e in covered
                sigs.add(tuple(paths))
            assert len(sigs) == len(tris)  # tuple injectivity

            if P.n <= 7:  # trichotomy: equal or properly crossing
                for i in range(1, P.n):
                    keys = [tc.extract_tpath(T, i, P).vertices for T in tris]
                    for a in range(len(keys)):
                        for b in range(a + 1, len(keys)):
                            assert keys[a] == keys[b] or \
                                tc.paths_cross(keys[a], keys[b], P)

            pts_structs = oracle.enumerate_structures(P, "pt")
            sigs = set()
            for S in pts_structs:
                covered = set()
                paths = []
                for i in range(1, P.n):
                    path = tc.extract_ptpath(S, i, P)
                    paths.append(path.vertices)
                    covered |= set(path.edges())
                assert covered == set(S)  # every pt edge on some PT-path
                sigs.add(tuple(paths))
            assert len(sigs) == len(pts_structs)


def test_criterion_7_successor_soundness():
    with criterion(7, "successor relation soundness"):
        insts = [tc.validate_point_set(FAN5),
                 tc.validate_point_set(conv_points(5)),
                 random_point_set(6, 71), random_point_set(7, 72)]
        for P in insts:
            for fam in ("tri", "pt"):
                pops = {i: ptpath.collect_paths(P, i, fam)
                        for i in range(1, P.n)}
                for i in range(1, P.n - 1):
                    for k in pops[i]:
                        if fam == "tri":
                            succ = tc.tpath_successors(tc.TPath(k, i), P)
                        else:
                            succ = tc.ptpath_successors(tc.PTPath(k, i), P)
                        assert succ <= pops[i + 1]
                        for k2 in pops[i + 1]:
                            compat = not tc.paths_cross(k, k2, P)
                            if fam == "pt" and compat:
                                union = set(ptpath.chain_edges(k)) | \
                                    set(ptpath.chain_edges(k2))
                                compat = ptpath._all_pointed(union, P)
                            assert (k2 in succ) == compat


def test_criterion_8_sampler_uniformity():
    from scipy.stats import chisquare
    with criterion(8, "sampler uniformity"):
        jobs = [(conv_points(5), "tri", 10000),
                (conv_points(6), "tri", 20000),
                (FAN5, "tri", 3000),
                (FAN5, "pt", 3000)]
        for pts, fam, m in jobs:
            P = tc.validate_point_set(pts)
            cats = oracle.enumerate_structures(P, fam)
            counter = collections.Counter(
                edge_set(P, s) for s in sample(P, fam, seed=20260824, m=m))
            observed = [counter[S] for S in cats]
            assert sum(observed) == m  # every sample is a known category
            assert chisquare(observed).pvalue > 1e-3

        # exact decision-tree uniformity at n = 3 and 4
        tiny = [tc.validate_point_set([(0, 0), (3, 1), (1, 4)]),
                tc.validate_point_set([(0, 0), (2, 5), (3, 1), (5, 4)]),
                tc.validate_point_set([(0, 0), (5, 1), (4, 3), (2, 1)])]
        for P in tiny:
            for fam in ("tri", "pt"):
                zigzag = tc.system_for(fam)
                total = tc.run_sweep(zigzag, P)[0]
                tables = list(line_tables(sweep.sweep_lines(zigzag, P)))

                def walk(idx, k, prob, out):
                    if idx == 0:
                        out.append(prob)
                        return
                    tab, below = tables[idx], tables[idx - 1]
                    for j in tab.parents[k]:
                        walk(idx - 1, j, prob * Fraction(below.counts[j],
                                                         tab.counts[k]), out)

                assert len(tables[-1].keys) == 1
                leaves = []
                walk(len(tables) - 1, 0, Fraction(1), leaves)
                assert leaves == [Fraction(1, total)] * total


def test_criterion_9_count_inequality():
    with criterion(9, "pt vs tri count inequality"):
        insts = [tc.validate_point_set(FAN5)] + \
            [tc.validate_point_set(conv_points(n)) for n in range(4, 9)] + \
            [random_point_set(n, 9000 + n) for n in (5, 6, 7, 8)]
        for P in insts:
            tri_count, _, _ = tc.run_sweep(False, P)
            pt_count, _, _ = tc.run_sweep(True, P)
            assert pt_count <= 3 ** (P.n - len(P.hull)) * tri_count


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte determinism"):
        f = tmp_path / "fan5.txt"
        f.write_text("\n".join(f"{x} {y}" for x, y in FAN5) + "\n")

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "tricount.cli", *args],
                capture_output=True)

        invocations = [
            ("count", str(f), "--structure", "tri"),
            ("count", str(f), "--structure", "pt"),
            ("enumerate", str(f), "--structure", "tri"),
            ("sample", str(f), "--count", "5", "--seed", "3"),
            ("sequence", "--k", "12"),
        ]
        for args in invocations:
            r1, r2 = run(*args), run(*args)
            assert r1.returncode == r2.returncode == 0
            assert r1.stdout == r2.stdout

        t1 = run("count", str(f), "--threads", "1")
        t4 = run("count", str(f), "--threads", "4")
        assert t1.returncode == t4.returncode == 0
        assert t1.stdout == t4.stdout

        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (out1, out2):
            r = run("render", str(f), "--line", "2", "--out", str(out))
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
