"""Standing mutants: faults that the test suite is known to catch.

Each entry breaks one file in one known way, and names the tests that must
fail on the broken copy.  The runner copies src/, tests/ and pyproject.toml
into a temporary directory, runs every selection there once unmutated (each
must pass, or a failure would prove nothing), then applies each mutant in
turn and requires pytest to report failed tests (exit status 1; a
collection error or an empty selection is a broken entry, not a kill).

    python tests/mutants.py            # every entry, from the repo root
    python tests/mutants.py NAME ...   # only the named entries

It exits 0 when every mutant is killed.  The list only grows: an entry
whose code is gone is removed with its reason written down in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in file
    new: str
    selection: tuple[str, ...]  # pytest node ids or paths


CHORDS = ("tests/test_sampler.py::test_hull_chord_frequencies_of_draws",)
MIDDLE_LINE = (
    "tests/test_sampler.py::test_middle_line_path_frequencies_of_draws",)
CORNER_KILLERS = ("tests/test_sweep.py::test_join_matches_reference[pt]",
                  "tests/test_sweep.py::test_sweep_matches_oracle_random")

MUTANTS = [
    Mutant("uniform parent pick", "src/tricount/sampler.py",
           "parents[bisect_right(cum, r)]",
           "parents[r % len(parents)]", CHORDS + MIDDLE_LINE),
    Mutant("clamped index, no rejection redraw", "src/tricount/sampler.py",
           """                while r >= count:
                    r = getrandbits(k)
                count, k, e, b, cum, parents = parents[bisect_right(cum, r)]""",
           """                count, k, e, b, cum, parents = \\
                    parents[min(bisect_right(cum, r), len(parents) - 1)]""",
           CHORDS + MIDDLE_LINE),
    Mutant("parent weights in reversed order", "src/tricount/sampler.py",
           "accumulate(p[0] for p in nodes)",
           "accumulate(p[0] for p in nodes[::-1])",
           MIDDLE_LINE),
    Mutant("parent thresholds off by one", "src/tricount/sampler.py",
           "parents[bisect_right(cum, r)]",
           "parents[bisect_right(cum, r - 1)]", CHORDS),
    Mutant("monotone removals only from j >= m + 1",
           "tests/monotone_reference.py",
           "for j in range(max(1, m), len(path) - 1):",
           "for j in range(m + 1, len(path) - 1):",
           ("tests/test_monotone_reference.py",)),
    Mutant("flip partner crosses k and nothing else of S",
           "tests/flip_reference.py",
           "partners = [f for f in bits(free) if addable(adj, f)]",
           "partners = [f for f in range(len(segs))\n"
           "                            if cross[f] & S == 1 << k"
           " and addable(adj, f)]",
           ("tests/test_flip_reference.py",)),
    Mutant("flip of hull edges", "tests/flip_reference.py",
           """                if hull >> k & 1:
                    continue
""", "", ("tests/test_flip_reference.py",)),
    Mutant("swapped hull_crossing_edges pair", "src/tricount/geom.py",
           "return crossing[0], crossing[1]",
           "return crossing[1], crossing[0]",
           ("tests/test_geom.py::test_hull_crossing_edges_lower_first",)),
    Mutant("one-vertex close without its emptiness test in tri",
           "src/tricount/sweep.py",
           "if tri & ly[w] & left[w][x]:",
           "if zigzag and tri & ly[w] & left[w][x]:",
           ("tests/test_sweep.py::test_validator_agrees_with_population",)),
    Mutant("validate_tpath without edge_not_crossing_line",
           "src/tricount/ptpath.py",
           """        if not geom.edge_crosses_line((a, b), i):
            return Check(False, "degenerate_edge" if a == b
                         else "edge_not_crossing_line")""",
           """        if a == b:
            return Check(False, "degenerate_edge")""",
           ("tests/test_tpath.py::test_validate_tpath",)),
    Mutant("the draw re-raise removed",
           "src/tricount/sampler.py",
           """            try:
                emask = _complete(P, system.zigzag, emask, blocked)
            except InputError as exc:
                raise InternalInvariantViolation(f"a drawn {exc}") from exc""",
           "            emask = _complete(P, system.zigzag, emask, blocked)",
           ("tests/test_sampler.py::test_failed_draw_check_is_internal",)),
    Mutant("extraction from a non-structure not refused",
           "src/tricount/ptpath.py",
           """    if not ok:
        raise InputError(
            f"edge set is not a""",
           """    if False:
        raise InputError(
            f"edge set is not a""",
           ("tests/test_ptpath.py::test_extraction_blames_a_bad_edge_set",)),
    Mutant("edge_masks without its pair check", "src/tricount/geom.py",
           "if not (type(a) is type(b) is int and a != b\n"
           "                    and 0 <= a < n and 0 <= b < n)",
           "if False",
           ("tests/test_geom.py::test_edge_masks_is_the_door_to_segments",
            "tests/test_ptpath.py::test_extraction_blames_a_bad_edge_set",
            "tests/test_ptpath.py::test_a_non_segment_is_refused",
            "tests/test_cli.py::test_render_non_segment_exit2")),
    Mutant("hull_crossing_edges without its line check",
           "src/tricount/geom.py",
           "if not (type(i) is int and 0 < i < P.n):",
           "if False:",
           ("tests/test_geom.py::test_hull_crossing_edges_is_the_door_to_lines",
            "tests/test_ptpath.py::test_a_bad_line_is_refused",
            "tests/test_cli.py::test_render_bad_line_exit2")),
    Mutant("check_vertices without its vertex check", "src/tricount/geom.py",
           "if not (type(v) is int and 0 <= v < self.n):",
           "if False:",
           ("tests/test_geom.py::test_check_vertices_is_the_door_to_vertices",
            "tests/test_ptpath.py::test_is_pointed_refuses_a_non_vertex",
            "tests/test_ptpath.py::test_a_non_vertex_is_refused",
            "tests/test_cli.py::test_render_bad_reference")),
    Mutant("validate_tpath without its vertex door", "src/tricount/ptpath.py",
           "before it is read\n    P.check_vertices(vs)", "before it is read",
           ("tests/test_ptpath.py::test_a_non_vertex_is_refused",)),
    Mutant("the single edge compared as a raw pair in _flip_diagonal",
           "src/tricount/ptpath.py",
           "if not emask & k:",
           "if e not in T:",
           ("tests/test_tpath.py::test_a_reversed_edge_is_its_segment",)),
    Mutant("check_nonnegative without its sign test", "src/tricount/errors.py",
           " or value < 0:", ":",
           ("tests/test_package.py::test_count_parameters_refuse_a_non_int",
            "tests/test_cli.py::test_out_of_range_argument_exit2")),
    Mutant("draws without its seed door", "src/tricount/sampler.py",
           '    check_nonnegative("seed", seed)\n', "",
           ("tests/test_package.py::test_count_parameters_refuse_a_non_int",
            "tests/test_cli.py::test_out_of_range_argument_exit2")),
    Mutant("edge_masks without its item guard", "src/tricount/geom.py",
           """            try:
                a, b = item
            except (TypeError, ValueError):
                raise InputError(
                    f"not a segment: {shown(item)}") from None""",
           "            a, b = item",
           ("tests/test_geom.py::test_edge_masks_is_the_door_to_segments",
            "tests/test_cli.py::test_render_non_segment_exit2[triple]")),
    Mutant("parse_points without its two-token check", "src/tricount/cli.py",
           """        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'x y', got {body!r}")
""", "", ("tests/test_cli.py::test_count_bad_file_exit2",)),
    Mutant("pt_good_edge without its membership check",
           "src/tricount/ptpath.py",
           "if not smask & k:", "if False:",
           ("tests/test_ptpath.py::test_pt_good_edge",)),
    Mutant("a caller's non-maximal pt tuple raised as internal",
           "src/tricount/sampler.py",
           """            raise InputError(
                "tuple union is not a pseudo-triangulation: not_maximal")""",
           """            raise InternalInvariantViolation(
                "tuple union is not a pseudo-triangulation: not_maximal")""",
           ("tests/test_sampler.py::test_reconstruct_rejects_pt_tuples",
            "tests/test_package.py::test_library_refusals_are_input_errors")),
    Mutant("the count printed before its stats file", "src/tricount/cli.py",
           """    elapsed_ms = (time.perf_counter() - t0) * 1000
    if args.stats:""",
           """    elapsed_ms = (time.perf_counter() - t0) * 1000
    print(count)
    if args.stats:""",
           ("tests/test_cli.py::test_unwritable_output_exit2",)),
    Mutant("svg numbers rounded toward minus infinity", "src/tricount/svg.py",
           "(n * 100 + 3) // 6", "n * 100 // 6",
           ("tests/test_cli.py::test_render_bytes_are_pinned",)),
    Mutant("a guard refusal with exit code 2", "src/tricount/oracle.py",
           'raise ResourceRefusal(f"n={P.n} exceeds',
           'raise InputError(f"n={P.n} exceeds',
           ("tests/test_oracle.py::test_guards",
            "tests/test_package.py::test_resource_refusals_exit_3")),
    Mutant("svg numbers printed by str() alone", "src/tricount/svg.py",
           'f"{_digits(whole)}.{frac:04d}"', 'f"{whole}.{frac:04d}"',
           ("tests/test_cli.py::test_render_beyond_float_range",)),
    Mutant("reconstruct without its line-by-line check",
           "src/tricount/sampler.py",
           """    if [path_chains(P, i, zigzag, ~emask) for i in range(1, P.n)] != \\
            [[key] for key in keys]:
        raise InputError("tuple is not its structure's paths")
""", "", ("tests/test_package.py::test_library_refusals_are_input_errors",)),
    Mutant("_read_json without its non-list check", "src/tricount/cli.py",
           """    if not isinstance(raw, list):
        raise InputError(f"bad {what} file: not a JSON list")
""", "", ("tests/test_exit_codes.py::test_every_input_exits_0_2_or_3",
             "tests/test_cli.py::test_malformed_json_exit2")),
    Mutant("a clockwise triple's left-of bit set in the reverse entry",
           "src/tricount/geom.py",
           "left[c][b] |= 1 << a", "left[b][c] |= 1 << a",
           ("tests/test_geom.py::test_orientation_basic",
            "tests/test_geom.py::test_orientation_antisymmetric")),
    # the chord and marginal tests, whose draws and marginals come from the
    # same faulty tables, pass on it
    Mutant("pt join refuses a shared vertex of six or more union edges",
           "src/tricount/sweep.py",
           "if not P.pointed(v, p | q)",
           "if not (P.pointed(v, p | q) and (p | q).bit_count() < 6)",
           ("tests/test_sweep.py::test_edge_counts_sum_to_count_times_edges",)),
    Mutant("the pt draw check reads the other end as 1 << b",
           "src/tricount/sampler.py",
           "nbrs |= 1 << (a ^ b ^ v)", "nbrs |= 1 << b",
           ("tests/test_sampler.py::test_pt_guard_matches_validate_pt_mask",)),
    Mutant("the pt draw check skips pointedness at degree 3",
           "src/tricount/sampler.py",
           "if at_v.bit_count() > 2:", "if at_v.bit_count() > 3:",
           ("tests/test_sampler.py::test_pt_guard_matches_validate_pt_mask",)),
    # a join that only drops pairs and leaves every child a parent: each
    # tuple still counted is a structure's, so the edge identity balances
    # again; the oracle sees the smaller count
    Mutant("join drops parents three vertices longer than the child",
           "src/tricount/sweep.py",
           "yield list(bits(full & ~m))",
           "yield [j for j in bits(full & ~m)\n"
           "               if len(parents[j]) != len(c) + 3]",
           ("tests/test_sweep.py::test_sweep_matches_oracle_random",)),
    # the same fault in the pt join alone: above the oracle range, the
    # flip count of a near-convex set sees it (as do the pt oracle tests)
    Mutant("pt join drops parents three vertices longer than the child",
           "src/tricount/sweep.py",
           "yield list(bits(full & ~m))",
           "yield [j for j in bits(full & ~m)\n"
           "               if not zigzag or len(parents[j]) != len(c) + 3]",
           ("tests/test_flip_reference.py::test_matches_sweep_near_convex",)),
    # the corner rows: the first keeps parents whose union is not pointed,
    # the second gives every child corner at v the first one's OR
    Mutant("a corner's OR keeps only the first failing row at v",
           "src/tricount/sweep.py",
           "ruled_out[v, q] = reduce(or_, (", "ruled_out[v, q] = next((",
           CORNER_KILLERS),
    Mutant("the corner cache keyed by v alone", "src/tricount/sweep.py",
           """            if (v, q) not in ruled_out:
                ruled_out[v, q] = reduce(or_, (
                    int.from_bytes(row, "little") for p, row in at[v].items()
                    if not P.pointed(v, p | q)), 0)
            m |= ruled_out[v, q]""",
           """            if (v,) not in ruled_out:
                ruled_out[v,] = reduce(or_, (
                    int.from_bytes(row, "little") for p, row in at[v].items()
                    if not P.pointed(v, p | q)), 0)
            m |= ruled_out[v,]""",
           CORNER_KILLERS),
    Mutant("_linked reads the join with plain zip", "src/tricount/sweep.py",
           "for c, js in zip_longest(children, parents):",
           "for c, js in zip(children, parents):",
           ("tests/test_sweep.py::test_child_without_parent_raises",)),
    Mutant("_flip_diagonal without the structure check",
           "src/tricount/ptpath.py",
           "_structure_mask(T, P, False)", "P.edge_masks(T)[0]",
           ("tests/test_package.py::test_library_refusals_are_input_errors",
            "tests/test_exit_codes.py"
            "::test_structure_lemmas_accept_or_refuse_as_input_errors")),
    Mutant("pt_good_edge without the structure check",
           "src/tricount/ptpath.py",
           "_structure_mask(S, P, True)", "P.edge_masks(S)[0]",
           ("tests/test_package.py::test_library_refusals_are_input_errors",
            "tests/test_exit_codes.py"
            "::test_structure_lemmas_accept_or_refuse_as_input_errors")),
]


def _pytest(work: Path, selection) -> int:
    # no bytecode is written, so a restored file is never read from a
    # cache compiled from its mutant
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *selection], cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1 or m.old == m.new:
            print(f"broken entry {m.name!r}: its text occurs {count} times "
                  f"in {m.file}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, work / d, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        shutil.copy(ROOT / "pyproject.toml", work)
        selection = sorted({s for m in mutants for s in m.selection})
        if _pytest(work, selection) != 0:
            print("the selections fail on the unmutated copy", file=sys.stderr)
            return 2
        survivors = 0
        for m in mutants:
            path = work / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            status = _pytest(work, m.selection)
            path.write_text(original)
            verdict = {1: "killed"}.get(status, f"SURVIVED (pytest {status})")
            survivors += status != 1
            print(f"{verdict:<20} {time.perf_counter() - t0:6.1f} s  {m.name}",
                  flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
