"""Command-line interface.

Subcommands: count, enumerate, sample, sequence, render.  Input files are
either lines of "x y" integer pairs ('#' starts a comment) or JSON of the
form {"points": [[x, y], ...]}.  All vertex indices in inputs and outputs
are 0-based positions in the lexicographically sorted point list.

Exit codes: 0 success, 2 input error, 3 resource refusal, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

from . import sweep
from .errors import InputError, TricountError
from .geom import PointSet, bits, hull_crossing_edges, validate_point_set

# sampled structures per stdout write.  Not redundant with stdout's buffer:
# under PYTHONUNBUFFERED=1 every write is a syscall.  On a 2-core Xeon host,
# writing 1000 draws into a pipe one at a time took 2.4-2.6 ms, against
# 0.3 ms in batches of 256 (0.6 ms one at a time when buffered)
WRITE_BATCH = 256

# a coordinate in a text point file
INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_points(text: str) -> list:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json
        try:
            pts = json.loads(text)["points"]
        except (ValueError, KeyError, RecursionError) as exc:
            raise InputError(f"bad JSON point file: {exc}") from None
        if not isinstance(pts, list):
            raise InputError("bad JSON point file: 'points' is not a list")
        return pts  # coordinates are checked by validate_point_set
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'x y', got {body!r}")
        # int() alone would also take '1_0' and non-ASCII digits
        try:
            if not all(map(INTEGER.fullmatch, parts)):
                raise ValueError
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(
                f"line {lineno}: non-integer coordinate in {body!r}") from None
    return out


def load_point_set(path: str) -> PointSet:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return validate_point_set(parse_points(text))


def _read_json(path: str, what: str) -> list:
    """A JSON input file's list; any failure to read one is an InputError."""
    import json
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"bad {what} file: {exc}") from None
    if not isinstance(raw, list):
        raise InputError(f"bad {what} file: not a JSON list")
    return raw


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_count(args) -> int:
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    P = load_point_set(args.input)
    system = sweep.system_for(args.structure)
    t0 = time.perf_counter()
    count, stats, _ = sweep.run_sweep(system, P)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    if args.stats:
        import json
        payload = {
            "n": P.n,
            "family": args.structure,
            "count": str(count),
            # per line l_1 .. l_{n-1}
            "t_per_line": stats.t_per_line,
            "t_max": stats.t_max,
            "elapsed_ms": elapsed_ms,
            # per line l_2 .. l_{n-1}
            "population": stats.population,
            "join_pairs": stats.join_pairs,
            "line_seconds": stats.line_seconds,
        }
        write_text(args.stats, json.dumps(payload, indent=2) + "\n")
    # printed only once the stats file is written, so a refusal to write it
    # (exit 2) leaves stdout empty
    print(count)
    return 0


def cmd_enumerate(args) -> int:
    from . import oracle
    P = load_point_set(args.input)
    structures = oracle.enumerate_structures(P, args.structure, cap=args.cap)
    if args.format == "json":
        import json
        print(json.dumps([sorted(map(list, S)) for S in structures]))
    else:
        for S in structures:
            print(" ".join(f"{a}-{b}" for a, b in sorted(S)))
    return 0


def cmd_sample(args) -> int:
    if args.format_dir is not None and args.format != "svg-dir":
        raise InputError("--format-dir needs --format svg-dir")
    from . import sampler
    P = load_point_set(args.input)
    # refusals come here, before any output; a failure inside the stream
    # (exit 4, never expected) leaves what was written, so a JSON array may
    # then be cut short
    draws = sampler.draws(P, args.structure, args.seed, args.count,
                          max_table_entries=args.max_table_entries)
    if args.format == "json":
        # the bytes of json.dumps on the sorted edge lists (bits are in
        # lexicographic order), written WRITE_BATCH draws at a time; a
        # draw's texts are picked by its mask's binary digits, lowest first
        text = [f"[{a}, {b}]" for a, b in P.segments]
        items = ("[" + ", ".join([t for t, d in zip(text, bin(mask)[:1:-1])
                                  if d == "1"]) + "]"
                 for mask in draws)
        sep = "["
        while batch := list(islice(items, WRITE_BATCH)):
            sys.stdout.write(sep + ", ".join(batch))
            sep = ", "
        sys.stdout.write("[]\n" if sep == "[" else "]\n")
    else:
        from . import svg
        outdir = Path(args.format_dir or "samples")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for k, mask in enumerate(draws):
                edges = [P.segments[j] for j in bits(mask)]
                doc = svg.render_svg(P.points, structure_edges=edges)
                (outdir / f"sample-{k:05d}.svg").write_text(doc)
        except OSError as exc:
            raise InputError(f"cannot write {outdir}: {exc}") from None
        print(str(outdir))
    return 0


def cmd_sequence(args) -> int:
    from . import analysis
    for row in analysis.bound_sequence(args.k):
        print(f"{row.k}\t{row.f}\t{row.g}")
    return 0


def cmd_render(args) -> int:
    P = load_point_set(args.input)
    pairs = (_read_json(args.structure_file, "structure")
             if args.structure_file else [])
    edges = [P.segments[k] for k in bits(P.edge_masks(pairs)[0])]
    path_vertices = (_read_json(args.path_file, "path")
                     if args.path_file else [])
    P.check_vertices(path_vertices)
    if args.line is not None:
        hull_crossing_edges(P, args.line)  # refuses a line P does not have
    from . import svg
    doc = svg.render_svg(P.points, structure_edges=edges,
                         path_vertices=path_vertices, line_index=args.line)
    write_text(args.out, doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricount",
        description="Exact counting of triangulations and pointed "
                    "pseudo-triangulations of planar point sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_structure(p):
        p.add_argument("--structure", choices=("tri", "pt"), default="tri")

    p = sub.add_parser("count", help="count structures by sweep DP")
    p.add_argument("input")
    add_structure(p)
    p.add_argument("--stats", help="write stats JSON to this path")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="brute-force enumeration (small n)")
    p.add_argument("input")
    add_structure(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=("json", "edges"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="uniform random structures")
    p.add_argument("input")
    add_structure(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "svg-dir"), default="json")
    p.add_argument("--format-dir", dest="format_dir", default=None,
                   help="output directory for --format svg-dir")
    p.add_argument("--max-table-entries", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sequence", help="T-path-bound recurrence values")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("render", help="render an SVG figure")
    p.add_argument("input")
    p.add_argument("--structure-file", default=None)
    p.add_argument("--path-file", default=None)
    p.add_argument("--line", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except TricountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OSError as exc:  # the commands map every other file's to InputError
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # what stdout still buffers would fail again at the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
