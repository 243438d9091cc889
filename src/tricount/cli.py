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
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

from . import sweep
from .errors import InputError, TricountError
from .geom import PointSet, validate_point_set

WRITE_BATCH = 256  # sampled structures per stdout write


def parse_points(text: str) -> list:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json
        try:
            pts = json.loads(text)["points"]
        except (json.JSONDecodeError, KeyError) as exc:
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
        try:
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


def _vertex(v) -> int:
    """A vertex index from a JSON file: an int and not a bool, the rule for
    point coordinates too; floats and strings are refused, not coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"non-integer vertex index {v!r}")
    return v


def _read_json(path: str, what: str, parse):
    """parse of a JSON input file; any failure is an InputError."""
    import json
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file: {exc}") from None


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
    print(count)
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
    return 0


def cmd_enumerate(args) -> int:
    if args.cap is not None and args.cap < 0:
        raise InputError(f"--cap must be nonnegative, got {args.cap}")
    from . import oracle
    P = load_point_set(args.input)
    result = oracle.enumerate_structures(P, args.structure, cap=args.cap)
    if args.format == "json":
        import json
        print(json.dumps([sorted(map(list, S)) for S in result.structures]))
    else:
        for S in result.structures:
            print(" ".join(f"{a}-{b}" for a, b in sorted(S)))
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be nonnegative, got {args.count}")
    if args.max_table_entries is not None and args.max_table_entries < 0:
        raise InputError("--max-table-entries must be nonnegative, "
                         f"got {args.max_table_entries}")
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
        items = ("[" + ", ".join([t for t, d in zip(text, bin(s.mask)[:1:-1])
                                  if d == "1"]) + "]"
                 for _, s in draws)
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
            for k, (_, s) in enumerate(draws):
                doc = svg.render_svg(P.points, structure_edges=s.edges)
                (outdir / f"sample-{k:05d}.svg").write_text(doc)
        except OSError as exc:
            raise InputError(f"cannot write {outdir}: {exc}") from None
        print(str(outdir))
    return 0


def cmd_sequence(args) -> int:
    if args.k < 0:
        raise InputError(f"--k must be nonnegative, got {args.k}")
    from . import analysis
    for row in analysis.bound_sequence(args.k):
        print(f"{row.k}\t{row.f}\t{row.g}")
    return 0


def cmd_render(args) -> int:
    P = load_point_set(args.input)
    edges = []
    if args.structure_file:
        edges = _read_json(args.structure_file, "structure", lambda raw: [
            (_vertex(a), _vertex(b)) for a, b in raw])
        for a, b in edges:
            if not (0 <= a < P.n and 0 <= b < P.n and a != b):
                raise InputError(f"edge ({a}, {b}) out of range for n={P.n}")
        edges = {tuple(sorted(e)) for e in edges}
    path_vertices: list[int] = []
    if args.path_file:
        path_vertices = _read_json(args.path_file, "path",
                                   lambda raw: [_vertex(v) for v in raw])
        for v in path_vertices:
            if not 0 <= v < P.n:
                raise InputError(f"path vertex {v} out of range for n={P.n}")
    if args.line is not None and not 1 <= args.line <= P.n - 1:
        raise InputError(f"line index {args.line} out of range 1..{P.n - 1}")
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
        return args.func(args)
    except TricountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
