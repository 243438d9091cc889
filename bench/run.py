"""tricount benchmark: wall time of `tricount count` and `tricount sample`.

    python3 bench/run.py --workload tri-count --seed 0 --seconds 25 --trace 0

Runs the CLI from this checkout's src/ as a child process, one at a time (a
closed loop with one client), on the workload's instance matrix (see
instances.py), checks every output, and prints every metric by name with
its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0: passes over the matrix are repeated while another pass fits in
--seconds (at least one); metrics are the end-to-end ones.
--trace 1: one untraced pass, then one pass through tracer.py; metrics are
the per-layer ones.  End-to-end numbers come only from untraced runs.

--workload all runs the three workloads one after another.  --out FILE also
writes the full record (environment, per-instance counts and times,
metrics) as JSON.  See METRICS.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import instances
from instances import Spec
from spans import Spans, summarize, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RSS_FILE = WORK / "peak_rss_kb"
RUN_LIMIT_S = 170  # children still running after this are killed
SETUP_PROBES = 8  # set-up probes per pass
SETUP_POINTS = [(0, 0), (3, 1), (1, 4)]

# Every per-layer metric: name -> unit.  Order is the output order.
GEOM = ("segments_cross", "cross_y", "wedge_empty", "triangle_empty",
        "point_in_polygon_strict")
PER_LAYER = {
    "cli.load_point_set.s": "s",
    **{f"geom.{g}.{k}": u for g in GEOM
       for k, u in (("calls", "count"), ("s", "s"))},
    "geom.segments_cross.distinct_ratio": "ratio",
    **{f"{m}.{m}_successors.{k}": u for m in ("tpath", "ptpath")
       for k, u in (("calls", "count"), ("self_s", "s"),
                    ("emitted", "count"))},
    "ptpath.is_pointed.calls": "count",
    "ptpath.is_pointed.s": "s",
    "sweep.run_sweep.s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.pop_total": "count",
    "sweep.t_max": "count",
    "sweep.join_pairs": "count",
    "sweep.dedupe_ratio": "ratio",
    "sweep.table_entries": "count",
    "sweep.parent_links": "count",
    "sampler.reconstruct.calls": "count",
    "sampler.reconstruct.s": "s",
    "sampler.sample.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Instance:
    spec: Spec
    points: list
    expected: int
    path: Path
    walls: list[float] = field(default_factory=list)
    count: int | None = None
    checker: object = None


@dataclass
class Child:
    wall: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Bench:
    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.setup_walls: list[float] = []
        write_points(WORK / "setup.txt", SETUP_POINTS)
        refs = instances.load_references()
        self.instances = []
        for spec in instances.WORKLOADS[workload]:
            pts = instances.instance_points(spec, seed)
            path = WORK / f"{spec.name}.txt"
            write_points(path, pts)
            self.instances.append(Instance(
                spec, pts, instances.expected_count(spec, refs), path))

    # -- children ------------------------------------------------------------

    def run_child(self, argv: list[str]) -> Child:
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        RSS_FILE.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        try:
            rss_mb = int(RSS_FILE.read_text()) / 1024
        except (OSError, ValueError):
            rss_mb = 0.0
        return Child(wall, rss_mb, proc.returncode,
                     out_path.read_text(), err_path.read_text())

    @staticmethod
    def cli(spans_path: Path | None = None, instance: str = "") -> list[str]:
        """Command line of the CLI, run through tracer.py (which reports
        the child's own peak RSS, and records spans if asked)."""
        return [sys.executable, str(BENCH / "tracer.py"), str(RSS_FILE),
                str(spans_path or "-"), instance]

    def cli_args(self, inst: Instance) -> list[str]:
        spec = inst.spec
        if spec.samples:
            return ["sample", str(inst.path), "--structure", spec.family,
                    "--count", str(spec.samples), "--seed", str(self.seed)]
        return ["count", str(inst.path), "--structure", spec.family]

    def run_instance(self, inst: Instance, spans_path: Path | None = None
                     ) -> Child:
        child = self.run_child(self.cli(spans_path, inst.spec.name)
                               + self.cli_args(inst))
        self.attempted += 1
        problem = self.check(inst, child)
        if problem:
            self.failures.append(f"{inst.spec.name}: {problem}")
        return child

    # -- output checks ---------------------------------------------------------

    def check(self, inst: Instance, child: Child) -> str | None:
        if child.returncode != 0:
            return (f"exit code {child.returncode}: "
                    f"{child.stderr.strip()[-300:]}")
        if not inst.spec.samples:
            got = child.stdout.strip()
            inst.count = int(got) if got.isdigit() else None
            if inst.count != inst.expected:
                return f"count {got!r}, expected {inst.expected}"
            return None
        try:
            structures = json.loads(child.stdout)
        except json.JSONDecodeError as exc:
            return f"unreadable sample output: {exc}"
        if len(structures) != inst.spec.samples:
            return (f"{len(structures)} samples, expected "
                    f"{inst.spec.samples}")
        if inst.checker is None:
            inst.checker = SampleChecker(inst.spec.family, inst.points)
        for edges in structures:
            problem = inst.checker.check(edges)
            if problem:
                return problem
        return None

    # -- phases ------------------------------------------------------------------

    def check_program_source(self) -> None:
        probe = subprocess.run(
            [sys.executable, "-c", "import tricount; print(tricount.__file__)"],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=60)
        where = Path(probe.stdout.strip() or ".").resolve()
        if probe.returncode != 0 or SRC.resolve() not in where.parents:
            raise SystemExit(f"tricount does not import from {SRC}: "
                             f"{probe.stderr.strip() or where}")

    def setup_probe(self) -> float:
        """CLI wall time on a 3-point input: interpreter start, import,
        parse and validate."""
        child = self.run_child(self.cli() + ["count",
                                             str(WORK / "setup.txt")])
        self.attempted += 1
        if child.returncode != 0 or child.stdout.strip() != "1":
            self.failures.append(f"setup: exit {child.returncode}, "
                                 f"output {child.stdout.strip()!r}")
        return child.wall

    def untraced_pass(self) -> float:
        """Run every instance once.  Set-up probes are spread through the
        pass so that their median does not hinge on one second of machine
        speed."""
        t0 = time.perf_counter()
        every = max(len(self.instances) // SETUP_PROBES, 1)
        for k, inst in enumerate(self.instances):
            if k % every == 0:
                self.setup_walls.append(self.setup_probe())
            child = self.run_instance(inst)
            inst.walls.append(child.wall)
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        return time.perf_counter() - t0

    def traced_pass(self) -> tuple[float, dict[str, float], list[str]]:
        total = 0.0
        layer: dict[str, float] = defaultdict(float)
        absent: set[str] = set()
        spans_path = WORK / "spans.bin"
        for inst in self.instances:
            spans_path.unlink(missing_ok=True)
            child = self.run_instance(inst, spans_path)
            total += child.wall
            if not spans_path.exists():
                continue
            spans, header = Spans.load(spans_path)
            absent.update(header["absent"])
            absent.update(f"{name} (counters)"
                          for name in header["broken_hooks"])
            for name, st in summarize(spans).items():
                layer[f"{name}.calls"] += st.calls
                layer[f"{name}.s"] += st.s
                layer[f"{name}.self_s"] += st.self_s
            for key, value in header["counters"].items():
                if key == "sweep.t_max":
                    layer[key] = max(layer[key], value)
                else:
                    layer[key] += value
        return total, layer, sorted(absent)


def write_points(path: Path, points: list) -> None:
    path.write_text("".join(f"{x} {y}\n" for x, y in points))


class SampleChecker:
    """Checks a sampled structure from outside the program.

    tri: the right number of edges (3n - 3 - h) and no two crossing, which
    makes the set a maximal non-crossing one, i.e. a triangulation.
    pt: tricount.validate_pseudotriangulation (planar, pointed, maximal).
    """

    def __init__(self, family: str, points: list):
        self.family = family
        self.points = sorted(points)
        self.n = len(points)
        self.seen: set = set()
        if family == "tri":
            self.target = 3 * self.n - 3 - instances.convex_hull_size(points)
            self.crossings = self._crossing_masks()
        else:
            import tricount
            self.target = 2 * self.n - 3
            self.P = tricount.validate_point_set(self.points)
            self.validate = tricount.validate_pseudotriangulation

    def _crossing_masks(self) -> dict:
        pts, n, o = self.points, self.n, instances.orientation
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        bit = {e: 1 << k for k, e in enumerate(edges)}
        masks = dict.fromkeys(edges, 0)
        for k, (a, b) in enumerate(edges):
            for c, d in edges[k + 1:]:
                if len({a, b, c, d}) < 4:
                    continue
                if (o(pts[a], pts[b], pts[c]) != o(pts[a], pts[b], pts[d])
                        and o(pts[c], pts[d], pts[a])
                        != o(pts[c], pts[d], pts[b])):
                    masks[(a, b)] |= bit[(c, d)]
                    masks[(c, d)] |= bit[(a, b)]
        self.bit = bit
        return masks

    def check(self, raw) -> str | None:
        try:
            edges = tuple(sorted({(int(a), int(b)) for a, b in raw}))
        except (TypeError, ValueError):
            return f"malformed structure {raw!r}"
        if edges in self.seen:
            return None
        if len(edges) != len(raw) or any(
                not 0 <= a < b < self.n for a, b in edges):
            return f"bad edge list {raw!r}"
        if len(edges) != self.target:
            return f"{len(edges)} edges, expected {self.target}"
        if self.family == "tri":
            mask = sum(self.bit[e] for e in edges)
            if any(self.crossings[e] & mask for e in edges):
                return f"crossing edges in {edges}"
        else:
            verdict = self.validate(edges, self.P)
            if not verdict:
                return f"not a pointed pseudo-triangulation: {verdict.reason}"
        self.seen.add(edges)
        return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(bench: Bench) -> tuple[dict, dict]:
    walls = [w for inst in bench.instances for w in inst.walls]
    value, rank, pct = tail(walls)
    metrics = {
        "wall_s.p50": (median(walls), "s"),
        "wall_s.tail": (value, "s"),
        "total_s": (sum(median(inst.walls) for inst in bench.instances), "s"),
        "setup_s": (median(bench.setup_walls), "s"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
    }
    details = {"wall_s.samples": len(walls), "wall_s.tail_rank": rank,
               "setup_s.samples": len(bench.setup_walls),
               "wall_s.tail_percentile": round(pct, 1)}
    return metrics, details


def per_layer(layer: dict[str, float], traced_total: float,
              untraced_total: float) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = dict(layer)
    values["geom.segments_cross.distinct_ratio"] = ratio(
        layer["geom.segments_cross.distinct"],
        layer["geom.segments_cross.calls"])
    values["sweep.dedupe_ratio"] = ratio(layer["sweep.pop_total"],
                                         layer["sweep.join_pairs"])
    values["trace.overhead_s"] = traced_total - untraced_total
    return {name: (values.get(name, 0), unit)
            for name, unit in PER_LAYER.items()}


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload, print its lines and return its record."""
    env = environment()
    bench = Bench(workload, args.seed)
    bench.check_program_source()
    bench.setup_probe()  # untimed: fills the bytecode caches

    extra: dict = {}
    if args.trace:
        bench.untraced_pass()
        untraced = sum(inst.walls[-1] for inst in bench.instances)
        traced, layer, absent = bench.traced_pass()
        metrics = per_layer(layer, traced, untraced)
        extra = {"untraced_total_s": untraced, "traced_total_s": traced,
                 "absent": absent, "layers": dict(sorted(layer.items()))}
    else:
        t0 = time.perf_counter()
        passes = 0
        while True:
            last = bench.untraced_pass()
            passes += 1
            if time.perf_counter() - t0 + last > args.seconds:
                break
        metrics, extra = end_to_end(bench)
        extra["passes"] = passes
    extra["failed_ratio"] = len(bench.failures) / bench.attempted

    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["overloaded"] = max(env["loadavg_1m_start"],
                            env["loadavg_1m_end"]) > env["nproc"]
    if env["overloaded"]:
        print("warning: load average above nproc during this run; "
              "timings are not comparable", file=sys.stderr)
    for problem in bench.failures:
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"# tricount bench: workload={workload} seed={args.seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    for inst in bench.instances:
        walls = " ".join(f"{w:.3f}" for w in inst.walls)
        if inst.spec.samples:
            seen = len(inst.checker.seen) if inst.checker else 0
            got = f"samples={inst.spec.samples} distinct_valid={seen}"
        else:
            got = f"count={inst.count}"
        print(f"instance {inst.spec.name} {got} expected_count="
              f"{inst.expected} wall_s=[{walls}]")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("details " + json.dumps(extra))

    return {"workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "instances": [{"name": i.spec.name, "family": i.spec.family,
                           "n": i.spec.n, "samples": i.spec.samples,
                           "count": i.count and str(i.count),
                           "wall_s": i.walls}
                          for i in bench.instances],
            "details": extra,
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(instances.WORKLOADS) + ["all"],
                    help="'all' runs every workload and prefixes each "
                         "metric with its workload's name")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "tricount" / "cli.py").is_file():
        print(f"error: no tricount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the pt sample check uses the library
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        record = run_workload(args.workload, args)
        result = {k: record[k]
                  for k in ("correct", "attempted", "failed", "metrics")}
    else:
        record = [run_workload(w, args) for w in instances.WORKLOADS]
        result = {
            "correct": all(r["correct"] for r in record),
            "attempted": sum(r["attempted"] for r in record),
            "failed": sum(r["failed"] for r in record),
            "metrics": {f"{r['workload']}.{name}": m for r in record
                        for name, m in r["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
