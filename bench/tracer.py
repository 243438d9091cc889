"""Run the tricount CLI in-process, optionally with spans around its layers.

    python3 bench/tracer.py RSS_FILE SPANS_FILE|- INSTANCE_ID <CLI arguments>

Calls tricount.cli.main like the installed `tricount` script does, then
writes this process's peak resident set (VmHWM) to RSS_FILE.  The parent
cannot take it from wait4: a child's ru_maxrss also counts the memory of
the parent it was spawned from.

With a SPANS_FILE, each listed function is first replaced, wherever a
tricount module holds it, by a wrapper that records a span; a listed
function that no longer exists is reported as absent.  The wrappers live
here, outside the program.  Spans stay in memory and are written to
SPANS_FILE when the CLI returns, with counters read from arguments and
results at the same boundaries.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from spans import Spans

# span name -> (module, attribute path)
WRAPPED = {
    "cli.main": ("tricount.cli", "main"),
    "cli.load_point_set": ("tricount.cli", "load_point_set"),
    "geom.segments_cross": ("tricount.geom", "PointSet.segments_cross"),
    "geom.cross_y": ("tricount.geom", "PointSet.cross_y"),
    "geom.wedge_empty": ("tricount.geom", "wedge_empty"),
    "geom.triangle_empty": ("tricount.geom", "PointSet.triangle_empty"),
    "geom.point_in_polygon_strict": ("tricount.geom",
                                     "point_in_polygon_strict"),
    "tpath.tpath_successors": ("tricount.tpath", "tpath_successors"),
    "ptpath.ptpath_successors": ("tricount.ptpath", "ptpath_successors"),
    "ptpath.is_pointed": ("tricount.ptpath", "is_pointed"),
    "sweep.run_sweep": ("tricount.sweep", "run_sweep"),
    "sampler.sample": ("tricount.sampler", "sample"),
    "sampler.reconstruct": ("tricount.sampler", "reconstruct"),
}


class Tracer:
    def __init__(self, instance: str):
        self.spans = Spans(instance)
        self.stack = [-1]
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()  # counters that could not be read
        self.counters = {"sweep.pop_total": 0, "sweep.t_max": 0,
                         "sweep.join_pairs": 0, "sweep.table_entries": 0,
                         "sweep.parent_links": 0,
                         "tpath.tpath_successors.emitted": 0,
                         "ptpath.ptpath_successors.emitted": 0}
        self.cross_pairs: set = set()

    def wrap(self, fn, name: str, on_result=None):
        sp = self.spans
        nid = len(sp.names)
        sp.names.append(name)
        n_append, p_append = sp.name_id.append, sp.parent.append
        s_append, e_append = sp.start.append, sp.end.append
        end, stack = sp.end, self.stack
        push, pop = stack.append, stack.pop
        perf = time.perf_counter
        broken = self.broken_hooks
        active = [0]  # open spans of this name

        def traced(*args, **kwargs):
            k = len(end)
            n_append(~nid if active[0] else nid)
            p_append(stack[-1])
            e_append(0.0)
            push(k)
            active[0] += 1
            s_append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[k] = perf()
                active[0] -= 1
                pop()
            if on_result is not None:
                try:
                    on_result(args, result)
                except Exception:  # the program's API moved; keep running
                    broken.add(name)
            return result

        return traced

    # -- counters read at the wrapped boundaries ---------------------------

    def _on_cross(self, args, result) -> None:
        _, e, f = args
        self.cross_pairs.add((e, f) if e <= f else (f, e))

    def _on_successors(self, name: str):
        def hook(args, result) -> None:
            self.counters[name] += len(result)
            self.counters["sweep.join_pairs"] += len(result)
        return hook

    def _on_sweep(self, args, result) -> None:
        _, stats, tables = result
        c = self.counters
        c["sweep.pop_total"] += sum(stats.t_per_line)
        c["sweep.t_max"] = max(c["sweep.t_max"], max(stats.t_per_line))
        for table in tables or ():
            c["sweep.table_entries"] += len(table.entries)
            c["sweep.parent_links"] += sum(
                len(getattr(e, "parents", ())) for e in table.entries.values())

    def install(self) -> None:
        hooks = {
            "geom.segments_cross": self._on_cross,
            "tpath.tpath_successors":
                self._on_successors("tpath.tpath_successors.emitted"),
            "ptpath.ptpath_successors":
                self._on_successors("ptpath.ptpath_successors.emitted"),
            "sweep.run_sweep": self._on_sweep,
        }
        importlib.import_module("tricount.cli")
        modules = [m for k, m in sys.modules.items()
                   if k == "tricount" or k.startswith("tricount.")]
        for name, (modname, path) in WRAPPED.items():
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            traced = self.wrap(fn, name, hooks.get(name))
            if outer:
                setattr(owner, attr, traced)
                continue
            # replace every module-level reference, including re-exports
            # made with `from .x import f`
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def dump(self, path: Path) -> None:
        self.counters["geom.segments_cross.distinct"] = len(self.cross_pairs)
        self.spans.dump(path, {"absent": self.absent,
                               "broken_hooks": sorted(self.broken_hooks),
                               "counters": self.counters})


def peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main() -> int:
    rss_out, spans_out, instance, *argv = sys.argv[1:]
    tracer = None
    if spans_out != "-":
        tracer = Tracer(instance)
        tracer.install()
    from tricount import cli
    try:
        return cli.main(argv)
    finally:
        Path(rss_out).write_text(f"{peak_rss_kb()}\n")
        if tracer is not None:
            tracer.dump(Path(spans_out))


if __name__ == "__main__":
    sys.exit(main())
