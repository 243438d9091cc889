"""Span records, their file format, and the statistics drawn from them.

A span is one call of a wrapped function: name, start, end, parent span and
the instance it belongs to.  The tracer keeps spans in flat arrays while the
program runs and writes them once at exit; the benchmark loads them and
computes inclusive and self time here.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Spans:
    """Spans of one instance, in start order (a parent precedes its
    children).  A span nested inside a span of the same name stores its
    name id complemented (~id), so inclusive time can skip it."""
    instance: str = ""
    names: list[str] = field(default_factory=list)   # name table
    name_id: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))  # -1: root
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span (for tests; the tracer appends to the
        arrays directly)."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        p = parent
        while p >= 0:
            if self.name_id[p] in (nid, ~nid):
                nid = ~nid
                break
            p = self.parent[p]
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def dump(self, path: Path, extra: dict) -> None:
        header = {"instance": self.instance, "names": self.names,
                  "count": len(self.start), **extra}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(f)

    @classmethod
    def load(cls, path: Path) -> tuple["Spans", dict]:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            spans = cls(header["instance"], header["names"])
            count = header["count"]
            for arr in (spans.name_id, spans.parent, spans.start, spans.end):
                arr.fromfile(f, count)
        return spans, header


@dataclass
class NameStats:
    calls: int = 0
    s: float = 0.0       # inclusive time, outermost calls only
    self_s: float = 0.0  # time not covered by child spans


def summarize(spans: Spans) -> dict[str, NameStats]:
    """Per-name calls, inclusive time and self time.

    Self time of a span is its duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so recursion is not counted twice.
    """
    k = len(spans.names)
    calls, incl, own = [0] * k, [0.0] * k, [0.0] * k
    nids = spans.name_id
    for nid, p, t0, t1 in zip(nids, spans.parent, spans.start, spans.end):
        d = t1 - t0
        if nid < 0:
            nid = ~nid
        else:
            incl[nid] += d
        calls[nid] += 1
        own[nid] += d
        if p >= 0:
            q = nids[p]
            own[q if q >= 0 else ~q] -= d
    return {name: NameStats(calls[i], incl[i], own[i])
            for i, name in enumerate(spans.names) if calls[i]}


def tail(values: list[float], beyond: int = 10) -> tuple[float, int, float]:
    """The highest order statistic with at least `beyond` samples above it.

    Returns (value, 1-based rank, percentile).  With `beyond` or fewer
    samples no such statistic exists and the maximum is returned.
    """
    v = sorted(values)
    k = len(v) - beyond - 1 if len(v) > beyond else len(v) - 1
    return v[k], k + 1, 100.0 * (k + 1) / len(v)
