import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import tricount as tc
from tricount import cli, sampler, svg, sweep
from tricount.cli import WRITE_BATCH, main
from tricount.errors import InternalInvariantViolation

from conftest import (FAN5, conv_points, edge_set, fan5_star_triangulation,
                      random_points, sample)


def write_points(tmp_path, pts, name="pts.txt", as_json=False):
    p = tmp_path / name
    if as_json:
        p.write_text(json.dumps({"points": [list(q) for q in pts]}))
    else:
        p.write_text("# point set\n" +
                     "\n".join(f"{x} {y}" for x, y in pts) + "\n")
    return str(p)


def test_count_fan5(tmp_path, capsys):
    f = write_points(tmp_path, FAN5)
    assert main(["count", f, "--structure", "tri"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_count_conv6_json_input(tmp_path, capsys):
    f = write_points(tmp_path, conv_points(6), as_json=True)
    assert main(["count", f]) == 0
    assert capsys.readouterr().out == "14\n"


def test_count_stats_schema(tmp_path, capsys):
    f = write_points(tmp_path, FAN5)
    out = tmp_path / "stats.json"
    assert main(["count", f, "--structure", "pt", "--stats", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data) == {"n", "family", "count", "t_per_line", "t_max",
                         "elapsed_ms", "population", "join_pairs",
                         "line_seconds"}
    assert data["count"] == "8"
    assert data["n"] == 5 and data["family"] == "pt"
    assert data["t_max"] == max(data["t_per_line"])


@pytest.mark.parametrize("structure", ["tri", "pt"])
def test_count_stats_per_line(tmp_path, capsys, structure):
    pts = random_points(8, 42)
    f = write_points(tmp_path, pts)
    out = tmp_path / "stats.json"
    assert main(["count", f, "--structure", structure,
                 "--stats", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    # one entry per joined line l_2 .. l_{n-1}
    for key in ("population", "join_pairs", "line_seconds"):
        assert len(data[key]) == data["n"] - 2
    kept = data["t_per_line"][1:]
    assert all(p >= t for p, t in zip(data["population"], kept))
    assert all(j >= t for j, t in zip(data["join_pairs"], kept))
    # the per-line lists are run_sweep's (test_sweep checks them against
    # the sweep stream's populations and parent links)
    _, stats, _ = tc.run_sweep(tc.system_for(structure),
                               tc.validate_point_set(pts))
    assert data["t_per_line"] == stats.t_per_line
    assert data["population"] == stats.population == kept
    assert data["join_pairs"] == stats.join_pairs


def test_count_collinear_exit2(tmp_path, capsys):
    f = write_points(tmp_path, [(0, 0), (1, 1), (2, 2), (5, 0)])
    assert main(["count", f]) == 2
    err = capsys.readouterr().err
    assert "(1, 1)" in err and "(2, 2)" in err


# JSON that json.loads refuses with ValueError (a number past int's
# 4300-digit string conversion limit) and with RecursionError (nesting
# past the recursion limit)
LONG_INT = "[[0, 0], [1" + "0" * 4300 + ", 5], [3, 1]]"
DEEP = "[" * 100_000 + "]" * 100_000


# each point list's refusal, by its JSON text
POINT_REFUSAL = {
    "[[0, 0], [2.7, 2], [3, 7], [4, 8], [6, 18]]":
        "non-integer coordinate 2.7 in [2.7, 2]",
    "[[0, 0], [true, 5], [3, 1]]": "non-integer coordinate True in [True, 5]",
    "[[0, 0], [1, 2, 3], [2, 5]]": "expected an (x, y) pair, got [1, 2, 3]",
    "[[0, 0], 5, [2, 5]]": "expected an (x, y) pair, got 5",
}


@pytest.mark.parametrize("pts", [
    [[0, 0], [2.7, 2], [3, 7], [4, 8], [6, 18]],
    [[0, 0], [True, 5], [3, 1]],
    pytest.param(LONG_INT, id="long-int"),
    pytest.param(DEEP, id="deep"),
    pytest.param([[0, 0], [1, 2, 3], [2, 5]], id="triple"),
    pytest.param([[0, 0], 5, [2, 5]], id="scalar"),
])
def test_count_non_integer_json_exit2(tmp_path, capsys, pts):
    p = tmp_path / "pts.json"
    p.write_text('{"points": ' + (pts if isinstance(pts, str)
                                  else json.dumps(pts)) + "}")
    assert main(["count", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if isinstance(pts, str):
        assert err.startswith("error: bad JSON point file: ")
    else:
        assert err == f"error: {POINT_REFUSAL[json.dumps(pts)]}\n"


@pytest.mark.parametrize("text", [LONG_INT, DEEP, "{}", '""', '{"a": 1}', "5"],
                         ids=["long-int", "deep", "empty-object", "string",
                              "object", "number"])
@pytest.mark.parametrize("argv,what", [
    (["sample", "JSON"], "JSON point"),
    (["enumerate", "JSON"], "JSON point"),
    (["render", "JSON", "--out", "SVG"], "JSON point"),
    (["render", "FILE", "--structure-file", "REF", "--out", "SVG"],
     "structure"),
    (["render", "FILE", "--path-file", "REF", "--out", "SVG"], "path"),
], ids=["sample", "enumerate", "render", "render-structure", "render-path"])
def test_malformed_json_exit2(tmp_path, capsys, argv, what, text):
    # the cases of test_count_non_integer_json_exit2 in the other commands'
    # point files and in render's reference files, and JSON that is not a
    # list: exit 2, no output
    (tmp_path / "pts.json").write_text('{"points": ' + text + "}")
    (tmp_path / "ref.json").write_text(text)
    names = {"FILE": write_points(tmp_path, FAN5),
             "JSON": str(tmp_path / "pts.json"),
             "REF": str(tmp_path / "ref.json"),
             "SVG": str(tmp_path / "x.svg")}
    assert main([names.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: bad {what} file: ")
    if text[0] != "[" and what in ("structure", "path"):
        assert err == f"error: bad {what} file: not a JSON list\n"
    assert not (tmp_path / "x.svg").exists()


# by flag: a count is refused by the library parameter that reads it, and
# --threads, which no library parameter reads, by the CLI
OUT_OF_RANGE = {
    "--threads": "--threads must be at least 1, got 0",
    "--k": "K must be a nonnegative int",
    "--count": "m must be a nonnegative int",
    "--cap": "cap must be a nonnegative int",
    "--max-table-entries": "max_table_entries must be a nonnegative int",
    "--seed": "seed must be a nonnegative int",
}


@pytest.mark.parametrize("argv", [
    ["count", "FILE", "--threads", "0"],
    ["sequence", "--k", "-1"],
    ["sample", "FILE", "--count", "-2"],
    ["enumerate", "FILE", "--cap", "-1"],
    ["sample", "FILE", "--max-table-entries", "-1"],
    ["sample", "FILE", "--seed", "-1"],
])
def test_out_of_range_argument_exit2(tmp_path, capsys, argv):
    f = write_points(tmp_path, FAN5)
    assert main([f if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {OUT_OF_RANGE[argv[-2]]}\n"


def test_count_bad_file_exit2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    # int() takes the last three (an underscore, a fullwidth and an
    # Arabic-Indic digit); a coordinate is ASCII digits only
    for token in ("a", "1_0", "５", "٣"):
        p.write_text(f"0 0\n{token} 5\n3 1\n", encoding="utf-8")
        assert main(["count", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 2: non-integer coordinate")
    # a line of three tokens is refused, not read as its first two
    p.write_text("0 0\n1 2 3\n3 1\n")
    assert main(["count", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 2: expected 'x y', got '1 2 3'\n"


@pytest.mark.parametrize("argv", [
    ["sample", "FILE"],
    ["enumerate", "FILE"],
    ["render", "FILE", "--out", "SVG"],
])
def test_non_ascii_integer_token_exit2(tmp_path, capsys, argv):
    # every subcommand reads its point file through load_point_set
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n1_0 5\n3 1\n")
    names = {"FILE": str(p), "SVG": str(tmp_path / "x.svg")}
    assert main([names.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "non-integer coordinate" in err
    assert not (tmp_path / "x.svg").exists()


def test_signed_coordinates_parse(tmp_path, capsys):
    p = tmp_path / "signed.txt"
    p.write_text("+0 -3\n+5 +1\n-2 4\n")
    assert main(["count", str(p)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_count_non_utf8_file_exit2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff\xfe 1 2\n")
    assert main(["count", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {p}")


@pytest.mark.parametrize("argv", [
    ["count", "FILE", "--stats", "OUT/s.json"],
    ["render", "FILE", "--out", "OUT/x.svg"],
    ["sample", "FILE", "--format", "svg-dir", "--format-dir", "OUT/svgs"],
])
def test_unwritable_output_exit2(tmp_path, capsys, argv):
    f = write_points(tmp_path, FAN5)
    blocker = tmp_path / "blocker"  # a file, so no path below it exists
    blocker.write_text("")
    argv = [a.replace("FILE", f).replace("OUT", str(blocker)) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {blocker}")
    assert out == ""  # count prints only once its stats file is written


PRINTING = [["count", "FILE"], ["enumerate", "FILE"], ["sample", "FILE"],
            ["sequence", "--k", "5"]]
NO_SPACE = f"error: cannot write stdout: [Errno 28] {os.strerror(28)}\n"


class FullStdout(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", PRINTING)
def test_unwritable_stdout_exit2(tmp_path, capsys, monkeypatch, argv):
    # one error line and exit 2, not a traceback; fd 1 is then pointed
    # elsewhere, so that the interpreter's exit flush fails no more
    f = write_points(tmp_path, FAN5)
    targets = []

    def dup2(fd, fd2):
        targets.append(fd2)
        os.close(fd)

    # the test process's own fd 1 stays as it is
    monkeypatch.setattr(cli, "os", SimpleNamespace(
        dup2=dup2, open=os.open, devnull=os.devnull, O_WRONLY=os.O_WRONLY),
        raising=False)
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main([a.replace("FILE", f) for a in argv]) == 2
    assert capsys.readouterr().err == NO_SPACE
    assert targets == [1]


def test_out_of_memory_exit3(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sweep, "run_sweep", exhausted)
    assert main(["count", write_points(tmp_path, FAN5)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", PRINTING)
def test_stdout_to_dev_full_exit2(tmp_path, argv):
    f = write_points(tmp_path, FAN5)
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "tricount.cli",
                            *(a.replace("FILE", f) for a in argv)],
                           stdout=full, stderr=subprocess.PIPE, text=True)
    assert (r.returncode, r.stderr) == (2, NO_SPACE)


@pytest.mark.parametrize("argv", [["sample", "FILE", "--count", "50000"],
                                  ["sequence", "--k", "1000"]])
def test_stdout_closed_early_exit2(tmp_path, argv):
    # both print far more than a pipe holds, so the reader's close is seen
    f = write_points(tmp_path, FAN5)
    proc = subprocess.Popen([sys.executable, "-m", "tricount.cli",
                             *(a.replace("FILE", f) for a in argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == \
        f"error: cannot write stdout: [Errno 32] {os.strerror(32)}\n"


def test_enumerate(tmp_path, capsys):
    f = write_points(tmp_path, [(0, 0), (3, 1), (1, 4)])
    assert main(["enumerate", f]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [[[0, 1], [0, 2], [1, 2]]]

    f = write_points(tmp_path, FAN5, "fan.txt")
    assert main(["enumerate", f, "--structure", "tri"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3
    f2 = write_points(tmp_path, conv_points(5), "c5.txt")
    assert main(["enumerate", f2, "--structure", "pt"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 5


def test_enumerate_edges_format(tmp_path, capsys):
    f = write_points(tmp_path, [(0, 0), (3, 1), (1, 4)])
    assert main(["enumerate", f, "--format", "edges"]) == 0
    assert capsys.readouterr().out == "0-1 0-2 1-2\n"


def test_enumerate_cap_exit3(tmp_path, capsys):
    f = write_points(tmp_path, conv_points(6))
    assert main(["enumerate", f, "--cap", "3"]) == 3
    assert main(["enumerate", f, "--cap", "0"]) == 3  # a refusal, not bad input


def test_sample(tmp_path, capsys):
    f = write_points(tmp_path, [(0, 0), (3, 1), (1, 4)])
    assert main(["sample", f, "--count", "2", "--seed", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [[[0, 1], [0, 2], [1, 2]]] * 2


def test_sample_deterministic(tmp_path, capsys):
    f = write_points(tmp_path, conv_points(5))
    assert main(["sample", f, "--count", "10", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", f, "--count", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_sample_svg_dir(tmp_path, capsys):
    f = write_points(tmp_path, FAN5)
    outdir = tmp_path / "svgs"
    assert main(["sample", f, "--count", "3", "--seed", "2",
                 "--format", "svg-dir", "--format-dir", str(outdir)]) == 0
    files = sorted(outdir.iterdir())
    assert [p.name for p in files] == [f"sample-{k:05d}.svg" for k in range(3)]


@pytest.mark.parametrize("family", ["tri", "pt"])
def test_sample_svg_dir_draws_the_json_draws(tmp_path, capsys, family):
    # sample-k.svg is the render of the k-th structure that the JSON format
    # prints for the same seed
    pts = random_points(8, 508)
    f = write_points(tmp_path, pts)
    assert main(["sample", f, "--structure", family, "--count", "5",
                 "--seed", "3"]) == 0
    draws = json.loads(capsys.readouterr().out)
    outdir = tmp_path / "svgs"
    assert main(["sample", f, "--structure", family, "--count", "5",
                 "--seed", "3", "--format", "svg-dir",
                 "--format-dir", str(outdir)]) == 0
    P = tc.validate_point_set(pts)
    for k, edges in enumerate(draws):
        assert (outdir / f"sample-{k:05d}.svg").read_text() == \
            svg.render_svg(P.points, structure_edges=map(tuple, edges))
    assert len(list(outdir.iterdir())) == 5


def test_sample_format_dir_needs_svg_dir(tmp_path, capsys):
    # --format-dir with the default JSON format is refused, not ignored
    f = write_points(tmp_path, FAN5)
    outdir = tmp_path / "xx"
    assert main(["sample", f, "--count", "2", "--format-dir",
                 str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --format-dir needs --format svg-dir\n"
    assert not outdir.exists()


@pytest.mark.parametrize("count", [0, 1, WRITE_BATCH + 1])
def test_sample_stream_is_json_of_sample(tmp_path, capsys, count):
    # written in batches, the stream is the whole run's json.dumps
    pts = random_points(8, 508)
    f = write_points(tmp_path, pts)
    assert main(["sample", f, "--structure", "pt", "--count", str(count),
                 "--seed", "6"]) == 0
    P = tc.validate_point_set(pts)
    assert capsys.readouterr().out == json.dumps(
        [sorted(map(list, edge_set(P, s)))
         for s in sample(P, "pt", seed=6, m=count)]) + "\n"


def test_sample_refusal_before_output(tmp_path, capsys):
    # the table budget is checked before the first draw, even for none
    f = write_points(tmp_path, FAN5)
    assert main(["sample", f, "--count", "0", "--max-table-entries", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: path tables exceed 1 entries")


@pytest.mark.parametrize("fail_at", [3, WRITE_BATCH + 2])
def test_sample_failure_mid_stream_exit4(tmp_path, capsys, monkeypatch,
                                         fail_at):
    # an invariant violation at draw fail_at keeps its exit code and error
    # line; the batches before it stay written, an array cut short
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise InternalInvariantViolation("draw broke")
        return complete(*args)

    complete = sampler._complete
    monkeypatch.setattr(sampler, "_complete", failing)
    f = write_points(tmp_path, conv_points(6))
    assert main(["sample", f, "--count", str(WRITE_BATCH + 3)]) == 4
    out, err = capsys.readouterr()
    assert err == "error: draw broke\n"
    assert len(calls) == fail_at
    written = (fail_at - 1) // WRITE_BATCH * WRITE_BATCH
    assert (len(json.loads(out + "]")) if out else 0) == written


def test_sequence(capsys):
    assert main(["sequence", "--k", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0\t0\t0"
    assert lines[-1].split("\t")[:2] == ["6", "2307"]
    assert main(["sequence", "--k", "40"]) == 0
    out = capsys.readouterr().out
    assert "e" not in out  # exact integers, never scientific notation


def test_sequence_too_large_exit3(capsys):
    # refused before the O(K) tables are allocated
    assert main(["sequence", "--k", "100000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: K=100000000000 exceeds sequence guard 1000\n"


def test_sample_too_large_exit3(tmp_path, capsys):
    # refused before the sweep and the first draw
    f = write_points(tmp_path, FAN5)
    assert main(["sample", f, "--count", "100000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: m=100000000000 exceeds sample guard 100000\n"


def test_render(tmp_path, capsys):
    f = write_points(tmp_path, FAN5)
    sf = tmp_path / "structure.json"
    sf.write_text(json.dumps([list(e) for e in
                              sorted(fan5_star_triangulation())]))
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps([3, 1, 2, 0, 4]))
    out = tmp_path / "fig.svg"
    assert main(["render", f, "--structure-file", str(sf),
                 "--path-file", str(pf), "--line", "2",
                 "--out", str(out)]) == 0
    doc = out.read_text()
    assert doc.count("<circle") == 5
    assert doc.count('stroke="black"') == 8
    assert doc.count('stroke="red"') == 4
    assert doc.count("stroke-dasharray") == 1


# sha256 of two renders, each with a structure and a sweep line: FAN5 with
# its star triangulation and a path, and a quadrilateral whose stroke width
# 20 / 300 rounds up to 0.0667
RENDER_PINS = [
    (FAN5, sorted(fan5_star_triangulation()), [3, 1, 2, 0, 4],
     "bb01b3c867bb7b257184c2549b9b54ad0d6d715387b744214ca0979fe01c36c6"),
    ([(0, 0), (1, 3), (3, 1), (20, 7)],
     [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [],
     "774dd92e1bfd36109e0d5ace98e70fe0d5e0f513d2772a90aa5b97f907515693"),
]


@pytest.mark.parametrize("pts, edges, path, digest", RENDER_PINS,
                         ids=["fan5", "quadrilateral"])
def test_render_bytes_are_pinned(tmp_path, pts, edges, path, digest):
    f = write_points(tmp_path, pts)
    sf = tmp_path / "structure.json"
    sf.write_text(json.dumps([list(e) for e in edges]))
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps(path))
    out = tmp_path / "fig.svg"
    assert main(["render", f, "--structure-file", str(sf),
                 "--path-file", str(pf), "--line", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@contextlib.contextmanager
def int_str_limit(digits):
    """Python's limit on the digits of an int-to-str conversion set to
    digits (0 lifts it) for the duration."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_render_beyond_float_range(tmp_path, capsys):
    # every number drawn is exact integer arithmetic: a coordinate no float
    # holds is drawn digit for digit, as count counts the set; so is one of
    # 4300 digits, the most str() converts by default, although the
    # viewBox's 1.1 times it has 4301
    big, nines = 10 ** 400, 10 ** 4300 - 1
    with int_str_limit(0):
        nines_box = (f'viewBox="-{11 * 10 ** 4299 - 2}.9 -1.05 '
                     f'{22 * 10 ** 4299 - 3}.8 1.1"')
    for name, pts, drawn in (
            ("big", [(0, 0), (big, 1), (1, big)],
             f'<circle cx="{big}" cy="-1" '),
            ("nines", [(-nines, 0), (0, 1), (nines, 0)], nines_box)):
        f = write_points(tmp_path, pts, name=f"{name}.txt")
        out = tmp_path / f"{name}.svg"
        outdir = tmp_path / name
        with int_str_limit(4300):
            assert main(["render", f, "--line", "1", "--out", str(out)]) == 0
            assert main(["sample", f, "--format", "svg-dir",
                         "--format-dir", str(outdir)]) == 0
            assert main(["count", f]) == 0
        for doc in (out.read_text(),
                    (outdir / "sample-00000.svg").read_text()):
            assert drawn in doc
        assert capsys.readouterr() == (f"{outdir}\n1\n", "")


def test_render_points_only(tmp_path):
    f = write_points(tmp_path, FAN5)
    out = tmp_path / "fig.svg"
    assert main(["render", f, "--out", str(out)]) == 0
    doc = out.read_text()
    assert doc.count("<circle") == 5
    assert "<line" not in doc


def test_render_bad_reference(tmp_path, capsys):
    f = write_points(tmp_path, FAN5)
    pf = tmp_path / "path.json"
    out = tmp_path / "x.svg"
    # path vertices go through PointSet.check_vertices
    for content, bad in (([0, 9], "9"), ([-1, 2], "-1"), ([True, 1], "True")):
        pf.write_text(json.dumps(content))
        assert main(["render", f, "--path-file", str(pf),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: not a vertex: {bad}\n"
        assert not out.exists()


@pytest.mark.parametrize("content", [
    [[2, 2]], [[0, 9]], [[-1, 2]],
    pytest.param([[0, 1, 2]], id="triple"), pytest.param([5], id="scalar"),
])
def test_render_non_segment_exit2(tmp_path, capsys, content):
    # structure items become segments through PointSet.edge_masks, which
    # refuses a pair that is not two distinct vertices of the point set by
    # its values, and any other item whole
    f = write_points(tmp_path, FAN5)
    sf = tmp_path / "structure.json"
    sf.write_text(json.dumps([[0, 1]] + content))
    out = tmp_path / "x.svg"
    assert main(["render", f, "--structure-file", str(sf),
                 "--out", str(out)]) == 2
    item = content[0]
    if isinstance(item, list) and len(item) == 2:
        item = tuple(item)
    assert capsys.readouterr().err == f"error: not a segment: {item!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["0", "5", "-1"])
def test_render_bad_line_exit2(tmp_path, capsys, line):
    # --line goes through geom.hull_crossing_edges, the door for a sweep
    # line, which refuses any but 1..n-1
    f = write_points(tmp_path, FAN5)
    out = tmp_path / "x.svg"
    assert main(["render", f, "--line", line, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: not a sweep line: {line} (1..4)\n"
    assert not out.exists()


# each file's refusal, by its JSON text: PointSet.edge_masks names the
# first pair that is no segment, PointSet.check_vertices the first path
# vertex that is no vertex
NON_INTEGER_REFUSAL = {
    "[[0, 1.9], [1, 3]]": "not a segment: (0, 1.9)",
    "[[0, 1], [true, 3]]": "not a segment: (True, 3)",
    '[[0, "1"], [1, 3]]': "not a segment: (0, '1')",
    "[1.5, 2, 3]": "not a vertex: 1.5",
    '[1, "2", 3]': "not a vertex: '2'",
    "[1, 2, true]": "not a vertex: True",
}


@pytest.mark.parametrize("flag,content", [
    ("--structure-file", [[0, 1.9], [1, 3]]),
    ("--structure-file", [[0, 1], [True, 3]]),
    ("--structure-file", [[0, "1"], [1, 3]]),
    ("--path-file", [1.5, 2, 3]),
    ("--path-file", [1, "2", 3]),
    ("--path-file", [1, 2, True]),
])
def test_render_non_integer_vertex_exit2(tmp_path, capsys, flag, content):
    # vertex indices follow the coordinates' rule: refused, never coerced
    f = write_points(tmp_path, FAN5)
    rf = tmp_path / "ref.json"
    rf.write_text(json.dumps(content))
    out = tmp_path / "x.svg"
    assert main(["render", f, flag, str(rf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {NON_INTEGER_REFUSAL[json.dumps(content)]}\n"
    assert not out.exists()


def test_subprocess_byte_determinism(tmp_path):
    f = write_points(tmp_path, FAN5)
    cmd = [sys.executable, "-m", "tricount.cli", "count", f,
           "--structure", "tri"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout == b"3\n"
