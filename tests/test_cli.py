import json
import subprocess
import sys

import pytest

import tricount as tc
from tricount import sampler
from tricount.cli import WRITE_BATCH, main
from tricount.errors import InternalInvariantViolation

from conftest import FAN5, conv_points, fan5_star_triangulation, random_points


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


@pytest.mark.parametrize("pts", [
    [[0, 0], [2.7, 2], [3, 7], [4, 8], [6, 18]],
    [[0, 0], [True, 5], [3, 1]],
])
def test_count_non_integer_json_exit2(tmp_path, capsys, pts):
    p = tmp_path / "pts.json"
    p.write_text(json.dumps({"points": pts}))
    assert main(["count", str(p)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["count", "FILE", "--threads", "0"],
    ["sequence", "--k", "-1"],
    ["sample", "FILE", "--count", "-2"],
    ["enumerate", "FILE", "--cap", "-1"],
    ["sample", "FILE", "--max-table-entries", "-1"],
])
def test_out_of_range_argument_exit2(tmp_path, capsys, argv):
    f = write_points(tmp_path, FAN5)
    assert main([f if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_count_bad_file_exit2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n1 a\n")
    assert main(["count", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


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
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}")


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
    run = tc.sample(tc.validate_point_set(pts), "pt", seed=6, m=count)
    assert capsys.readouterr().out == json.dumps(
        [sorted(map(list, s.edges)) for s in run.structures]) + "\n"


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
    pf.write_text(json.dumps([0, 9]))
    assert main(["render", f, "--path-file", str(pf),
                 "--out", str(tmp_path / "x.svg")]) == 2


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
    assert err.startswith("error: bad ") and "non-integer vertex index" in err
    assert not out.exists()


def test_subprocess_byte_determinism(tmp_path):
    f = write_points(tmp_path, FAN5)
    cmd = [sys.executable, "-m", "tricount.cli", "count", f,
           "--structure", "tri"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout == b"3\n"
