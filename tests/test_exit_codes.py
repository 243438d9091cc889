"""The exit-code contract as standing properties.

Every command that reads a file exits 0, 2 (bad input) or 3 (a refusal
of size) on any input, with no exception escaping cli.main, and each door
that reads a caller's values accepts a value or raises InputError.  The
inputs are drawn with a fixed derandomized budget, so every run tests the
same examples.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from tricount import geom, ptpath
from tricount.cli import main
from tricount.errors import InputError, check_nonnegative
from tricount.ptpath import paths_cross
from tricount.sampler import reconstruct

from conftest import random_points

# 4300 digits is the most that str() and int() convert by default
N = 10 ** 4300 - 1
EXTREMES = [(-N, 0), (N, 0), (0, N), (0, -N), (N, N)]
BAD_TOKENS = ["1" + "0" * 4300, "+3", "1_0", "1.5", "x", "\u0663", ""]
LINE = st.lists(st.one_of(st.integers(-6, 6).map(str),
                          st.sampled_from(BAD_TOKENS)), max_size=3)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 7),
              st.sampled_from([N, -N]),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=12)


@st.composite
def point_files(draw):
    """A point file's text: a small set in general position with up to two
    EXTREMES added, which may make a collinear triple (written as lines of
    "x y", one of them at times spoiled, or as JSON), or lines of tokens,
    or JSON whose "points" may be anything."""
    kind = draw(st.sampled_from(["set", "set", "set", "lines", "json"]))
    if kind == "lines":
        return "\n".join(map(" ".join, draw(st.lists(LINE, max_size=7))))
    if kind == "json" and draw(st.booleans()):
        return json.dumps({"points": draw(JSON_VALUES)})
    pts = random_points(draw(st.integers(3, 7)), draw(st.integers(0, 99)))
    pts += draw(st.lists(st.sampled_from(EXTREMES), unique=True, max_size=2))
    if kind == "json":
        return json.dumps({"points": pts})
    lines = [f"{x} {y}" for x, y in pts]
    if draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = " ".join(draw(LINE))
    return "\n".join(lines) + "\n"


# a list of vertex pairs or of vertices, any JSON value, or no JSON at all
REFERENCE_FILES = st.one_of(
    st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2),
             max_size=3).map(json.dumps),
    st.lists(st.integers(-1, 6), max_size=4).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(["", "[", "{}", "5", "null", '"ab"']))
NUMBERS = st.one_of(st.integers(0, 4).map(str),
                    st.sampled_from(["-1", "100001", "x", "1.5", ""]))


# the names an invocation gives its files and outputs, each read as a path
# in a scratch directory
NAMES = ("pts", "structure.json", "path.json", "svgs", "fig.svg")


@st.composite
def invocations(draw):
    """A command line of a subcommand that reads a file, and the text of
    each file it names."""
    files = {"pts": draw(point_files())}
    command = draw(st.sampled_from(["render", "sample", "count",
                                    "enumerate"]))
    argv = [command, "pts"]
    if command != "render":
        argv += ["--structure", draw(st.sampled_from(["tri", "pt"]))]
    if command == "enumerate":
        argv += ["--cap", draw(NUMBERS)]
    elif command == "sample":
        argv += ["--count", draw(NUMBERS), "--seed", draw(NUMBERS)]
        if draw(st.booleans()):
            argv += ["--format", "svg-dir", "--format-dir", "svgs"]
    elif command == "render":
        for option, name in (("--structure-file", "structure.json"),
                             ("--path-file", "path.json")):
            if draw(st.booleans()):
                files[name] = draw(REFERENCE_FILES)
                argv += [option, name]
        if draw(st.booleans()):
            argv += ["--line", draw(NUMBERS)]
        argv += ["--out", "fig.svg"]
    return argv, files


def run(argv, files):
    """main's exit code and stderr on argv, run in a scratch directory; an
    argparse refusal's SystemExit counts as its code."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in NAMES else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_input_exits_0_2_or_3(invocation):
    # an exception escaping main fails here, as a traceback would
    code, err = run(*invocation)
    assert code in (0, 2, 3), (code, err)
    if code:
        assert "error: " in err.splitlines()[-1]
    assert "Traceback" not in err


# one digit past the limit: a door must refuse it without printing it
BEYOND = st.sampled_from([N + 1, -N - 1])
VALUES = st.one_of(JSON_VALUES, st.integers(), BEYOND, st.floats(),
                   st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                   st.frozensets(st.integers(-2, 6), max_size=3),
                   st.binary(max_size=2))


# a collection of values, or a whole value that is no collection
ITEMS = st.one_of(st.lists(VALUES, max_size=4), st.none(), st.integers(),
                  BEYOND, st.floats(), st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(items=ITEMS, value=VALUES)
def test_doors_accept_or_refuse_as_input_errors(fan5, items, value):
    for door in (lambda: geom.PointSet(items),
                 lambda: geom.validate_point_set(items),
                 lambda: fan5.edge_masks(items),
                 lambda: fan5.check_vertices(items),
                 lambda: reconstruct(items, fan5, "tri"),
                 lambda: paths_cross(items, (0, 1, 4), fan5),
                 lambda: geom.hull_crossing_edges(fan5, value),
                 lambda: check_nonnegative("value", value)):
        try:
            door()
        except InputError:
            pass


# a vertex pair of a five-point set, either way round
PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda p: p[0] != p[1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(convex=st.booleans(), edges=st.lists(PAIRS, max_size=24), e=PAIRS,
       i=st.integers(1, 4))
def test_structure_lemmas_accept_or_refuse_as_input_errors(
        fan5, conv5, convex, edges, e, i):
    # any edge set, a structure or not, with pairs repeated or reversed
    P = conv5 if convex else fan5
    for lemma in (lambda: ptpath.flip(edges, e, P),
                  lambda: ptpath.is_flippable(edges, e, P),
                  lambda: ptpath.is_good_edge(edges, e, i, P),
                  lambda: ptpath.pt_good_edge(edges, e, i, P),
                  lambda: ptpath.extract_tpath(edges, i, P),
                  lambda: ptpath.extract_ptpath(edges, i, P)):
        try:
            lemma()
        except InputError:
            pass
