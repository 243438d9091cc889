import ast
import importlib
import json
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import tricount as tc
from tricount import geom, oracle
from tricount.errors import InputError, ResourceRefusal

from conftest import FAN5, conv_points

SRC = Path(tc.__file__).parent

# modules `import tricount.cli` must not load: the engine (sweep, geom)
# serves both families, and sample loads its sampler
LAZY = ("tricount.oracle", "tricount.analysis", "tricount.svg",
        "tricount.sampler", "tricount.ptpath", "fractions", "dataclasses")

# exports that nothing in src/ calls: the paper's per-path and
# per-structure lemmas, kept as the tests' reference (README "Library"),
# and the pt validator that the benchmark's sample checker calls
NO_CALLER_IN_SRC = {
    "tpath_successors", "ptpath_successors", "paths_cross", "is_good_edge",
    "is_flippable", "pt_good_edge", "flip", "is_pointed", "reconstruct",
    "collect_paths", "extract_tpath", "extract_ptpath",
    "validate_pseudotriangulation"}


def _loaded_modules(code: str) -> set[str]:
    # the list is taken before json is imported to print it
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; loaded = sorted(sys.modules); "
         "import json; print(json.dumps(loaded))"],
        capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def _cli_modules(tmp_path, argv) -> set[str]:
    """Modules loaded by a fresh process running the CLI on FAN5 as a text
    point file, beyond what the interpreter preloads (site hooks)."""
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in FAN5))
    argv = [argv[0], str(f), *argv[1:]]
    # the command's own output goes to a buffer, not into the module list
    return _loaded_modules(
        "import io, sys; from tricount.cli import main; "
        "out, sys.stdout = sys.stdout, io.StringIO(); "
        f"assert main({argv!r}) == 0; sys.stdout = out"
    ) - _loaded_modules("pass")


def test_cli_import_loads_only_the_engine():
    # whatever the interpreter preloads on this host (site hooks) is ignored
    preloaded = _loaded_modules("pass")
    loaded = _loaded_modules("import tricount.cli") - preloaded
    assert {"tricount.sweep", "tricount.geom"} <= loaded
    assert loaded.isdisjoint(LAZY), sorted(loaded & set(LAZY))


def test_oracle_imports_only_the_kernel():
    # the brute-force reference shares no code with the engine it checks
    preloaded = _loaded_modules("pass")
    loaded = _loaded_modules("import tricount.oracle") - preloaded
    assert {"tricount.oracle", "tricount.geom"} <= loaded
    assert "tricount.sweep" not in loaded


RUNS = {"count": "sweep", "sample": "sampler", "enumerate": "oracle"}


@pytest.mark.parametrize("command,family", [("count", "tri"),
                                            ("count", "pt"),
                                            ("sample", "tri"),
                                            ("sample", "pt"),
                                            ("enumerate", "tri"),
                                            ("enumerate", "pt")])
def test_count_and_sample_do_not_load_ptpath(tmp_path, command, family):
    # the whole engine lives in sweep, the sampler checks pt draws itself,
    # and the oracle is the reference the lemma API is tested against: no
    # command loads the lemma API
    loaded = _cli_modules(tmp_path, [command, "--structure", family])
    assert f"tricount.{RUNS[command]}" in loaded
    assert "tricount.ptpath" not in loaded


@pytest.mark.parametrize("argv", [["count"], ["count", "--structure", "pt"],
                                  ["sample", "--count", "3"],
                                  ["sample", "--structure", "pt"]])
def test_count_and_sample_do_not_load_json(tmp_path, argv):
    # json is imported only where JSON is read or written: a JSON point
    # file, render's input files, count --stats and enumerate; sample
    # writes its JSON by hand
    loaded = _cli_modules(tmp_path, argv)
    assert "tricount.sweep" in loaded
    assert "json" not in loaded


def test_lazy_exports_are_the_module_bindings():
    assert len(tc.__all__) == len(set(tc.__all__)) == 28
    for name in tc.__all__:
        module = importlib.import_module(f"tricount.{tc._SOURCE[name]}")
        assert getattr(tc, name) is getattr(module, name), name


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names and attributes a module reads, each module-level definition
    left out of its own references (a recursive call is no caller)."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            own = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            own = set()
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
        names |= found - own
    return names


def test_every_export_has_a_caller():
    # ROADMAP's design aim: no public helper without a caller in src/
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(ast.parse(path.read_text()))
    assert NO_CALLER_IN_SRC <= set(tc.__all__)
    orphans = set(tc.__all__) - used - NO_CALLER_IN_SRC
    assert not orphans, sorted(orphans)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tricount import *", namespace)
    for name in tc.__all__:
        assert namespace[name] is getattr(tc, name)


def test_readme_library_block_runs(capsys):
    # README's Library example, run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("\n## Library\n", 1)[1] \
        .split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(code, scope)
    assert scope["count"] == 8
    assert tc.run_sweep(tc.TRI_SYSTEM, scope["P"])[0] == 3
    assert [r.f for r in scope["rows"]] == [0, 1, 3, 13, 67, 381, 2307]
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tc.no_such_name
    with pytest.raises(ImportError):
        exec("from tricount import no_such_name", {})


COUNT_PARAMETERS = {
    "draws-m": lambda P, v: tc.draws(P, "tri", 0, v),
    "draws-max_table_entries": lambda P, v: tc.draws(
        P, "tri", 0, 1, max_table_entries=v),
    "draws-seed": lambda P, v: tc.draws(P, "tri", v, 1),
    "bound_sequence-K": lambda P, v: tc.bound_sequence(v),
    "enumerate_structures-cap": lambda P, v: oracle.enumerate_structures(
        P, "tri", cap=v),
}


@pytest.mark.parametrize("value", [True, 2.5, "3", -1])
@pytest.mark.parametrize("name", sorted(COUNT_PARAMETERS))
def test_count_parameters_refuse_a_non_int(fan5, name, value):
    # refused at the call, never read as 1 (True), used until a later
    # TypeError (2.5, "3"), or put into a refusal of another kind; a seed
    # is never read as another seed's stream (random.Random takes abs(-1))
    with pytest.raises(ValueError, match="must be a nonnegative int$") as exc:
        COUNT_PARAMETERS[name](fan5, value)
    assert exc.value.exit_code == 2


# a triangulation of conv5 (a fan from vertex 0), which is also its
# pseudo-triangulation: (1, 3) is no edge of it, (0, 1) a hull edge that
# does not cross l_2; CONV5_FAN_PATHS are its paths at l_1 .. l_4 in both
# families
CONV5_FAN = frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3),
                       (3, 4)})
CONV5_FAN_PATHS = [(1, 0, 4), (1, 2, 0, 4), (2, 3, 0, 4), (3, 4, 0)]
# every segment of conv5, which no structure is
K5 = frozenset(combinations(range(5), 2))
# more digits than str() converts by default (4300), and how a message
# names it
BIG = 10 ** 5000
HUGE = "<int of 16610 bits>"

LIBRARY_REFUSALS = {
    "flip-non-edge": ("edge (1, 3) not in the structure",
                      lambda P: tc.flip(CONV5_FAN, (1, 3), P)),
    "is_flippable-non-edge": (
        "edge (1, 3) not in the structure",
        lambda P: tc.is_flippable(CONV5_FAN, (1, 3), P)),
    "is_good_edge-non-edge": (
        "edge (1, 3) not in the structure",
        lambda P: tc.is_good_edge(CONV5_FAN, (1, 3), 2, P)),
    # an edge set that is no structure of the family, read before its
    # faces or its crossing order
    "flip-non-structure": ("edge set is not a triangulation",
                           lambda P: tc.flip(K5, (0, 2), P)),
    "is_flippable-non-structure": (
        "edge set is not a triangulation",
        lambda P: tc.is_flippable(K5, (0, 2), P)),
    "is_good_edge-non-structure": (
        "edge set is not a triangulation",
        lambda P: tc.is_good_edge(K5, (0, 2), 1, P)),
    "pt_good_edge-non-structure": (
        "edge set is not a pseudo-triangulation",
        lambda P: tc.pt_good_edge(frozenset({(1, 3)}), (1, 3), 2, P)),
    "flip-hull-edge": ("edge (0, 1) is not flippable",
                       lambda P: tc.flip(CONV5_FAN, (0, 1), P)),
    "is_good_edge-not-crossing": (
        "edge (0, 1) does not cross l_2",
        lambda P: tc.is_good_edge(CONV5_FAN, (0, 1), 2, P)),
    "pt_good_edge-not-crossing": (
        "edge (0, 1) does not cross l_2",
        lambda P: tc.pt_good_edge(CONV5_FAN, (0, 1), 2, P)),
    "reconstruct-crossing": (
        "tuple union has crossing edges",
        lambda P: tc.reconstruct([(1, 0, 4), (3, 0, 2, 1, 4)], P, "tri")),
    # spokes from FAN5's interior point 2 to 0, 3 and 4 leave no gap above pi
    "reconstruct-unpointed": (
        "tuple union is not pointed",
        lambda P: tc.reconstruct([(0, 2, 4), (2, 3)],
                                 tc.validate_point_set(FAN5), "pt")),
    # a caller's partial pt tuple is bad input, not a bug
    "reconstruct-one-path": (
        "not a pseudo-triangulation: not_maximal",
        lambda P: tc.reconstruct([(1, 0, 4)], P, "pt")),
    # a tri tuple is completed, so a tuple that is not one path a line, in
    # line order, is refused after the completion, not read as its union
    "reconstruct-empty": ("tuple is not its structure's paths",
                          lambda P: tc.reconstruct([], P, "tri")),
    "reconstruct-last-dropped": (
        "tuple is not its structure's paths",
        lambda P: tc.reconstruct(CONV5_FAN_PATHS[:-1], P, "tri")),
    "reconstruct-reversed": (
        "tuple is not its structure's paths",
        lambda P: tc.reconstruct(CONV5_FAN_PATHS[::-1], P, "pt")),
    "system_for": ("unknown family 'xyz'",
                   lambda P: tc.system_for("xyz")),
    "enumerate_structures": (
        "unknown family 'xyz'",
        lambda P: oracle.enumerate_structures(P, "xyz")),
    "validate_point_set-collinear": (
        "collinear triple",
        lambda P: tc.validate_point_set([(0, 0), (1, 1), (2, 2)])),
    "validate_point_set-duplicate": (
        "duplicate point",
        lambda P: tc.validate_point_set([(0, 0), (0, 0), (1, 5)])),
    "validate_point_set-too-few": (
        "need at least 3 points",
        lambda P: tc.validate_point_set([(0, 0), (1, 5)])),
    "validate_point_set-non-integer": (
        "non-integer coordinate",
        lambda P: tc.validate_point_set([(0, 0), (2.5, 5), (3, 1)])),
    # a value that is no collection, where a door expects one, is refused
    # by name in the door, not left to a TypeError
    "PointSet-non-collection": ("not a collection: 5",
                                lambda P: tc.PointSet(5)),
    "validate_point_set-non-collection": (
        "not a collection: None", lambda P: tc.validate_point_set(None)),
    "edge_masks-non-collection": ("not a collection: 5",
                                  lambda P: P.edge_masks(5)),
    "check_vertices-non-collection": ("not a collection: 5",
                                      lambda P: P.check_vertices(5)),
    "reconstruct-non-collection": (
        "not a collection: 5", lambda P: tc.reconstruct(5, P, "tri")),
    "reconstruct-non-collection-key": (
        "not a collection: 5", lambda P: tc.reconstruct([5], P, "tri")),
    "paths_cross-non-collection": (
        "not a collection: 5", lambda P: tc.paths_cross(5, (0, 1), P)),
    # and through those doors
    "validate_pseudotriangulation-non-collection": (
        "not a collection: 5",
        lambda P: tc.validate_pseudotriangulation(5, P)),
    "extract_tpath-non-collection": (
        "not a collection: 5", lambda P: tc.extract_tpath(5, 1, P)),
    "flip-non-collection": ("not a collection: 5",
                            lambda P: tc.flip(5, (0, 1), P)),
    "is_pointed-non-collection": ("not a collection: 5",
                                  lambda P: tc.is_pointed(5, 0, P)),
    "validate_tpath-non-collection": (
        "not a collection: 5",
        lambda P: tc.validate_tpath(tc.TPath(5, 1), P)),
    # an int beyond the int-to-str digit limit is named by its size, so
    # the refusal does not fail on its own message
    "check_vertices-huge": (f"not a vertex: {HUGE}",
                            lambda P: P.check_vertices([BIG])),
    "edge_masks-huge-pair": (f"not a segment: ({HUGE}, 1)",
                             lambda P: P.edge_masks([(BIG, 1)])),
    "edge_masks-huge-triple": ("not a segment: <unprintable tuple>",
                               lambda P: P.edge_masks([(BIG, 1, 2)])),
    "PointSet-huge": (f"not a collection: {HUGE}", lambda P: tc.PointSet(BIG)),
    "hull_crossing_edges-huge": (
        f"not a sweep line: {HUGE} (1..4)",
        lambda P: geom.hull_crossing_edges(P, BIG)),
    "seg-huge": (f"not a segment: ({HUGE}, {HUGE})",
                 lambda P: geom.seg(BIG, BIG)),
    "validate_point_set-huge-non-integer": (
        "non-integer coordinate 2.5 in <unprintable tuple>",
        lambda P: tc.validate_point_set([(0, 0), (1, 2), (2.5, BIG)])),
    "validate_point_set-huge-non-pair": (
        f"expected an (x, y) pair, got {HUGE}",
        lambda P: tc.validate_point_set([(0, 0), BIG])),
    "validate_point_set-huge-duplicate": (
        "duplicate point <unprintable tuple>",
        lambda P: tc.validate_point_set([(BIG, 0), (BIG, 0), (0, 1)])),
    "PointSet-huge-out-of-order": (
        "points out of order: <unprintable tuple> before (0, 1)",
        lambda P: tc.PointSet([(BIG, 0), (0, 1), (1, 1)])),
    "validate_point_set-huge-collinear": (
        "collinear triple (0, 0), <unprintable tuple>, <unprintable tuple>",
        lambda P: tc.validate_point_set([(0, 0), (BIG, 0), (2 * BIG, 0)])),
    "is_pointed-huge": (f"not a vertex: {HUGE}",
                        lambda P: tc.is_pointed(CONV5_FAN, BIG, P)),
    "validate_tpath-huge": (
        f"not a vertex: {HUGE}",
        lambda P: tc.validate_tpath(tc.TPath((0, BIG, 4), 1), P)),
    "flip-huge": (f"not a segment: ({HUGE}, 1)",
                  lambda P: tc.flip(CONV5_FAN, (BIG, 1), P)),
    "PTPath-edges-huge": (f"not a segment: ({HUGE}, {HUGE})",
                          lambda P: tc.PTPath((BIG, BIG), 1).edges()),
    "system_for-huge": (f"unknown family {HUGE}",
                        lambda P: tc.system_for(BIG)),
    "enumerate_structures-huge": (
        f"unknown family {HUGE}",
        lambda P: oracle.enumerate_structures(P, BIG)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_REFUSALS))
def test_library_refusals_are_input_errors(conv5, name):
    # one class per exit code: every refusal of a library call's argument
    # is an InputError, so a ValueError that the CLI exits 2 on
    message, call = LIBRARY_REFUSALS[name]
    with pytest.raises(InputError, match=re.escape(message)) as exc:
        call(conv5)
    assert isinstance(exc.value, ValueError)
    assert exc.value.exit_code == 2


# every size guard, cap and budget of the library, each with its message
RESOURCE_REFUSALS = {
    "tri-oracle-guard": (
        "n=13 exceeds triangulation oracle guard 12",
        lambda P: oracle.enumerate_structures(
            tc.validate_point_set(conv_points(13)), "tri")),
    "pt-oracle-guard": (
        "n=11 exceeds pseudo-triangulation oracle guard 10",
        lambda P: oracle.enumerate_structures(
            tc.validate_point_set(conv_points(11)), "pt")),
    "oracle-cap": ("more than 1 structures",
                   lambda P: oracle.enumerate_structures(P, "tri", cap=1)),
    "sample-guard": ("m=100001 exceeds sample guard 100000",
                     lambda P: tc.draws(P, "tri", 0, 100_001)),
    "table-budget": ("path tables exceed 1 entries",
                     lambda P: tc.draws(P, "tri", 0, 1, max_table_entries=1)),
    "sequence-guard": ("K=1001 exceeds sequence guard 1000",
                       lambda P: tc.bound_sequence(1001)),
    "sample-guard-huge": (f"m={HUGE} exceeds sample guard 100000",
                          lambda P: tc.draws(P, "tri", 0, BIG)),
    "sequence-guard-huge": (f"K={HUGE} exceeds sequence guard 1000",
                            lambda P: tc.bound_sequence(BIG)),
}


@pytest.mark.parametrize("name", sorted(RESOURCE_REFUSALS))
def test_resource_refusals_exit_3(conv5, name):
    # one class per exit code: every guard, cap and budget is a
    # ResourceRefusal, never an InputError, so the CLI exits 3 on it
    message, call = RESOURCE_REFUSALS[name]
    with pytest.raises(ResourceRefusal, match=re.escape(message)) as exc:
        call(conv5)
    assert not isinstance(exc.value, InputError)
    assert exc.value.exit_code == 3
