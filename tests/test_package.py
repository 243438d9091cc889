import importlib
import json
import subprocess
import sys

import pytest

import tricount as tc

from conftest import FAN5

# modules `import tricount.cli` must not load: the engine (sweep, tpath,
# geom) serves both families, and sample loads its sampler
LAZY = ("tricount.oracle", "tricount.analysis", "tricount.svg",
        "tricount.sampler", "tricount.ptpath", "fractions", "dataclasses")


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
    assert {"tricount.sweep", "tricount.tpath"} <= loaded
    assert loaded.isdisjoint(LAZY), sorted(loaded & set(LAZY))


@pytest.mark.parametrize("command,family", [("count", "pt"),
                                            ("sample", "tri"),
                                            ("sample", "pt")])
def test_count_and_sample_do_not_load_ptpath(tmp_path, command, family):
    # the pt engine lives in tpath, and the sampler checks pt draws itself
    loaded = _cli_modules(tmp_path, [command, "--structure", family])
    assert f"tricount.{'sampler' if command == 'sample' else 'sweep'}" \
        in loaded
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
    assert len(tc.__all__) == len(set(tc.__all__)) == 34
    for name in tc.__all__:
        module = importlib.import_module(f"tricount.{tc._SOURCE[name]}")
        assert getattr(tc, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tricount import *", namespace)
    for name in tc.__all__:
        assert namespace[name] is getattr(tc, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tc.no_such_name
    with pytest.raises(ImportError):
        exec("from tricount import no_such_name", {})
