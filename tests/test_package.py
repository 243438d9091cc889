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
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


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
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in FAN5))
    argv = [command, str(f), "--structure", family]
    # the command's own output goes to a buffer, not into the module list
    loaded = _loaded_modules(
        "import io, sys; from tricount.cli import main; "
        "out, sys.stdout = sys.stdout, io.StringIO(); "
        f"assert main({argv!r}) == 0; sys.stdout = out")
    assert f"tricount.{'sampler' if command == 'sample' else 'sweep'}" \
        in loaded
    assert "tricount.ptpath" not in loaded


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
