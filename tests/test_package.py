import importlib
import json
import subprocess
import sys

import pytest

import tricount as tc

# modules a CLI process must not load for count and sample
LAZY = ("tricount.oracle", "tricount.analysis", "tricount.svg",
        "fractions", "dataclasses")


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
    assert {"tricount.sweep", "tricount.sampler"} <= loaded
    assert loaded.isdisjoint(LAZY), sorted(loaded & set(LAZY))


def test_lazy_exports_are_the_module_bindings():
    assert len(tc.__all__) == len(set(tc.__all__)) == 38
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
