"""Exact counting, enumeration and uniform sampling of triangulations and
pointed pseudo-triangulations of planar integer point sets.

Importing the package loads no submodule: each public name below is
imported from its defining module on first access (PEP 562), so a CLI
process compiles only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_SOURCE = {name: module for module, names in {
    "analysis": ("BoundSequence", "bound_sequence"),
    "errors": ("TricountError", "system_for"),
    "geom": ("PointSet", "validate_point_set"),
    "ptpath": ("PTPath", "TPath", "collect_paths", "extract_ptpath",
               "extract_tpath", "flip", "is_flippable", "is_good_edge",
               "is_pointed", "paths_cross", "pt_good_edge",
               "ptpath_successors", "tpath_successors",
               "validate_pseudotriangulation", "validate_ptpath",
               "validate_tpath"),
    "sampler": ("draws", "reconstruct"),
    "sweep": ("SweepStats", "run_sweep"),
}.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    # not cached here, so a name always is its module's current binding
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
