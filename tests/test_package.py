"""Package metadata and the names the benchmark tracer binds."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import oscquad

ROOT = Path(__file__).resolve().parent.parent


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert oscquad.__version__ == meta["project"]["version"]


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps every name in TARGETS; a renamed or deleted
    # function would make every traced benchmark run fail to install.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, names in tracer.TARGETS.values():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = hasattr(module, name)
            if not found:
                missing.append(f"{modname}.{name}")
    assert not missing


def test_submodule_all_names_resolve():
    # A stale __all__ entry makes ``from oscquad.<module> import *`` fail.
    import pkgutil

    missing = []
    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    missing += [name for name in oscquad.__all__ if not hasattr(oscquad, name)]
    assert not missing
