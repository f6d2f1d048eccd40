"""Smoke test of tools/outputs_digest.py, the bit-identity printout."""

import importlib.util
import os
import sys
from itertools import islice
from pathlib import Path

import pytest

import oscquad
import oscquad.benchcli  # noqa: F401  (the CLI operations run in-process)

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "outputs_digest.py"


@pytest.fixture
def tool(monkeypatch):
    # Loading the tool puts perfbench/ first on sys.path, imports perfbench's
    # modules under top-level names and sets the BLAS thread variables; all
    # of it is undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ = dict(os.environ)
    modules = set(sys.modules)
    spec = importlib.util.spec_from_file_location("outputs_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    os.environ.clear()
    os.environ.update(environ)
    perfbench = ROOT / "perfbench"
    for name in set(sys.modules) - modules:
        path = getattr(sys.modules[name], "__file__", None)
        if path and Path(path).resolve().parent == perfbench:
            del sys.modules[name]


def test_first_operations_of_a_pass_are_reproducible(tool):
    first = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 12))
    again = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 12))
    assert len(first) == 12
    assert all(line.startswith("points-hermite seed=1 pass=1 op=") for line in first)
    assert tool.digest(first) == tool.digest(again)
    assert len(tool.digest(first)) == 64

