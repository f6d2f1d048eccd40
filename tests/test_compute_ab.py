"""Smoke test of tools/compute_ab.py: two checkouts in one process,
alternating per operation."""

import importlib.util
import os
import sys
from pathlib import Path

import oscquad

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compute_ab.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compute_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _forget_perfbench(modules):
    # The perfbench modules the tool imported beside those in ``modules``.
    for name in set(sys.modules) - modules:
        path = getattr(sys.modules[name], "__file__", None)
        if path and Path(path).resolve().parent == ROOT / "perfbench":
            del sys.modules[name]


def test_same_checkout_on_both_sides(monkeypatch, capsys):
    # The tool loads the package twice beside the one this process already
    # imported, which stays in sys.modules; every operation runs on both
    # sides, and the same code gives the same outcomes.
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ, modules = dict(os.environ), set(sys.modules)
    try:
        tool = _tool()
        sides = {"parent": tool.load(ROOT), "change": tool.load(ROOT)}
        assert sys.modules["oscquad"] is oscquad
        assert len({id(oq) for oq, _ in sides.values()} | {id(oscquad)}) == 3
        times, differing, count = tool.run(sides, "points-physical", [1], 1)
        assert differing == 0 and count == len(times["LEVIN_PHYSICAL"]["change"]) > 0
        assert len(times["LEVIN_PHYSICAL"]["parent"]) == count
        assert tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "points-physical",
                          "--passes", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:3] == ["method", "ops", "parent"]
        assert lines[2].split()[:2] == ["LEVIN_PHYSICAL", str(count)]
        assert lines[-1] == f"0 of {count} operations differ in value or diagnostics"
    finally:
        os.environ.clear()
        os.environ.update(environ)
        _forget_perfbench(modules)


def test_times_per_problem_label(monkeypatch, capsys):
    # Beside the per-method rows, one row per problem label: each operation
    # is counted under its problem's label, built-in or custom, and the
    # printout gives those rows after a "problem" header.
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ, modules = dict(os.environ), set(sys.modules)
    try:
        tool = _tool()
        sides = {"parent": tool.load(ROOT), "change": tool.load(ROOT)}
        labels = {}
        times, _, count = tool.run(sides, "points-physical", [1], 1, labels)
        assert sorted(labels) == ["custom-alg", "custom-log", "ex51", "ex52", "ex53a", "ex53b"]
        for side in sides:
            assert sum(len(label[side]) for label in labels.values()) == count == len(times["LEVIN_PHYSICAL"][side])
        assert tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "points-physical",
                          "--passes", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].split()[:2] == ["problem", "ops"]
        rows = {line.split()[0]: int(line.split()[1]) for line in lines[4:-1]}
        assert rows == {label: len(lists["change"]) for label, lists in labels.items()}
    finally:
        os.environ.clear()
        os.environ.update(environ)
        _forget_perfbench(modules)
