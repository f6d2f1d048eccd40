"""Smoke tests of tools/outputs_digest.py: the bit-identity printout and its
comparison of two printouts."""

import ast
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


def test_cold_lines_are_the_warm_ones(tool):
    # --cold clears every kept memo before each operation, so after each
    # cold line the memos hold only what that operation built; its lines
    # are the warm ones.
    memos = tool.kept_memos(oscquad)
    names = {f"{memo.__module__}.{memo.__name__}" for memo in memos}
    assert {"oscquad.problem._amplitude_series", "oscquad.filon._layout", "oscquad.benchcli._make_parser"} <= names
    warm = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 12))
    cold = []
    for line in islice(tool.operation_lines(oscquad, "points-hermite", 1, 1, cold=True), 12):
        cold.append(line)
        assert len(oscquad.filon._layout.cache) == 1
        assert len(oscquad.problem._amplitude_series.cache) <= 1
    assert cold == warm


def test_compare_counts_changed_values(tool):
    before = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 6))
    # The first line with the real part of its value moved by 2e-12.
    key, outcome = before[0].split(": ", 1)
    end = outcome.index("'", 1)
    value = complex(outcome[1:end])
    moved = repr(complex(value.real * (1.0 + 2e-12), value.imag))
    after = [f"{key}: '{moved}'{outcome[end + 1:]}"] + before[1:]
    assert after[0] != before[0]

    same = tool.compare(before, before)
    assert same.pop("lines") == (6, 0)
    assert sum(count for count, _, _ in same.values()) == 6
    assert all(changed == 0 and largest == 0.0 for _, changed, largest in same.values())

    result = tool.compare(before, after)
    assert result.pop("lines") == (6, 1)
    changed = {key: row for key, row in result.items() if row[1]}
    assert len(changed) == 1
    (workload, _, group), (_, count, largest) = next(iter(changed.items()))
    assert workload == "points-hermite" and group == "value" and count == 1
    assert 1e-12 < largest < 3e-12


def test_compare_splits_cli_values_from_errors(tool):
    # A CLI row whose error columns moved (a new reference) and whose values
    # did not is reported under "error" only.
    before = list(islice(tool.operation_lines(oscquad, "sweep-cli", 1, 1), 2))
    key, outcome = before[0].split(": ", 1)
    code, rows = ast.literal_eval(outcome)
    header = rows[0].split(",")
    fields = rows[1].split(",")
    col = header.index("abs_err")
    fields[col] = repr(float(fields[col]) * 2.0 + 1e-300)
    moved = (code, (rows[0], ",".join(fields), *rows[2:]))
    after = [f"{key}: {moved!r}"] + before[1:]

    result = tool.compare(before, after)
    assert result.pop("lines") == (2, 1)
    groups = {group for (_, _, group) in result}
    assert groups == {"value", "error"}
    changed = {k: row for k, row in result.items() if row[1]}
    assert list(changed) == [(k[0], k[1], "error") for k in changed]
    assert sum(row[1] for row in changed.values()) == 1
    values = [row for (_, _, group), row in result.items() if group == "value"]
    assert sum(row[0] for row in values) == len(rows) - 1 + sum(
        len(ast.literal_eval(line.split(": ", 1)[1])[1]) - 1 for line in before[1:]
    )
    assert all(row[1] == 0 for row in values)


def test_compare_skips_lines_that_are_not_operations(tool):
    # NumPy warnings captured with 2>&1 sit between the operation lines.
    before = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 4))
    warning = ["/x/problem.py:532: RuntimeWarning: divide by zero encountered in power",
               "  weight = x**spec.alpha"]
    noisy = before[:2] + warning + before[2:] + [f"sha256 {tool.digest(before)} over 4 operations"]
    assert tool.parse(noisy) == (tool.parse(before)[0], 2)
    assert tool.compare(noisy, before) == tool.compare(before, before)


def test_compare_exit_status(tool, tmp_path, capsys):
    # 0 for bit-identical printouts, 1 when any operation line differs.
    before = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 3))
    key, outcome = before[1].split(": ", 1)
    after = before[:1] + [f"{key}: {outcome} "] + before[2:]
    paths = []
    for name, lines in (("before.txt", before), ("after.txt", after)):
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(lines) + "\n")
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert tool.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 3 operation lines differ"


def test_compare_reports_diagnostics(tool, tmp_path, capsys):
    # A line whose diagnostics lost one key and gained another, beside an
    # unchanged value, is counted under "diagnostics" with both keys named.
    before = list(islice(tool.operation_lines(oscquad, "points-hermite", 1, 1), 3))
    key, outcome = before[1].split(": ", 1)
    value, diagnostics = outcome.split(" ", 1)
    moved = ast.literal_eval(diagnostics)
    dropped = next(iter(moved))
    moved["new_key"] = moved.pop(dropped)
    after = before[:1] + [f"{key}: {value} {moved!r}"] + before[2:]

    values = tool.compare(before, after)
    assert values.pop("lines") == (3, 1)
    assert all(row[1] == 0 for row in values.values())
    result = tool.compare_diagnostics(before, after)
    assert sum(row[0] for row in result.values()) == 3
    changed = [row for row in result.values() if row[1]]
    assert changed == [[changed[0][0], 1, ["new_key"], [dropped]]]
    assert all(row[1:] == [0, [], []] for row in tool.compare_diagnostics(before, before).values())

    paths = []
    for name, lines in (("before.txt", before), ("after.txt", after)):
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(lines) + "\n")
    assert tool.main(["--compare", *map(str, paths)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.split()[2:] == ["diagnostics", str(changed[0][0]), "1", "added", "new_key;", "removed",
                                    dropped] for line in out)


def test_compare_splits_point_rows_by_label(tool, tmp_path, capsys):
    # Point operations are grouped by method and problem label, so a value
    # moved on one label shows on that label's row alone, and every label
    # of the pass has its own value and diagnostics rows.
    desc = tool.wl.describe("points-physical", 1, 1)
    before = list(islice(tool.operation_lines(oscquad, "points-physical", 1, 1), 40))
    ops = [desc.ops[int(line.split(": ", 1)[0].rsplit("=", 1)[1])] for line in before]
    labels = [desc.problems[op.problem].label for op in ops]
    assert {"ex51", "custom-alg"} <= set(labels)
    i = labels.index("custom-alg")
    key, outcome = before[i].split(": ", 1)
    end = outcome.index("'", 1)
    value = complex(outcome[1:end])
    moved = repr(complex(value.real, value.imag * (1.0 + 4e-14) + 1e-300))
    after = before[:i] + [f"{key}: '{moved}'{outcome[end + 1:]}"] + before[i + 1:]

    result = tool.compare(before, after)
    assert result.pop("lines") == (40, 1)
    assert {method for _, method, _ in result} == {f"LEVIN_PHYSICAL:{label}" for label in labels}
    assert {method: count for (_, method, _), (count, _, _) in result.items()} == \
        {f"LEVIN_PHYSICAL:{label}": labels.count(label) for label in set(labels)}
    changed = {key: row for key, row in result.items() if row[1]}
    assert list(changed) == [("points-physical", "LEVIN_PHYSICAL:custom-alg", "value")]
    assert set(tool.compare_diagnostics(before, after)) == {("points-physical", method) for _, method, _ in result}

    paths = []
    for name, lines in (("before.txt", before), ("after.txt", after)):
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(lines) + "\n")
    assert tool.main(["--compare", *map(str, paths)]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["points-physical", "LEVIN_PHYSICAL:custom-alg", "value", str(labels.count("custom-alg")), "1"] in \
        [row[:5] for row in rows]
