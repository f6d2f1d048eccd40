"""tools/bench_pairs.py: the summary of parent/change pairs and its claim
check, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

METRICS = [
    {"name": "latency_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "better": "higher", "bound": 0.025},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, ok=(1.0, 1.0)):
    # One pair per entry of ``parent`` and ``change``, their latencies, with
    # the parent's and the change's ok_frac from ``ok``.
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value, frac in (("parent", p, ok[0]), ("change", c, ok[1])):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "metrics": {"latency_ms_p50": value, "ok_frac": frac}})
    return runs


def test_medians_quartiles_and_wins(tool):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.8, 0.9, 1.0, 1.5, 1.2]
    row = tool.summarize(_runs(parent, change), METRICS)["w"]["latency_ms_p50"]
    assert row["parent_quartiles"] == pytest.approx([1.1, 1.2, 1.3])
    assert row["change_quartiles"] == pytest.approx([0.9, 1.0, 1.2])
    assert row["change_better_pairs"] == 4 and row["pairs"] == 5
    assert row["change_worse_by_frac"] == pytest.approx(-0.2 / 1.2)
    assert row["within_bound"]


def test_bound_in_the_metric_direction(tool):
    # Lower is better for latency, higher for ok_frac: a higher latency and
    # a lower ok_frac are worse.
    table = tool.summarize(_runs([1.0] * 3, [1.4] * 3, ok=(1.0, 0.9)), METRICS)["w"]
    assert table["latency_ms_p50"]["change_worse_by_frac"] == pytest.approx(0.4)
    assert not table["latency_ms_p50"]["within_bound"]
    assert table["ok_frac"]["change_worse_by_frac"] == pytest.approx(0.1)
    assert table["ok_frac"]["change_better_pairs"] == 0 and not table["ok_frac"]["within_bound"]
    table = tool.summarize(_runs([1.0] * 3, [0.9] * 3, ok=(0.99, 1.0)), METRICS)["w"]
    assert table["latency_ms_p50"]["change_better_pairs"] == 3 and table["latency_ms_p50"]["within_bound"]
    assert table["ok_frac"]["change_better_pairs"] == 3 and table["ok_frac"]["within_bound"]


def test_claim_needs_nine_of_ten_and_more_than_the_iqr(tool):
    parent = [1.0 + 0.01 * i for i in range(10)]
    summary = tool.summarize(_runs(parent, [p - 0.5 for p in parent]), METRICS)
    assert tool.claim(summary, "w", "latency_ms_p50")["met"]
    # Better in every pair, but by less than the parent's spread.
    summary = tool.summarize(_runs(parent, [p - 0.01 for p in parent]), METRICS)
    assert not tool.claim(summary, "w", "latency_ms_p50")["met"]
    # Far better in the median, but in 8 of 10 pairs only.
    change = [p - 0.5 for p in parent[:8]] + [p + 0.5 for p in parent[8:]]
    summary = tool.summarize(_runs(parent, change), METRICS)
    assert summary["w"]["latency_ms_p50"]["change_better_pairs"] == 8
    assert not tool.claim(summary, "w", "latency_ms_p50")["met"]


CANNED_STDOUT = """# latency_ms_p50 = 0.243 ms
# failures: {"points-physical/LEVIN_PHYSICAL/n=24: 3.8e-09 > 3.2e-09": 1}
{"correct": false, "attempted": 640, "failed": 0, "metrics": {"latency_ms_p50": {"value": 0.243, "unit": "ms"}}}
"""


def test_record_keeps_the_failures_and_last_stderr_line(tool):
    # A run that completes but is not correct: its failures line is kept
    # and shown, and standard error is not read at exit status 0.
    run = tool.record(0, CANNED_STDOUT, "a warning\n")
    assert (run["correct"], run["attempted"], run["metrics"]) == (False, 640, {"latency_ms_p50": 0.243})
    assert run["failures"] == '{"points-physical/LEVIN_PHYSICAL/n=24: 3.8e-09 > 3.2e-09": 1}'
    assert run["stderr"] is None
    line = tool.progress({"workload": "w", "pair": 1, "seed": 4406, "side": "parent", **run})
    assert line.endswith("correct False, latency_ms_p50 0.243, "
                         'failures {"points-physical/LEVIN_PHYSICAL/n=24: 3.8e-09 > 3.2e-09": 1}, stderr None')
    # A run that stops: no result line, and its last line of standard error.
    run = tool.record(1, "# setup\n", "Traceback (most recent call last):\n  ...\nImportError: no oscquad\n\n")
    assert (run["exit"], run["correct"], run["failures"]) == (1, None, None)
    assert run["stderr"] == "ImportError: no oscquad"
    assert tool.progress({"workload": "w", "pair": 2, "seed": 2, "side": "change", **run}).endswith(
        "failures None, stderr ImportError: no oscquad")
    # A correct run's progress line carries neither.
    run = tool.record(0, CANNED_STDOUT.replace("false", "true"), "")
    assert run["correct"] and "failures" not in tool.progress({"workload": "w", "pair": 1, "seed": 1,
                                                               "side": "change", **run})
