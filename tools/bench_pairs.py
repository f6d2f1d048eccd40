"""Run alternating parent/change pairs of the benchmark and compare them.

From the root of a checkout of the repository:

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE --pairs 10 --seconds 25

runs ``perfbench/run.py --trace 0`` of each checkout (a directory holding
``perfbench/`` and ``src/``, such as a ``git archive`` of a commit) on
every workload of ``BENCHMARK.json``, ``--pairs`` times.  Pair i runs both
checkouts on seed ``--seed + i``, one after the other, the parent first in
odd pairs and the change first in even pairs.  Runs go one at a time.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the median and quartiles of each side, the number of pairs the
change won (its value better than the parent's in the metric's direction),
how far the change's median is worse than the parent's as a fraction of
the parent's median (negative when it is better), and whether that stays
within the metric's bound.  ``--claim WORKLOAD:METRIC`` also prints whether
a claimed gain holds: the change better in at least nine of ten pairs, and
the medians further apart than the parent's interquartile range.
``--json PATH`` writes every run and the summary.  Each run's record keeps
its ``# failures:`` line and, when its exit status is not 0, its last line
of standard error; the progress line of a run that fails or is not
``correct`` shows both.  The exit status is 1 when a run fails or a metric
leaves its bound, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    # One untraced run of a checkout's own benchmark, as its record.
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return record(proc.returncode, proc.stdout, proc.stderr)


FAILURES_PREFIX = "# failures: "


def record(exit_code: int, stdout: str, stderr: str) -> dict:
    """The record of one run from its exit status and output: the status,
    the ``correct``, ``attempted``, ``failed`` and metric values of the JSON
    object on its last line of output, its ``# failures:`` line (None when
    it prints none) and, when the status is not 0, its last line of
    standard error (else None)."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    failures = next((line[len(FAILURES_PREFIX):] for line in lines if line.startswith(FAILURES_PREFIX)), None)
    errors = stderr.strip().splitlines()
    return {
        "exit": exit_code,
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "failures": failures,
        "stderr": errors[-1] if exit_code != 0 and errors else None,
    }


def progress(run: dict) -> str:
    """The progress line of one run; a run that failed or is not correct
    also shows its failures line and its last line of standard error."""
    p50 = run["metrics"].get("latency_ms_p50", float("nan"))
    line = (f"# {run['workload']} pair {run['pair']} seed {run['seed']} {run['side']}: exit {run['exit']}, "
            f"correct {run['correct']}, latency_ms_p50 {p50:.4g}")
    if run["exit"] != 0 or not run["correct"]:
        line += f", failures {run['failures']}, stderr {run['stderr']}"
    return line


def _quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, (25, 50, 75))]


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and metric: each side's median and quartiles, the pairs
    the change won, and how far the change's median is worse than the
    parent's, against the metric's bound."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for p in pairs.values() if "parent" in p and "change" in p]
        table = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [(p["parent"][name], p["change"][name]) for p in both
                      if name in p["parent"] and name in p["change"]]
            if not values:
                continue
            parent, change = np.array(values).T
            pq, cq = _quartiles(parent), _quartiles(change)
            won = int(np.sum(change < parent if lower else change > parent))
            worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
            worse_frac = worse / abs(pq[1]) if pq[1] else (0.0 if worse <= 0 else float("inf"))
            table[name] = {
                "parent_median": pq[1], "parent_quartiles": pq,
                "change_median": cq[1], "change_quartiles": cq,
                "change_better_pairs": won, "pairs": len(values),
                "change_worse_by_frac": worse_frac, "bound": metric["bound"],
                "within_bound": bool(worse_frac <= metric["bound"]),
            }
        out[workload] = table
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """Whether the change's gain on one metric holds: better in at least
    nine of ten pairs, and medians further apart than the parent's
    interquartile range, in the metric's direction."""
    row = summary[workload][metric]
    q1, _, q3 = row["parent_quartiles"]
    difference = -row["change_worse_by_frac"] * abs(row["parent_median"])
    return {
        "workload": workload, "metric": metric,
        "parent_median": row["parent_median"], "change_median": row["change_median"],
        "change_better_pairs": row["change_better_pairs"], "pairs": row["pairs"],
        "parent_iqr": q3 - q1, "median_difference": difference,
        "met": bool(row["change_better_pairs"] >= 0.9 * row["pairs"] and difference > q3 - q1),
    }


def _print_summary(summary: dict) -> None:
    for workload, table in summary.items():
        print(f"# {workload}")
        print(f"  {'metric':16s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
              f"{'won':>6s} {'worse by':>9s} {'bound':>6s}")
        for name, row in table.items():
            p = "/".join(f"{v:.5g}" for v in row["parent_quartiles"])
            c = "/".join(f"{v:.5g}" for v in row["change_quartiles"])
            verdict = "ok" if row["within_bound"] else "OUT"
            print(f"  {name:16s} {p:>32s} {c:>32s} {row['change_better_pairs']:>3d}/{row['pairs']:<2d} "
                  f"{100 * row['change_worse_by_frac']:+8.2f}% {row['bound']:6g} {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="a workload to run (default: every one)")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--json", type=Path, help="write every run and the summary here")
    args = parser.parse_args(argv)

    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for position, side in enumerate(order):
                run = {"workload": workload, "pair": pair, "seed": seed, "side": side, "first": position == 0,
                       **_run(sides[side], workload, seed, seconds)}
                runs.append(run)
                print(progress(run), flush=True)

    summary = summarize(runs, bench["end_to_end"])
    _print_summary(summary)
    claims = [claim(summary, *spec.split(":", 1)) for spec in args.claim]
    for c in claims:
        print(f"# claim {c['workload']} {c['metric']}: {c['parent_median']:.5g} -> {c['change_median']:.5g}, "
              f"better in {c['change_better_pairs']} of {c['pairs']}, medians {c['median_difference']:.4g} apart "
              f"against a parent IQR of {c['parent_iqr']:.4g}: {'met' if c['met'] else 'not met'}")
    if args.json:
        args.json.write_text(json.dumps({"command": bench["command"], "seconds": seconds, "pairs": args.pairs,
                                         "claims": claims, "summary": summary, "runs": runs}, indent=1) + "\n")
    failed = any(r["exit"] != 0 or not r["correct"] for r in runs)
    out_of_bound = any(not row["within_bound"] for table in summary.values() for row in table.values())
    return 1 if failed or out_of_bound else 0


if __name__ == "__main__":
    sys.exit(main())
