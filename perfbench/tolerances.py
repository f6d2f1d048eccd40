"""Measure the correctness check's tolerances and write ``tolerances.json``.

From the root of a checkout of the repository:

    python3 perfbench/tolerances.py --seeds 1000 1019 --passes 2 --jobs 2

For every workload, seed and pass it draws the problem instances of that pass
(the same generator the benchmark uses), computes each instance's reference
once and then every (method, n, s) the workload runs on that kind of problem.
Each value's digits (-log10 of the relative error) are collected by cell:
method, n, s and the decade of the phase |w| g(a) (``workloads.cell``).

A cell's tolerance is its worst relative error times
``10**TOLERANCE_MARGIN_DIGITS``, capped at ``LOOSE_TOL``.  A cell whose worst
error times 10 exceeds ``LOOSE_TOL`` is unconverged: its tolerance is null
and its values are checked for finiteness only.  A cell with fewer than
``MIN_SAMPLES`` values gets ``LOOSE_TOL`` (or null when unconverged).  Use
seeds that the benchmark's recorded runs do not use.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from collections import defaultdict
from pathlib import Path

import run  # noqa: F401  (sets the fixed environment before NumPy loads)
import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_SAMPLES = 20


def _oscquad():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oscquad

    return oscquad


def _configs(desc) -> dict:
    """Label -> the (method value, n, s) the workload runs on that label."""
    out = defaultdict(set)
    for op in desc.ops:
        if isinstance(op, wl.CliOp):
            ns = [int(x) for x in op.argv[op.argv.index("--n") + 1].split(",")]
            methods = ("levin-physical", "cmfp") if op.command == "compare" else ("levin-physical",)
            out[op.problem].update((m, n, 0) for m in methods for n in ns)
        else:
            out[desc.problems[op.problem].label].add((wl.METHOD_VALUES[op.method], op.n, op.s))
    return out


def _linear_oscillator(spec) -> bool:
    # benchcli's compare runs CMFP only for a linear oscillator.
    poly = spec.oscillator.poly
    return poly is not None and np.trim_zeros(np.asarray(poly), "b").size <= 2


def measure(task) -> list:
    """``(cell, digits)`` for every value of one pass."""
    workload, seed, pass_index = task
    oq = _oscquad()
    desc = wl.describe(workload, seed, pass_index)
    configs = _configs(desc)
    out = []
    for p in desc.problems:
        spec = wl.build_spec(oq, p)
        ref, _ = wl.reference(oq, spec)
        phase = abs(p.w) * wl.g_end(p)
        for method, n, s in sorted(configs[p.label]):
            if method == "cmfp" and not _linear_oscillator(spec):
                continue
            value = oq.compute(spec, oq.Method(method), n, s).value
            if np.isfinite(value) and np.isfinite(ref):  # a non-finite value fails the check anyway
                out.append((wl.cell(method, n, s, phase), wl.digits(complex(value), ref)))
    return out


def tolerance_of(worst_digits: float, samples: int):
    worst_rel = 10.0 ** -worst_digits
    if worst_rel * 10.0 > wl.LOOSE_TOL:
        return None
    if samples < MIN_SAMPLES:
        return wl.LOOSE_TOL
    return min(worst_rel * 10.0 ** wl.TOLERANCE_MARGIN_DIGITS, wl.LOOSE_TOL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--passes", type=int, default=1, help="passes per seed, from pass 1")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--output", type=Path, default=wl.TOLERANCE_FILE)
    args = parser.parse_args(argv)
    tasks = [(w, seed, k) for w in wl.WORKLOADS for seed in range(args.seeds[0], args.seeds[1] + 1)
             for k in range(1, args.passes + 1)]
    samples = defaultdict(list)
    with multiprocessing.Pool(max(1, args.jobs)) as pool:
        for done, result in enumerate(pool.imap_unordered(measure, tasks), 1):
            for key, d in result:
                samples[key].append(d)
            print(f"# {done}/{len(tasks)} passes measured", file=sys.stderr, flush=True)
    cells = {}
    for key in sorted(samples):
        worst = float(min(samples[key]))
        cells[key] = {"samples": len(samples[key]), "worst_digits": round(worst, 3),
                      "tol": tolerance_of(worst, len(samples[key]))}
    table = {"seeds": args.seeds, "passes": args.passes, "margin_digits": wl.TOLERANCE_MARGIN_DIGITS,
             "loose_tol": wl.LOOSE_TOL, "min_samples": MIN_SAMPLES, "cells": cells}
    args.output.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cells)} cells written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
