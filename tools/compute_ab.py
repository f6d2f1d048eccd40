"""Time one workload's operations on two checkouts in one process.

From the root of a checkout of the repository:

    python3 tools/compute_ab.py --parent PARENT --change CHANGE --workload points-physical

imports the oscquad package of ``PARENT/src`` and of ``CHANGE/src`` side by
side in one process (each a fresh import with every module loaded), and runs
the operations of passes 1 to ``--passes`` of the workload for each seed of
``--seeds``, from this checkout's ``perfbench/workloads.py``, in the order
the benchmark runs them.  Each operation runs once on each side, one right
after the other, the parent first on even operations and the change first on
odd ones, and only the ``workloads.run_op`` call is timed.  Every kept table
of both packages is cleared before each pass, so both sides start a pass in
the same state.  Alternating per operation puts both sides under the same
machine load, which whole benchmark runs taken one after the other do not.

It prints, per method (or CLI command), each side's median and mean time
in microseconds and the change's relative difference (negative when the
change is faster), then how many operations give a different outcome,
value or diagnostics, by ``tools/outputs_digest.py``'s printout of an
operation, taken apart from the timed call.  The exit status is 0 whatever
the timings and outcomes are, and 2 when a checkout cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _digest_tool():
    # tools/outputs_digest.py, which puts perfbench/ on sys.path and fixes
    # the BLAS environment before NumPy is imported.
    spec = importlib.util.spec_from_file_location("outputs_digest", HERE / "tools" / "outputs_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _digest_tool()
wl = digest.wl


def _is_program(name: str) -> bool:
    return name == "oscquad" or name.startswith("oscquad.")


def load(root: Path) -> tuple:
    """``(oq, memos)``: a fresh import of the oscquad package of
    ``root/src`` with every module loaded, and every kept memo of it.
    sys.modules and sys.path are left as they were, so two checkouts, or a
    checkout and the package a caller already imported, live side by side."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_program(name)}
    path = list(sys.path)
    try:
        oq = digest.import_program(root)
        # Reads every module's names, so modules loaded on first use load now.
        memos = digest.kept_memos(oq)
    finally:
        for name in [name for name in sys.modules if _is_program(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path
    return oq, memos


def _timed(oq, specs, op) -> float:
    # Seconds of one workloads.run_op call; an operation that raises is
    # timed too, and its error shows in the outcomes.
    start = time.perf_counter()
    try:
        wl.run_op(oq, specs, op)
    except Exception:  # noqa: BLE001  (the outcome comparison reports it)
        pass
    return time.perf_counter() - start


def run(sides: dict, workload: str, seeds, passes: int) -> tuple:
    """``(times, differing, count)``: per method or command, each side's
    list of seconds; the number of operations whose outcomes differ; and the
    number of operations run."""
    times = defaultdict(lambda: {side: [] for side in sides})
    differing = count = 0
    for seed in seeds:
        for pass_index in range(1, passes + 1):
            desc = wl.describe(workload, seed, pass_index)
            specs = {}
            for side, (oq, memos) in sides.items():
                for memo in memos:
                    memo.cache.clear()
                specs[side] = wl.materialize(oq, desc)
            for i, idx in enumerate(desc.order):
                op = desc.ops[idx]
                key = op.command if isinstance(op, wl.CliOp) else op.method
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    times[key][side].append(_timed(sides[side][0], specs[side], op))
                outcomes = {digest._outcome(oq, specs[side], op) for side, (oq, _) in sides.items()}
                differing += len(outcomes) > 1
                count += 1
    return times, differing, count


def _row(name: str, parent: list, change: list) -> str:
    p50, c50 = statistics.median(parent) * 1e6, statistics.median(change) * 1e6
    pmean, cmean = statistics.fmean(parent) * 1e6, statistics.fmean(change) * 1e6
    return (f"{name:<16}{len(parent):>6}{p50:>12.1f}{c50:>12.1f}{c50 / p50 - 1:>+9.1%}"
            f"{pmean:>12.1f}{cmean:>12.1f}{cmean / pmean - 1:>+9.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout holding the parent's src/")
    parser.add_argument("--change", type=Path, required=True, help="checkout holding the change's src/")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds (default: 1)")
    parser.add_argument("--passes", type=int, default=8, help="timed passes per seed (default: 8)")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    try:
        sides = {"parent": load(args.parent), "change": load(args.change)}
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    times, differing, count = run(sides, args.workload, seeds, args.passes)
    print(f"# {args.workload}, seeds {args.seeds}, passes 1-{args.passes}: times in us, "
          "relative change of the change against the parent")
    print(f"{'method':<16}{'ops':>6}{'parent p50':>12}{'change p50':>12}{'p50':>9}"
          f"{'parent mean':>12}{'change mean':>12}{'mean':>9}")
    for key in sorted(times):
        print(_row(key, times[key]["parent"], times[key]["change"]))
    print(f"{differing} of {count} operations differ in value or diagnostics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
