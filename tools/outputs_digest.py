"""Print every benchmark operation's outputs and their sha256 digest.

From the root of a checkout of the repository:

    python3 tools/outputs_digest.py --root PATH

runs passes 1 and 2 of every workload of ``perfbench/`` for seeds 1 and 2,
in one process and in the benchmark's order, on the oscquad package under
``PATH/src`` (default: this checkout).  The workloads always come from this
checkout's ``perfbench/``, so two checkouts are measured on the same
operations.  Each operation prints one line: its ``workloads.comparable``
outcome (floats through ``repr``, so any difference in the last bit shows)
and, for point operations, the ``repr`` of the result's diagnostics.  The
last line is the sha256 digest of the operation lines.  Two checkouts give
bit-identical outputs when a ``diff`` of their printouts is empty.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import run  # noqa: E402,F401  (fixes the BLAS environment before NumPy is imported)
import workloads as wl  # noqa: E402

SEEDS = (1, 2)
PASSES = (1, 2)


def _outcome(oq, specs, op):
    # Every operation runs through the benchmark's own workloads.run_op; a
    # point operation's diagnostics come from the result of the compute call
    # it makes, captured on the way.
    results = []
    compute = oq.compute

    def capture(*args, **kwargs):
        results.append(compute(*args, **kwargs))
        return results[-1]

    oq.compute = capture
    try:
        outcome = repr(wl.comparable(wl.run_op(oq, specs, op)))
    except Exception as exc:  # an operation that raises prints its error
        return repr(wl.comparable(exc))
    finally:
        oq.compute = compute
    if isinstance(op, wl.CliOp):
        return outcome
    return f"{outcome} {results[-1].diagnostics!r}"


def operation_lines(oq, workload: str, seed: int, pass_index: int):
    """One line per operation of pass ``pass_index``, yielded in the order
    the benchmark runs them."""
    desc = wl.describe(workload, seed, pass_index)
    specs = wl.materialize(oq, desc)
    for idx in desc.order:
        yield f"{workload} seed={seed} pass={pass_index} op={idx}: {_outcome(oq, specs, desc.ops[idx])}"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def import_program(root: Path):
    """oscquad (with its CLI module) from ``root/src``."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    oq = importlib.import_module("oscquad")
    importlib.import_module("oscquad.benchcli")
    if Path(oq.__file__).resolve().parent != src / "oscquad":
        raise ImportError(f"imported oscquad from {oq.__file__}, not from {src}")
    return oq


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout whose src/ is imported")
    args = parser.parse_args(argv)
    oq = import_program(args.root)
    lines = []
    for seed in SEEDS:
        for workload in wl.WORKLOADS:
            for pass_index in PASSES:
                for line in operation_lines(oq, workload, seed, pass_index):
                    print(line, flush=True)
                    lines.append(line)
    print(f"sha256 {digest(lines)} over {len(lines)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
