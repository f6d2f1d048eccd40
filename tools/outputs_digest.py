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

    python3 tools/outputs_digest.py --cold

does the same with every kept table of the package (each memo of
``oscquad._kept.kept``) cleared before each operation, so each operation
builds every table it reads.  A kept table must never change an output, so
the cold printout of a checkout must equal its warm one.

    python3 tools/outputs_digest.py --compare BEFORE.txt AFTER.txt

reads two such printouts and reports, for each workload, method and column
group, how many values changed and the largest relative change among them.
A value is a point operation's result (group ``value``), or one row of a CLI
operation's table, grouped by the row's method and split into its computed
value (``value``: ``value_re``, ``value_im``) and its errors against the
reference (``error``: ``abs_err``, ``rel_err``, ``scaled_err``).  So a change
of reference shows as changed ``error`` rows beside unchanged ``value`` rows.
Each point method also gets a ``diagnostics`` row: how many of its operations
have diagnostics that differ, and the diagnostic keys added or removed.
The last line counts the operation lines that differ in anything,
diagnostics included, and the exit status is 1 when that count is not zero
(0 when the printouts are bit-identical), so the comparison can gate a
script.  Only operation lines and the final ``sha256`` line are read; any
other line, such as a NumPy warning captured with ``2>&1``, is skipped and
counted.
"""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import importlib
import math
import pkgutil
import re
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import run  # noqa: E402,F401  (fixes the BLAS environment before NumPy is imported)
import workloads as wl  # noqa: E402

SEEDS = (1, 2)
PASSES = (1, 2)
# CLI columns compared, by group.
CLI_COLUMNS = {"value": ("value_re", "value_im"), "error": ("abs_err", "rel_err", "scaled_err")}


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


def kept_memos(oq) -> list:
    """Every memo of ``oscquad._kept.kept`` in the modules of the package
    ``oq``: the module-level objects with a ``cache`` and a ``__wrapped__``."""
    memos = {}
    for info in pkgutil.iter_modules(oq.__path__):
        module = importlib.import_module(f"{oq.__name__}.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache") and hasattr(obj, "__wrapped__"):
                memos[id(obj)] = obj
    return list(memos.values())


def operation_lines(oq, workload: str, seed: int, pass_index: int, cold: bool = False):
    """One line per operation of pass ``pass_index``, yielded in the order
    the benchmark runs them; with ``cold``, every kept memo of ``oq`` is
    cleared before each operation."""
    desc = wl.describe(workload, seed, pass_index)
    specs = wl.materialize(oq, desc)
    memos = kept_memos(oq) if cold else []
    for idx in desc.order:
        for memo in memos:
            memo.cache.clear()
        yield f"{workload} seed={seed} pass={pass_index} op={idx}: {_outcome(oq, specs, desc.ops[idx])}"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _values(op, outcome: str):
    # (method, column group, numbers) for every value of the outcome of one
    # operation line of ``op``.
    if isinstance(op, wl.CliOp):
        code, rows = ast.literal_eval(outcome)
        header = rows[0].split(",") if rows else []
        for row in rows[1:]:
            fields = dict(zip(header, row.split(",")))
            for group, columns in CLI_COLUMNS.items():
                yield f"cli:{fields.get('method', '?')}", group, [float(fields[c]) for c in columns]
    elif outcome.startswith("'("):
        value = complex(outcome[1 : outcome.index("'", 1)])
        yield op.method, "value", [value.real, value.imag]
    else:  # the operation raised; its error is compared as text
        yield op.method, "value", []


def _operation(key: str, describe):
    # (workload, op) of a "W seed=S pass=P op=I" key.
    workload, *fields = key.split()
    seed, pass_index, op_index = (int(field.split("=")[1]) for field in fields)
    return workload, describe(workload, seed, pass_index).ops[op_index]


def _relative_change(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


_OPERATION = re.compile(r"(\S+ seed=\d+ pass=\d+ op=\d+): (.*)")


def parse(lines):
    """``({key: outcome}, skipped)`` of a printout given as lines: its
    operation lines by ``"W seed=S pass=P op=I"`` key, and the number of
    lines that are neither those nor the ``sha256`` line."""
    out = {}
    skipped = 0
    for line in lines:
        match = _OPERATION.fullmatch(line.rstrip("\n"))
        if match:
            out[match[1]] = match[2]
        elif not line.startswith("sha256 "):
            skipped += 1
    return out, skipped


def compare(before, after) -> dict:
    """Per (workload, method, column group): ``[values, changed, largest
    relative change]`` between two printouts given as lines, plus
    ``"lines"``: ``(operation lines, lines that differ)``."""
    (a, _), (b, _) = parse(before), parse(after)
    if a.keys() != b.keys():
        raise ValueError(f"the printouts cover different operations ({len(a)} and {len(b)} lines)")
    describe = functools.lru_cache(maxsize=None)(wl.describe)
    table = defaultdict(lambda: [0, 0, 0.0])
    differing = 0
    for key in a:
        same = a[key] == b[key]
        differing += not same
        workload, op = _operation(key, describe)
        outcomes = [outcome.split(" {", 1)[0] for outcome in (a[key], b[key])]
        for (method, group, xs), (_, _, ys) in zip(*(_values(op, o) for o in outcomes)):
            row = table[workload, method, group]
            row[0] += 1
            if not same and (len(xs) != len(ys) or any(map(_relative_change, xs, ys))):
                row[1] += 1
                row[2] = max([row[2], *map(_relative_change, xs, ys)])
    return {**table, "lines": (len(a), differing)}


_DIAGNOSTIC_KEY = re.compile(r"'(\w+)': ")


def compare_diagnostics(before, after) -> dict:
    """Per (workload, method) of the point operations: ``[operations,
    operations whose diagnostics differ, keys added, keys removed]`` between
    two printouts given as lines; the keys are sorted lists."""
    (a, _), (b, _) = parse(before), parse(after)
    describe = functools.lru_cache(maxsize=None)(wl.describe)
    table = {}
    for key in a:
        workload, op = _operation(key, describe)
        if isinstance(op, wl.CliOp):
            continue
        diagnostics = [outcome.partition(" {")[2] for outcome in (a[key], b[key])]
        old, new = (set(_DIAGNOSTIC_KEY.findall(d)) for d in diagnostics)
        row = table.setdefault((workload, op.method), [0, 0, set(), set()])
        row[0] += 1
        row[1] += diagnostics[0] != diagnostics[1]
        row[2] |= new - old
        row[3] |= old - new
    return {key: [count, differ, sorted(added), sorted(removed)]
            for key, (count, differ, added, removed) in table.items()}


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
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="report the changes between two printouts instead")
    parser.add_argument("--cold", action="store_true",
                        help="clear every kept table of the package before each operation")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (path.read_text().splitlines() for path in args.compare)
        for path, lines in zip(args.compare, (before, after)):
            skipped = parse(lines)[1]
            if skipped:
                print(f"{path}: skipped {skipped} lines that are not operation lines")
        result = compare(before, after)
        lines, differing = result.pop("lines")
        print(f"{'workload':<16}{'method':<22}{'columns':<12}{'values':>7}{'changed':>9}  "
              "largest relative change, or diagnostic keys added and removed")
        for (workload, method, group), (count, changed, largest) in sorted(result.items()):
            print(f"{workload:<16}{method:<22}{group:<12}{count:>7}{changed:>9}  {largest:.3g}")
        for (workload, method), (count, changed, added, removed) in sorted(
                compare_diagnostics(before, after).items()):
            keys = f"added {', '.join(added) or '-'}; removed {', '.join(removed) or '-'}"
            print(f"{workload:<16}{method:<22}{'diagnostics':<12}{count:>7}{changed:>9}  {keys}")
        print(f"{differing} of {lines} operation lines differ")
        return 1 if differing else 0
    oq = import_program(args.root)
    lines = []
    for seed in SEEDS:
        for workload in wl.WORKLOADS:
            for pass_index in PASSES:
                for line in operation_lines(oq, workload, seed, pass_index, args.cold):
                    print(line, flush=True)
                    lines.append(line)
    print(f"sha256 {digest(lines)} over {len(lines)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
