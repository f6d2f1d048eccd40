"""Worst error and total time of the reference oracle over the exact tables.

From the root of a checkout of the repository:

    python3 tools/oracle_error.py --root PATH

imports the oscquad package from ``PATH/src`` (default: this checkout) and
calls ``baselines.reference_oracle`` on every entry of this checkout's
``tests/data/*_exact.json`` with |w| g(a) up to ``ORACLE_PHASE_CAP``.  For
each table it prints the number of entries, the worst relative error
against the 40-digit values with the entry where it occurs and the time of
the table's calls, then the worst over all tables and the total time of
the calls (each time the best of ``--repeat`` passes, each pass on fresh
problem objects).  The tables of this checkout are
the yardstick for either package, so two commits can be compared on the
same entries.  The exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _specs(data: Path):
    # (table, entry, exact value, build) for every entry of the tables.  An
    # entry names a built-in, or carries its problem: the ascending
    # coefficients f and g, the end a and log_kind.
    from oscquad.problem import Amplitude, Oscillator, SingKind, build_problem, builtin_problem

    for path in sorted(data.glob("*_exact.json")):
        for e in json.loads(path.read_text())["entries"]:
            exact = complex(float(e["re"]), float(e["im"]))
            if "problem" in e:
                def build(e=e):
                    return builtin_problem(e["problem"], e["alpha"], e["w"])
            else:
                def build(e=e):
                    kind = SingKind.ALGEBRAIC_LOG if e["log_kind"] else SingKind.ALGEBRAIC
                    return build_problem(Amplitude.from_poly(e["f"]), Oscillator.from_poly(e["g"]),
                                         a=e["a"], alpha=e["alpha"], kind=kind, w=e["w"])
            yield path.stem, e, exact, build


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout holding src/oscquad (default: this one)")
    parser.add_argument("--repeat", type=int, default=3, help="timed passes; the best is printed (default: 3)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from oscquad import baselines

    cases = []
    for table, e, exact, build in _specs(HERE / "tests" / "data"):
        spec = build()
        if abs(spec.w) * spec.g_end() <= baselines.ORACLE_PHASE_CAP:
            cases.append((table, e, exact, build))
    tables = sorted({case[0] for case in cases})
    best = float("inf")
    best_table = dict.fromkeys(tables, float("inf"))
    for _ in range(max(1, args.repeat)):
        specs = [build() for _, _, _, build in cases]
        values, spent = [], dict.fromkeys(tables, 0.0)
        for spec, case in zip(specs, cases):
            t0 = time.perf_counter()
            values.append(baselines.reference_oracle(spec))
            spent[case[0]] += time.perf_counter() - t0
        best = min(best, sum(spent.values()))
        best_table = {table: min(best_table[table], spent[table]) for table in tables}
    errors = [abs(v - exact) / abs(exact) for v, (_, _, exact, _) in zip(values, cases)]
    for table in tables:
        rows = [(err, case[1]) for err, case in zip(errors, cases) if case[0] == table]
        err, e = max(rows, key=lambda row: row[0])
        where = ", ".join(f"{k} = {v}" for k, v in e.items() if k not in ("re", "im"))
        print(f"{table}: {len(rows)} entries, worst relative error {err:.2e} ({where}); "
              f"time {best_table[table] * 1e3:.1f} ms")
    print(f"oracle over {len(cases)} exact-table entries: worst relative error {max(errors):.2e}; "
          f"total time {best * 1e3:.1f} ms (best of {max(1, args.repeat)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
