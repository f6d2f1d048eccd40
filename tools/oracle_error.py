"""Worst error and total time of the reference oracle over the exact tables.

From the root of a checkout of the repository:

    python3 tools/oracle_error.py --root PATH

imports the oscquad package from ``PATH/src`` (default: this checkout) and
calls ``baselines.reference_oracle`` on every entry of this checkout's
``tests/data/*_exact.json`` with |w| g(a) up to ``ORACLE_PHASE_CAP``.  For
each table it prints the number of entries and the worst relative error
against the 40-digit values with the entry where it occurs, then the worst
over all tables and the total time of the calls (the best of ``--repeat``
passes, each on fresh problem objects).  The tables of this checkout are
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
    # (table, entry, exact value, build) for every entry of the tables; the
    # short-interval table holds (1 - x) x^alpha [log x] e^{iw(x + x^2)} on
    # [0, a], the others the built-ins.
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
                    return build_problem(Amplitude.from_poly([1.0, -1.0]), Oscillator.from_poly([0.0, 1.0, 1.0]),
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
    best = float("inf")
    for _ in range(max(1, args.repeat)):
        specs = [build() for _, _, _, build in cases]
        t0 = time.perf_counter()
        values = [baselines.reference_oracle(spec) for spec in specs]
        best = min(best, time.perf_counter() - t0)
    errors = [abs(v - exact) / abs(exact) for v, (_, _, exact, _) in zip(values, cases)]
    for table in sorted({case[0] for case in cases}):
        rows = [(err, case[1]) for err, case in zip(errors, cases) if case[0] == table]
        err, e = max(rows, key=lambda row: row[0])
        where = ", ".join(f"{k} = {v}" for k, v in e.items() if k not in ("re", "im"))
        print(f"{table}: {len(rows)} entries, worst relative error {err:.2e} ({where})")
    print(f"oracle over {len(cases)} exact-table entries: worst relative error {max(errors):.2e}; "
          f"total time {best * 1e3:.1f} ms (best of {max(1, args.repeat)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
