"""Levin collocation against the composite moment-free baseline.

The composite scheme subdivides toward the singularity on a geometric
mesh and applies a moment-free Filon rule per panel. It reaches high
accuracy, but its cost grows with the panel count and its error is not
monotone in it: past the optimum, accumulated round-off from thousands
of panels takes over. The collocation route reaches round-off with a
single small dense solve.
"""

import time

from oscquad import (
    Method,
    builtin_problem,
    cmfp,
    compute,
    reference_oracle,
)


def main():
    spec = builtin_problem("ex54", alpha=-0.5, w=1000.0)
    ref = reference_oracle(spec)

    print("levin physical route")
    print(f"{'n':>6}  {'rel err':>9}  {'ms':>7}")
    for n in (4, 8, 12, 16):
        t0 = time.perf_counter()
        val = compute(spec, Method.LEVIN_PHYSICAL, n, 0).value
        ms = (time.perf_counter() - t0) * 1e3
        print(f"{n:6d}  {abs(val - ref) / abs(ref):9.2e}  {ms:7.2f}")

    print()
    print("composite baseline over geometric panel counts")
    print(f"{'n1':>6}  {'rel err':>9}  {'ms':>7}")
    for k in range(1, 18, 2):
        n1 = 2 ** k
        t0 = time.perf_counter()
        val = cmfp(spec, n1).value
        ms = (time.perf_counter() - t0) * 1e3
        print(f"{n1:6d}  {abs(val - ref) / abs(ref):9.2e}  {ms:7.2f}")


if __name__ == "__main__":
    main()
