"""A quadratic oscillator: physical and frequency routes compared.

Nothing in the construction needs a linear phase. For g = x^2 + x + 1
the solver normalizes g(0) to zero, folds the constant phase into the
result, and proceeds as usual. The physical route collocates on Radau
nodes in x; the frequency route expands q1 in the Chebyshev basis
T_k(2x/a - 1), also in x. Both converge to the oracle; the moment-based
Filon route is unavailable here because closed-form moments need a
linear phase, which is exactly the gap the frequency route fills.
"""

from oscquad import Method, builtin_problem, compute, reference_oracle
from oscquad.errors import CapabilityError


def main():
    for kind, pid in (("algebraic", "ex53a"), ("algebraic-log", "ex53b")):
        spec = builtin_problem(pid, alpha=0.5, w=100.0)
        ref = reference_oracle(spec)
        print(f"{pid} ({kind} weight), alpha=0.5, w=100")
        print(f"{'n':>3}  {'physical':>10}  {'frequency':>10}")
        for n in (4, 6, 8, 10, 12):
            phys = abs(compute(spec, Method.LEVIN_PHYSICAL, n, 0).value - ref)
            freq = abs(compute(spec, Method.LEVIN_FREQ, n, 0).value - ref)
            print(f"{n:3d}  {phys:10.2e}  {freq:10.2e}")
        print()

    spec = builtin_problem("ex53a", alpha=0.5, w=100.0)
    try:
        compute(spec, Method.FILON, 8, 0)
    except CapabilityError as exc:
        print(f"filon route refused, as designed: {exc}")


if __name__ == "__main__":
    main()
