"""A quadratic oscillator: physical, frequency and Filon routes compared.

Nothing in the construction needs a linear phase. For g = x^2 + x + 1
the solver normalizes g(0) to zero, folds the constant phase into the
result, and proceeds as usual. The physical route collocates on Radau
nodes in x; the frequency route expands q1 in the Chebyshev basis
T_k(2x/a - 1), also in x. Both converge to the oracle superalgebraically
in n. The Filon route accepts a nonlinear g too: its moments are taken in
u = g(x), where they have a closed form, and it interpolates the
amplitude in the basis g', g' g, g' g^2, ... That basis fits a smooth
amplitude poorly when g is not linear, so the Filon column falls only
slowly with n; from n = 16 to 20 (s = 0) its Hermite system becomes too
ill-conditioned to solve and the call raises DegenerateSystemError.
"""

from oscquad import Method, builtin_problem, compute, reference_oracle


def main():
    for kind, pid in (("algebraic", "ex53a"), ("algebraic-log", "ex53b")):
        spec = builtin_problem(pid, alpha=0.5, w=100.0)
        ref = reference_oracle(spec)
        print(f"{pid} ({kind} weight), alpha=0.5, w=100")
        print(f"{'n':>3}  {'physical':>10}  {'frequency':>10}  {'filon':>10}")
        for n in (4, 6, 8, 10, 12):
            phys = abs(compute(spec, Method.LEVIN_PHYSICAL, n, 0).value - ref)
            freq = abs(compute(spec, Method.LEVIN_FREQ, n, 0).value - ref)
            filon = abs(compute(spec, Method.FILON, n, 0).value - ref)
            print(f"{n:3d}  {phys:10.2e}  {freq:10.2e}  {filon:10.2e}")
        print()


if __name__ == "__main__":
    main()
