"""Exact values of the quadratic-oscillator built-ins ex53a and ex53b.

Writes ``quadratic_exact.json`` next to this file: the integrals

    int_0^1 x^alpha [log x] e^{iw(x^2+x+1)} / (1+x^2) dx

(ex53a without, ex53b with the logarithm) at alpha = +-0.5 and
w = 10^{2, 3, 4, 5} (16 values), each to 32 significant digits.  The
criterion-3 table (``criterion3_exact.json``) is left as it is.

The values come from numerical steepest descent in 40-digit arithmetic, as
in ``make_criterion3_exact.py``.  With the normalised oscillator
g(x) = x^2 + x, the integral over [0, 1] is the difference of two path
integrals, one from each endpoint c, on which g(x) = g(c) + e^{i theta} s / w
for s >= 0.  At theta = pi/2 this is the steepest-descent path, on which the
integrand decays like e^{-s}.  Each path is inverted in closed form with the
cancellation-free root x = c + 2 t / (g'(c) + sqrt(g'(c)^2 + 4 t)),
t = g(x) - g(c).  The poles at x = +-i and the critical point x = -1/2 stay
outside the region swept between [0, 1] and the paths.

The path variable is s = v^k with k (1 + alpha) >= 1, so the endpoint factor
s^alpha ds becomes bounded in v (``u = v^2`` leaves a v^{2 alpha + 1}
singularity, which at alpha = -0.9 costs about nine digits).

Every value is recomputed on a second angle, theta = pi/3, and the table is
only written if every pair agrees to ``CROSS_CHECK_RTOL`` relative.

Run from the repository root::

    python tests/data/make_quadratic_exact.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

from make_criterion3_exact import CHECK_ANGLE, CROSS_CHECK_RTOL, DIGITS, DPS

PROBLEMS = ("ex53a", "ex53b")
ALPHAS = (0.5, -0.5)
LOG10_WS = (2, 3, 4, 5)
# The steepest-descent angle, as a fraction (num, den) of pi.
PRIMARY_ANGLE = (1, 2)
# The integrand decays like e^{-s sin(theta)}; e^{-110} is far below 40
# digits of the integral.
_S_END = 110
OUT = Path(__file__).with_name("quadratic_exact.json")


def exact_value(problem_id: str, alpha: float, w: float, angle=PRIMARY_ANGLE) -> mp.mpc:
    """The integral of ``problem_id`` by two paths at ``angle`` (a fraction of pi).

    Evaluated at the working precision ``DPS``; ``alpha`` and ``w`` are taken
    as the exact binary values of the given floats.
    """
    if problem_id not in PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    log_kind = problem_id == "ex53b"
    with mp.workdps(DPS):
        theta = mp.pi * angle[0] / angle[1]
        alpha = mp.mpf(alpha)
        w = mp.mpf(w)
        k = max(2, math.ceil(1.0 / (1.0 + float(alpha))))
        direction = mp.expj(theta) / w
        s_end = _S_END / mp.sin(theta)
        breaks = [s_end ** (mp.mpf(1) / k) * b for b in (0, 0.05, 0.15, 0.3, 0.5, 0.75, 1)]

        def path(c):
            g1 = 2 * c + 1  # g'(c)
            gc = c * c + c

            def integrand(v):
                s = v**k
                t = direction * s
                root = mp.sqrt(g1 * g1 + 4 * t)
                x = c + 2 * t / (g1 + root)
                weight = mp.power(x, alpha) * (mp.log(x) if log_kind else 1)
                dx_dv = direction * k * v ** (k - 1) / root
                return weight * mp.expj(w * (gc + t)) / (1 + x * x) * dx_dv

            return mp.quad(integrand, breaks)

        return (path(mp.mpf(0)) - path(mp.mpf(1))) * mp.expj(w)


def build_table() -> dict:
    """All 16 values, each cross-checked on the second angle."""
    entries = []
    worst = 0.0
    for problem_id in PROBLEMS:
        for alpha in ALPHAS:
            for log10_w in LOG10_WS:
                w = 10.0**log10_w
                primary = exact_value(problem_id, alpha, w)
                check = exact_value(problem_id, alpha, w, CHECK_ANGLE)
                with mp.workdps(DPS):
                    rel = float(abs(primary - check) / abs(primary))
                worst = max(worst, rel)
                print(f"{problem_id} alpha={alpha:+.1f} w=1e{log10_w}: "
                      f"|Q|={float(abs(primary)):.6e} angle gap {rel:.1e}")
                if not rel <= CROSS_CHECK_RTOL:
                    raise SystemExit(
                        f"{problem_id} alpha={alpha} w={w!r}: path angles disagree "
                        f"to {rel:.2e} relative (limit {CROSS_CHECK_RTOL:.0e}); table not written"
                    )
                entries.append({
                    "problem": problem_id,
                    "alpha": alpha,
                    "log10_w": float(log10_w),
                    "w": w,
                    "re": mp.nstr(primary.real, DIGITS, min_fixed=1, max_fixed=0),
                    "im": mp.nstr(primary.imag, DIGITS, min_fixed=1, max_fixed=0),
                })
    return {
        "description": (
            "Exact values of the ex53a and ex53b integrals at alpha = +-0.5 and "
            "w = 10^{2, 3, 4, 5}, by numerical steepest descent in 40-digit "
            "arithmetic; regenerate with tests/data/make_quadratic_exact.py"
        ),
        "digits": DIGITS,
        "worst_angle_gap": float(f"{worst:.2e}"),
        "entries": entries,
    }


def main() -> int:
    table = build_table()
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['entries'])} values to {OUT.name}; "
          f"worst angle gap {table['worst_angle_gap']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
