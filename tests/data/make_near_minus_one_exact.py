"""Exact values of the built-ins near alpha = -1.

Writes ``near_minus_one_exact.json`` next to this file: the integrals of
ex51, ex52, ex53a and ex53b at alpha = -0.999, -0.99, -0.95, -0.945 and
w = 1e-3, 1, 1e2, 1e3 (64 values), each to 32 significant digits:

- ex51, ``int_0^1 e^{iw} (1-x) (2-x)^alpha x^alpha e^{-iwx} dx``;
- ex52, ``int_0^1 x^alpha log(x) e^{iwx} / (1+x^2) dx``;
- ex53a, ``int_0^1 x^alpha e^{iw(x^2+x+1)} / (1+x^2) dx``, and ex53b the
  same with ``log x``.

The values come from numerical steepest descent in 40-digit arithmetic, as
in ``make_criterion3_exact.py`` and ``make_quadratic_exact.py``.  With the
internal frequency W (-w for ex51) and the oscillator g (x, or x^2 + x with
the phase e^{iw} taken out), the integral over [0, 1] is the difference of
two path integrals, one from each endpoint c, on which
g(x) = g(c) + e^{i sign(W) theta} s / |W| for s >= 0, so that the
exponential decays like e^{-s sin(theta)}.  Both paths are closed-form: x
itself for g = x, and the cancellation-free root
x = c + 2 t / (g'(c) + sqrt(g'(c)^2 + 4 t)), t = g(x) - g(c), for the
quadratic.

Near alpha = -1 most of the integral sits at astronomically small s, where
no quadrature node reaches: at alpha = -0.999 the part below s = 1e-300 is
half of ``int_0^1 s^alpha ds``.  So on the path from 0 the integrand
s^alpha [log s] P(s) e^{-kappa s} (P smooth, kappa = sin(theta) -
i sign(W) cos(theta)) is split at P(0): the P(0) term is integrated in
closed form, Gamma(p) / kappa^p and Gamma(p) (psi(p) - log kappa) / kappa^p
with p = 1 + alpha, and what is left is bounded at s = 0.

The angles keep every singular point of the amplitude (the poles x = +-i of
1/(1+x^2), the branch point 2 of (2-x)^alpha) and the critical point
x = -1/2 of x^2 + x outside the region swept between [0, 1] and the paths:
theta = pi/2 for ex51 and ex53a/b, pi/4 for ex52.  Every value is
recomputed on a second angle, pi/3, and the table is only written if every
pair agrees to ``CROSS_CHECK_RTOL`` relative.

Run from the repository root::

    python tests/data/make_near_minus_one_exact.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

from make_criterion3_exact import CHECK_ANGLE, CROSS_CHECK_RTOL, DIGITS, DPS

PROBLEMS = ("ex51", "ex52", "ex53a", "ex53b")
ALPHAS = (-0.999, -0.99, -0.95, -0.945)
WS = (1e-3, 1.0, 1e2, 1e3)
# Path angles from the real axis, as fractions (num, den) of pi.
PRIMARY_ANGLE = {"ex51": (1, 2), "ex52": (1, 4), "ex53a": (1, 2), "ex53b": (1, 2)}
# Breakpoints in s: geometric towards 0, where the amplitude varies on the
# scale |W| (the poles of ex52 at small w), then e^{-256 sin(pi/4)} is far
# below 40 digits of the integral.
_S_BREAKS = [mp.mpf(0)] + [mp.mpf(2) ** k for k in range(-40, 9)] + [mp.inf]
OUT = Path(__file__).with_name("near_minus_one_exact.json")


def _problem(problem_id: str, w):
    # (amplitude, internal frequency W, quadratic oscillator?, log kind?,
    # phase factor), for the oscillator g = x or g = x^2 + x.
    if problem_id == "ex51":
        const = mp.expj(w)
        return lambda x, al: const * (1 - x) * mp.power(2 - x, al), -w, False, False, 1
    rational = lambda x, al: 1 / (1 + x * x)  # noqa: E731
    if problem_id == "ex52":
        return rational, w, False, True, 1
    return rational, w, True, problem_id == "ex53b", mp.expj(w)


def exact_value(problem_id: str, alpha: float, w: float, angle=None) -> mp.mpc:
    """The integral of ``problem_id`` by two paths at ``angle`` (a fraction of pi).

    Evaluated at the working precision ``DPS``; ``alpha`` and ``w`` are taken
    as the exact binary values of the given floats.
    """
    if problem_id not in PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    with mp.workdps(DPS):
        num, den = PRIMARY_ANGLE[problem_id] if angle is None else angle
        theta = mp.pi * num / den
        alpha = mp.mpf(alpha)
        p = 1 + alpha
        f, W, quadratic, log_kind, phase = _problem(problem_id, mp.mpf(w))
        sign = 1 if W > 0 else -1
        direction = mp.expj(sign * theta) / abs(W)
        kappa = mp.sin(theta) - 1j * sign * mp.cos(theta)

        def point(c, s):
            # x on the path from c at s, and dx/ds.
            if not quadratic:
                return c + direction * s, direction
            g1 = 2 * c + 1
            t = direction * s
            root = mp.sqrt(g1 * g1 + 4 * t)
            return c + 2 * t / (g1 + root), direction / root

        def smooth(s):
            # P(s) and log(x/s) on the path from 0, where the integrand is
            # s^alpha (log s + log(x/s))^[log] P(s) e^{-kappa s}.
            if s == 0:
                ratio = dx = direction
            else:
                x, dx = point(0, s)
                ratio = x / s
            return f(ratio * s, alpha) * mp.power(ratio, alpha) * dx, mp.log(ratio)

        P0, log_ratio0 = smooth(mp.mpf(0))
        gp = mp.gamma(p) / mp.power(kappa, p)
        if log_kind:
            head = P0 * gp * (mp.digamma(p) - mp.log(kappa) + log_ratio0)
        else:
            head = P0 * gp

        def rest_from_0(s):
            P, log_ratio = smooth(s)
            if log_kind:
                P = P * (mp.log(s) + log_ratio) - P0 * (mp.log(s) + log_ratio0)
            else:
                P = P - P0
            return mp.power(s, alpha) * P * mp.exp(-kappa * s)

        def from_1(s):
            x, dx = point(mp.mpf(1), s)
            weight = mp.power(x, alpha) * (mp.log(x) if log_kind else 1)
            return f(x, alpha) * weight * dx * mp.exp(-kappa * s)

        start = head + mp.quad(rest_from_0, _S_BREAKS)
        end = mp.quad(from_1, _S_BREAKS) * mp.expj(W * (2 if quadratic else 1))
        return (start - end) * phase


def build_table() -> dict:
    """All 64 values, each cross-checked on the second angle."""
    entries = []
    worst = 0.0
    for problem_id in PROBLEMS:
        for alpha in ALPHAS:
            for w in WS:
                primary = exact_value(problem_id, alpha, w)
                check = exact_value(problem_id, alpha, w, CHECK_ANGLE)
                with mp.workdps(DPS):
                    rel = float(abs(primary - check) / abs(primary))
                worst = max(worst, rel)
                print(f"{problem_id} alpha={alpha:+.3f} w={w:.0e}: "
                      f"|Q|={float(abs(primary)):.6e} angle gap {rel:.1e}", flush=True)
                if not rel <= CROSS_CHECK_RTOL:
                    raise SystemExit(
                        f"{problem_id} alpha={alpha} w={w!r}: path angles disagree "
                        f"to {rel:.2e} relative (limit {CROSS_CHECK_RTOL:.0e}); table not written"
                    )
                entries.append({
                    "problem": problem_id,
                    "alpha": alpha,
                    "w": w,
                    "re": mp.nstr(primary.real, DIGITS, min_fixed=1, max_fixed=0),
                    "im": mp.nstr(primary.imag, DIGITS, min_fixed=1, max_fixed=0),
                })
    return {
        "description": (
            "Exact values of the built-in integrals at alpha = -0.999, -0.99, -0.95, "
            "-0.945 and w = 1e-3, 1, 1e2, 1e3, by numerical steepest descent in "
            "40-digit arithmetic with the endpoint term in closed form; regenerate "
            "with tests/data/make_near_minus_one_exact.py"
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
