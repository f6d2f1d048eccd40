"""Exact values of a problem on short intervals [0, a].

Writes ``short_interval_exact.json`` next to this file: the integrals

    int_0^a (1 - x) x^alpha [log x] e^{iw(x + x^2)} dx

without and with the logarithm, at a = 1e-3, 1e-6, 1e-10, 1e-200,
alpha = +-0.5 and w = 100 (16 values), each to 32 significant digits.

On these intervals |w| g(a) <= 0.2, so the integrand is not oscillatory and
the values come from the Taylor series of (1 - x) e^{iw(x + x^2)} = sum_k
d_k x^k in 40-digit arithmetic, integrated term by term:

    int_0^a x^{p-1} dx = a^p / p,
    int_0^a x^{p-1} log x dx = a^p (log a - 1/p) / p,    p = k + alpha + 1.

Every value is recomputed by tanh-sinh quadrature of the integral mapped to
[0, 1] by x = a t, and the table is only written if every pair agrees to
``CROSS_CHECK_RTOL`` relative.

Run from the repository root::

    python tests/data/make_short_interval_exact.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

from make_criterion3_exact import CROSS_CHECK_RTOL, DIGITS, DPS

AS = (1e-3, 1e-6, 1e-10, 1e-200)
ALPHAS = (0.5, -0.5)
W = 100.0
# Series terms: |w| g(a) <= 0.2 makes term k below 0.2^k / k!.
_TERMS = 60
OUT = Path(__file__).with_name("short_interval_exact.json")


def _taylor(w):
    # d_k of (1 - x) e^{iw(x + x^2)}: e^{iwg} = sum e_k x^k with
    # k e_k = iw (e_{k-1} + 2 e_{k-2}), from (e^{iwg})' = iw g' e^{iwg}.
    e = [mp.mpc(1)]
    for k in range(1, _TERMS + 1):
        e.append(1j * w * (e[k - 1] + 2 * (e[k - 2] if k >= 2 else 0)) / k)
    return [e[k] - (e[k - 1] if k >= 1 else 0) for k in range(_TERMS + 1)]


def series_value(a: float, alpha: float, log_kind: bool) -> mp.mpc:
    """The integral by its term-by-term series; a, alpha, w as exact binary values."""
    with mp.workdps(DPS):
        a, alpha, w = mp.mpf(a), mp.mpf(alpha), mp.mpf(W)
        total = mp.mpc(0)
        for k, d in enumerate(_taylor(w)):
            p = k + alpha + 1
            term = d * mp.power(a, p) / p
            total += term * (mp.log(a) - 1 / p) if log_kind else term
        return total


def quadrature_value(a: float, alpha: float, log_kind: bool) -> mp.mpc:
    """The same integral by tanh-sinh quadrature in t = x / a."""
    with mp.workdps(DPS):
        a, alpha, w = mp.mpf(a), mp.mpf(alpha), mp.mpf(W)

        def integrand(t):
            x = a * t
            weight = mp.power(t, alpha) * ((mp.log(a) + mp.log(t)) if log_kind else 1)
            return (1 - x) * weight * mp.expj(w * (x + x * x))

        return mp.power(a, alpha + 1) * mp.quad(integrand, [0, 1])


def build_table() -> dict:
    """All 16 values, each cross-checked by quadrature."""
    entries = []
    worst = 0.0
    for log_kind in (False, True):
        for a in AS:
            for alpha in ALPHAS:
                primary = series_value(a, alpha, log_kind)
                check = quadrature_value(a, alpha, log_kind)
                with mp.workdps(DPS):
                    rel = float(abs(primary - check) / abs(primary))
                worst = max(worst, rel)
                kind = "log" if log_kind else "alg"
                print(f"{kind} a={a:.0e} alpha={alpha:+.1f}: |Q|={mp.nstr(abs(primary), 6)} gap {rel:.1e}")
                if not rel <= CROSS_CHECK_RTOL:
                    raise SystemExit(
                        f"{kind} a={a!r} alpha={alpha}: series and quadrature disagree "
                        f"to {rel:.2e} relative (limit {CROSS_CHECK_RTOL:.0e}); table not written"
                    )
                entries.append({
                    "log_kind": log_kind,
                    "a": a,
                    "alpha": alpha,
                    "w": W,
                    "re": mp.nstr(primary.real, DIGITS, min_fixed=1, max_fixed=0),
                    "im": mp.nstr(primary.imag, DIGITS, min_fixed=1, max_fixed=0),
                })
    return {
        "description": (
            "Exact values of int_0^a (1 - x) x^alpha [log x] e^{iw(x + x^2)} dx at "
            "a = 1e-3, 1e-6, 1e-10, 1e-200, alpha = +-0.5 and w = 100, by Taylor series "
            "in 40-digit arithmetic; regenerate with tests/data/make_short_interval_exact.py"
        ),
        "digits": DIGITS,
        "worst_check_gap": float(f"{worst:.2e}"),
        "entries": entries,
    }


def main() -> int:
    table = build_table()
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['entries'])} values to {OUT.name}; "
          f"worst check gap {table['worst_check_gap']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
