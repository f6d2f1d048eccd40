"""40-digit exact values for the tests' tables.

Writes the ``*_exact.json`` tables next to this file, each value to 32
significant digits.  Every table is an entry of ``TABLES``: its grid of
entry keys, the function that gives the tabulated value, an independent
cross-check of the same integral and a description.  A table is only
written if every value agrees with its cross-check to ``CROSS_CHECK_RTOL``
relative.

Two value functions cover every table:

- :func:`exact_value`, the built-ins ex51, ex52, ex53a and ex53b at any
  alpha and w, by numerical steepest descent (Huybrechs & Vandewalle, SIAM
  J. Numer. Anal. 44, 2006), cross-checked on a second path angle;
- :func:`series_value`, ``int_0^a (1 - x) x^alpha [log x] e^{iw(x + x^2)} dx``
  on short intervals, by its Taylor series, cross-checked by tanh-sinh
  quadrature.

Run from the repository root, for every table or for the named ones::

    python tests/data/make_exact.py
    python tests/data/make_exact.py criterion3 alpha_near_one
"""

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

DPS = 40
DIGITS = 32
CROSS_CHECK_RTOL = 1e-20
DATA = Path(__file__).parent

PROBLEMS = ("ex51", "ex52", "ex53a", "ex53b")
# Path angles from the real axis, as fractions (num, den) of pi: the primary
# angle of each problem and the cross-check angle.
PRIMARY_ANGLE = {"ex51": (1, 2), "ex52": (1, 4), "ex53a": (1, 2), "ex53b": (1, 2)}
CHECK_ANGLE = (1, 3)
# Breakpoints in s: finer towards 0, where the amplitude varies on the scale
# |W| (the poles of ex52 at small w); e^{-256 sin(pi/4)} is far below 40
# digits of the integral.
_S_BREAKS = [mp.mpf(0)] + [mp.mpf(2) ** k for k in range(-4, 9)] + [mp.inf]
# |w| g(a) of the oracle_crossover table: just above the NSD crossover of
# the CLI's error columns (oscquad.benchcli.NSD_CROSSOVER = 100) and up to
# 300, where NSD takes every built-in.
_CROSSOVER_PHASES = (100.0 * 1.01, 150.0, 200.0, 250.0, 300.0)
# Series terms of series_value: |w| g(a) <= 0.2 makes term k below 0.2^k / k!.
_TERMS = 60


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
    """The integral of the built-in ``problem_id`` by two paths at ``angle``.

    ``angle`` is a fraction (num, den) of pi, by default the problem's
    primary angle; ``alpha`` and ``w`` are taken as the exact binary values
    of the given floats.  The integrals are

    - ex51, ``int_0^1 e^{iw} (1-x) (2-x)^alpha x^alpha e^{-iwx} dx``;
    - ex52, ``int_0^1 x^alpha log(x) e^{iwx} / (1+x^2) dx``;
    - ex53a, ``int_0^1 x^alpha e^{iw(x^2+x+1)} / (1+x^2) dx``, and ex53b
      the same with ``log x``.

    With the internal frequency W (-w for ex51) and the oscillator g (x, or
    x^2 + x with the phase e^{iw} taken out), the integral over [0, 1] is
    the difference of two path integrals, one from each endpoint c, on which
    g(x) = g(c) + e^{i sign(W) theta} s / |W| for s >= 0, so that the
    exponential decays like e^{-s sin(theta)}.  Both paths are closed-form:
    x itself for g = x, and the cancellation-free root
    x = c + 2 t / (g'(c) + sqrt(g'(c)^2 + 4 t)), t = g(x) - g(c), for the
    quadratic.

    Near alpha = -1 most of the integral sits at astronomically small s,
    where no quadrature node reaches.  So on the path from 0 the integrand
    s^alpha [log s] P(s) e^{-kappa s} (P smooth, kappa = sin(theta) -
    i sign(W) cos(theta)) is split at P(0): the P(0) term is integrated in
    closed form, Gamma(p) / kappa^p and Gamma(p) (psi(p) - log kappa) /
    kappa^p with p = 1 + alpha, and what is left is bounded at s = 0.

    The angles keep every singular point of the amplitude (the poles
    x = +-i of 1/(1+x^2), the branch point 2 of (2-x)^alpha) and the
    critical point x = -1/2 of x^2 + x outside the region swept between
    [0, 1] and the paths: theta = pi/2 for ex51 and ex53a/b, pi/4 for ex52,
    and the cross-check angle pi/3 for all four.
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

        # For g = x the ratio x/s is the constant direction.
        linear = mp.power(direction, alpha) * direction, mp.log(direction)

        def smooth(s):
            # P(s) and log(x/s) on the path from 0, where the integrand is
            # s^alpha (log s + log(x/s))^[log] P(s) e^{-kappa s}.
            if not quadratic:
                return f(direction * s, alpha) * linear[0], linear[1]
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


def series_value(a: float, alpha: float, w: float, log_kind: bool) -> mp.mpc:
    """``int_0^a (1 - x) x^alpha [log x] e^{iw(x + x^2)} dx`` by its Taylor series.

    For |w| g(a) <= 0.2 the integrand is not oscillatory.  With
    (1 - x) e^{iw(x + x^2)} = sum_k d_k x^k, term by term
    ``int_0^a x^{p-1} dx = a^p / p`` and
    ``int_0^a x^{p-1} log x dx = a^p (log a - 1/p) / p``, p = k + alpha + 1.
    """
    with mp.workdps(DPS):
        a, alpha, w = mp.mpf(a), mp.mpf(alpha), mp.mpf(w)
        # e^{iwg} = sum e_k x^k with k e_k = iw (e_{k-1} + 2 e_{k-2}),
        # from (e^{iwg})' = iw g' e^{iwg}.
        e = [mp.mpc(1)]
        for k in range(1, _TERMS + 1):
            e.append(1j * w * (e[k - 1] + 2 * (e[k - 2] if k >= 2 else 0)) / k)
        total = mp.mpc(0)
        for k in range(_TERMS + 1):
            p = k + alpha + 1
            term = (e[k] - (e[k - 1] if k >= 1 else 0)) * mp.power(a, p) / p
            total += term * (mp.log(a) - 1 / p) if log_kind else term
        return total


def quadrature_value(a: float, alpha: float, w: float, log_kind: bool) -> mp.mpc:
    """The integral of :func:`series_value` by tanh-sinh quadrature in t = x / a."""
    with mp.workdps(DPS):
        a, alpha, w = mp.mpf(a), mp.mpf(alpha), mp.mpf(w)

        def integrand(t):
            x = a * t
            weight = mp.power(t, alpha) * ((mp.log(a) + mp.log(t)) if log_kind else 1)
            return (1 - x) * weight * mp.expj(w * (x + x * x))

        return mp.power(a, alpha + 1) * mp.quad(integrand, [0, 1])


@dataclass(frozen=True)
class Table:
    """One table: its entry keys in order, the value and its cross-check
    (each a function of the keys), the name of the field that records the
    worst relative gap between them, and the table's description."""

    grid: list
    value: Callable[[dict], mp.mpc]
    check: Callable[[dict], mp.mpc]
    gap: str
    description: str


def _nsd_grid(problems, alphas, ws=(), log10_ws=()) -> list:
    # Keys of the built-ins, problem by problem and alpha by alpha; a grid
    # given by log10_ws also keys its entries by them, with w computed as
    # the tests compute it.
    ws_keys = [{"w": w} for w in ws] or [
        {"log10_w": float(lw), "w": float(w)}
        for lw, w in zip(log10_ws, 10.0 ** np.asarray(log10_ws, dtype=float))]
    return [{"problem": p, "alpha": alpha, **k} for p in problems for alpha in alphas for k in ws_keys]


def _nsd_table(description: str, grid: list) -> Table:
    return Table(grid, lambda e: exact_value(e["problem"], e["alpha"], e["w"]),
                 lambda e: exact_value(e["problem"], e["alpha"], e["w"], CHECK_ANGLE),
                 "worst_angle_gap", description + (
                     ", by numerical steepest descent in 40-digit arithmetic with the endpoint "
                     "term in closed form; regenerate with tests/data/make_exact.py"))


TABLES = {
    "criterion3": _nsd_table(
        "Exact values of the ex51 and ex52 integrals on the criterion-3 grid",
        _nsd_grid(("ex51", "ex52"), (0.5, -0.5), log10_ws=np.arange(2.0, 5.01, 0.5))),
    "quadratic": _nsd_table(
        "Exact values of the ex53a and ex53b integrals at alpha = +-0.5 and w = 10^{2, 3, 4, 5}",
        _nsd_grid(("ex53a", "ex53b"), (0.5, -0.5), log10_ws=(2, 3, 4, 5))),
    "near_minus_one": _nsd_table(
        "Exact values of the built-in integrals at alpha = -0.999, -0.99, -0.95, -0.945 "
        "and w = 1e-3, 1, 1e2, 1e3",
        _nsd_grid(PROBLEMS, (-0.999, -0.99, -0.95, -0.945), (1e-3, 1.0, 1e2, 1e3))),
    "short_interval": Table(
        [{"log_kind": log_kind, "a": a, "alpha": alpha, "w": 100.0}
         for log_kind in (False, True) for a in (1e-3, 1e-6, 1e-10, 1e-200) for alpha in (0.5, -0.5)],
        lambda e: series_value(e["a"], e["alpha"], e["w"], e["log_kind"]),
        lambda e: quadrature_value(e["a"], e["alpha"], e["w"], e["log_kind"]),
        "worst_check_gap",
        "Exact values of int_0^a (1 - x) x^alpha [log x] e^{iw(x + x^2)} dx at "
        "a = 1e-3, 1e-6, 1e-10, 1e-200, alpha = +-0.5 and w = 100, by Taylor series "
        "in 40-digit arithmetic; regenerate with tests/data/make_exact.py"),
    "alpha_near_one": _nsd_table(
        "Exact values of the ex53a and ex53b integrals at alpha = 0.9, 0.99 and w = 1e4, 1e8",
        _nsd_grid(("ex53a", "ex53b"), (0.9, 0.99), (1e4, 1e8))),
    "small_alpha": _nsd_table(
        "Exact values of the ex52 and ex53b integrals at alpha = +-1e-3, +-1e-6, +-1e-9 "
        "and w = 1, 1e2, 1e4, 1e8",
        _nsd_grid(("ex52", "ex53b"), (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9), (1.0, 1e2, 1e4, 1e8))),
    "oracle_crossover": _nsd_table(
        "Exact values of the built-in integrals at alpha = -0.9, -0.5, 0.5, 0.9 and "
        "|w| g(a) = 101, 150, 200, 250, 300",
        [{"problem": p, "alpha": alpha, "phase": phase, "w": phase / (2.0 if p.startswith("ex53") else 1.0)}
         for p in PROBLEMS for alpha in (-0.9, -0.5, 0.5, 0.9) for phase in _CROSSOVER_PHASES]),
}


def path(name: str) -> Path:
    """Where the table ``name`` of ``TABLES`` is written."""
    return DATA / f"{name}_exact.json"


def build_table(table: Table) -> dict:
    """Every value of ``table``, each agreeing with its cross-check."""
    entries = []
    worst = 0.0
    for key in table.grid:
        primary, check = table.value(key), table.check(key)
        with mp.workdps(DPS):
            rel = float(abs(primary - check) / abs(primary))
        worst = max(worst, rel)
        label = " ".join(f"{k}={v!r}" for k, v in key.items())
        print(f"{label}: |Q|={mp.nstr(abs(primary), 6)} gap {rel:.1e}", flush=True)
        if not rel <= CROSS_CHECK_RTOL:
            raise SystemExit(f"{label}: value and cross-check disagree to {rel:.2e} relative "
                             f"(limit {CROSS_CHECK_RTOL:.0e}); table not written")
        entries.append({
            **key,
            "re": mp.nstr(primary.real, DIGITS, min_fixed=1, max_fixed=0),
            "im": mp.nstr(primary.imag, DIGITS, min_fixed=1, max_fixed=0),
        })
    return {"description": table.description, "digits": DIGITS,
            table.gap: float(f"{worst:.2e}"), "entries": entries}


def main(names: list) -> int:
    unknown = sorted(set(names) - set(TABLES))
    if unknown:
        print(f"unknown table {', '.join(unknown)}; the tables are {', '.join(TABLES)}", file=sys.stderr)
        return 2
    for name in names or TABLES:
        t0 = time.perf_counter()
        table = build_table(TABLES[name])
        path(name).write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {len(table['entries'])} values to {path(name).name} in "
              f"{time.perf_counter() - t0:.0f} s; {TABLES[name].gap} {table[TABLES[name].gap]:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
