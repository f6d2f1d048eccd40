"""Acceptance gate: one test per numbered criterion.

Criterion 3 has two supporting tests: a guard of its table of exact values
and a check of the upper-endpoint assembly it depends on.  Each test
prints the measured quantities it judges, so the ``pytest -v`` report
provides a single pass/fail line per criterion and the captured output
carries the numbers behind a failure.
"""

import cmath
import importlib.util
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oscquad import Method, compute
from oscquad.baselines import (
    ORACLE_PHASE_CAP,
    cmfp,
    reference_oracle,
)
from oscquad.cheb import radau_grid
from oscquad.levin import picard_iterate, solve_alg
from oscquad.numkernel import HYP2F2_SERIES_MAX, hyp2f2_equal, upper_gamma_complex
from oscquad.problem import BUILTIN_IDS, SingKind, builtin_problem, delta_alpha

_REF_CACHE = {}


def _reference(problem_id, alpha, w):
    """Oracle value under the phase cap, high-order self reference above."""
    key = (problem_id, alpha, w)
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    spec = builtin_problem(problem_id, alpha, w)
    if abs(spec.w) * spec.g_end() <= ORACLE_PHASE_CAP:
        value = reference_oracle(spec)
    else:
        value = compute(spec, Method.LEVIN_FREQ, 32, 2).value
    _REF_CACHE[key] = value
    return value


def test_criterion_1_algebraic_error_pins():
    # x^0.5 weight, f = 1/(1+x^2), quadratic oscillator, w = 100: absolute
    # errors at pinned (method, n, s) match frozen reference levels within
    # a factor of 3 (last digits are node-placement sensitive).
    t0 = time.perf_counter()
    ref = _reference("ex53a", 0.5, 100.0)
    spec = builtin_problem("ex53a", 0.5, 100.0)
    rows = [
        (Method.LEVIN_PHYSICAL, 4, 0, 1.5382e-05),
        (Method.LEVIN_PHYSICAL, 6, 0, 2.3171e-06),
        (Method.LEVIN_FREQ, 4, 1, 2.6363e-07),
        (Method.LEVIN_FREQ, 4, 2, 1.2572e-08),
    ]
    for method, n, s, target in rows:
        err = abs(compute(spec, method, n, s).value - ref)
        print(f"criterion 1: {method.value} n={n} s={s} "
              f"err={err:.4e} target={target:.4e}")
        assert target / 3.0 <= err <= target * 3.0, (method, n, s, err)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: runtime {elapsed:.2f} s")
    assert elapsed < 5.0


def test_criterion_2_log_error_pins():
    # x^0.5 log x weight analogue: (n, s) = (4, 0) within a factor of 3,
    # (14, 2) within a factor of 100 (round-off floor).
    t0 = time.perf_counter()
    ref = _reference("ex53b", 0.5, 100.0)
    spec = builtin_problem("ex53b", 0.5, 100.0)
    err40 = abs(compute(spec, Method.LEVIN_PHYSICAL, 4, 0).value - ref)
    err142 = abs(compute(spec, Method.LEVIN_FREQ, 14, 2).value - ref)
    print(f"criterion 2: (4,0) err={err40:.4e} target=2.2974e-05")
    print(f"criterion 2: (14,2) err={err142:.4e} target=5.5103e-13")
    assert 2.2974e-05 / 3.0 <= err40 <= 2.2974e-05 * 3.0
    assert 5.5103e-13 / 100.0 <= err142 <= 5.5103e-13 * 100.0
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: runtime {elapsed:.2f} s")
    assert elapsed < 5.0


# Frozen per-combination solver settings for the slope measurement.  Small
# node counts keep the truncation error well above round-off over most of
# the frequency window.  n = 3 is the smallest node count the frequency
# route accepts, yet for alpha = -0.5, s = 2 its error still reaches a few
# eps |Q| at the top of the window; criterion 3 leaves such points out of
# the fit instead of fitting round-off.
_SLOPE_CONFIGS = {
    ("ex51", 0.5, 0): (Method.LEVIN_PHYSICAL, 4),
    ("ex51", -0.5, 0): (Method.LEVIN_PHYSICAL, 5),
    ("ex51", 0.5, 1): (Method.LEVIN_FREQ, 3),
    ("ex51", -0.5, 1): (Method.LEVIN_FREQ, 3),
    ("ex51", 0.5, 2): (Method.LEVIN_FREQ, 3),
    ("ex51", -0.5, 2): (Method.LEVIN_FREQ, 3),
    ("ex52", 0.5, 0): (Method.LEVIN_PHYSICAL, 4),
    ("ex52", -0.5, 0): (Method.LEVIN_PHYSICAL, 4),
    ("ex52", 0.5, 1): (Method.LEVIN_FREQ, 3),
    ("ex52", -0.5, 1): (Method.LEVIN_FREQ, 3),
    ("ex52", 0.5, 2): (Method.LEVIN_FREQ, 3),
    ("ex52", -0.5, 2): (Method.LEVIN_FREQ, 3),
}

# Exact values of the 28 criterion-3 integrals (ex51 and ex52, alpha = +-0.5,
# w = 10^{2, 2.5, ..., 5}), written by tests/data/make_exact.py.
_EXACT_TABLE = Path(__file__).parent / "data" / "criterion3_exact.json"
# Errors at or below this many eps |Q| count as round-off, not truncation;
# the largest error of the 12 configurations that is not falling any more
# is 11 eps |Q| (ex52, alpha = -0.5, s = 2, w = 1e4.5).
_ROUNDOFF_CUT = 16.0
_EPS = np.finfo(float).eps


def _table_entries():
    return json.loads(_EXACT_TABLE.read_text())["entries"]


def _exact_values():
    """(problem, alpha, w) -> (Re, Im) of the exact integral as Fractions."""
    return {
        (e["problem"], e["alpha"], e["w"]): (Fraction(e["re"]), Fraction(e["im"]))
        for e in _table_entries()
    }


def _error_in_eps(value: complex, exact):
    """|value - exact| and the same in units of eps |exact|.

    The difference is taken exactly in rationals before it is rounded.
    """
    err = math.hypot(float(Fraction(value.real) - exact[0]),
                     float(Fraction(value.imag) - exact[1]))
    return err, err / (_EPS * math.hypot(float(exact[0]), float(exact[1])))


def _slope_model(spec, s):
    """Predicted decay exponent of criterion 3 and the error scale it fits.

    The error has an upper-endpoint term O(w^{-(s+2)}) and a lower-endpoint
    term O(w^{-(s+2+alpha)}); the algebraic kind scales by
    ``delta_alpha(alpha, w)``.  In the logarithmic kind the lower-endpoint
    term carries ln w at every alpha, and the first solve's upper-endpoint
    value enters only through the factor log g(a).  For g(a) = 1 that term
    drops out, and the second solve's, O(w^{-(s+3)}), is the upper-endpoint
    term.
    """
    alpha = spec.alpha
    if spec.kind is SingKind.ALGEBRAIC:
        return -(s + 1.0 + min(1.0 + alpha, 1.0)), lambda w: delta_alpha(alpha, w)
    assert spec.g_end() == 1.0, "the logarithmic model covers g(a) = 1 only"
    return -(s + 1.0 + min(1.0 + alpha, 2.0)), lambda w: 1.0 + abs(math.log(w))


def test_criterion_3_asymptotic_slopes():
    # Least-squares slope of log10(abs_err / scale(w)) against log10 w over
    # w in {1e2, 1e2.5, ..., 1e5} lies within +-0.2 of the target of
    # _slope_model for both linear-oscillator problems, alpha = +-0.5,
    # s in {0, 1, 2}.  Errors are measured against exact values; points
    # whose error is at most 16 eps |Q| are left out, and at least 4 points
    # must remain.
    t0 = time.perf_counter()
    exact = _exact_values()
    ws = 10.0 ** np.arange(2.0, 5.01, 0.5)
    lines = []
    failures = []
    for (pid, alpha, s), (method, n) in _SLOPE_CONFIGS.items():
        target, scale = _slope_model(builtin_problem(pid, alpha, ws[0]), s)
        logw, loge, dropped = [], [], []
        for w in ws:
            spec = builtin_problem(pid, alpha, w)
            value = compute(spec, method, n, s).value
            err, ratio = _error_in_eps(value, exact[(pid, alpha, float(w))])
            if ratio <= _ROUNDOFF_CUT:
                dropped.append(f"w=1e{math.log10(w):.1f} err={ratio:.1f} eps|Q|")
                continue
            logw.append(math.log10(w))
            loge.append(math.log10(err / scale(w)))
        slope = float(np.polyfit(logw, loge, 1)[0]) if len(logw) >= 2 else math.nan
        ok = len(logw) >= 4 and abs(slope - target) <= 0.2
        line = (f"{pid} alpha={alpha:+.1f} s={s}: slope={slope:+.3f} "
                f"target={target:+.1f} points={len(logw)} "
                f"{'pass' if ok else 'FAIL'}")
        if dropped:
            line += " left out: " + ", ".join(dropped)
        lines.append(line)
        print("criterion 3:", line)
        if not ok:
            failures.append(line)
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: runtime {elapsed:.2f} s")
    assert elapsed < 60.0
    assert not failures, (
        "{} of 12 combinations have a slope outside +-0.2 of the error "
        "model's target or fewer than 4 points above {:g} eps |Q|; the "
        "errors are exact, so a slope off target is the method's, not a "
        "reference floor:\n".format(len(failures), _ROUNDOFF_CUT)
        + "\n".join(lines)
    )


def test_criterion_3_exact_table_guard():
    # Two entries of the criterion-3 table recomputed in 40-digit
    # arithmetic on the cross-check contour angle.
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("make_exact", _EXACT_TABLE.with_name("make_exact.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    entries = _table_entries()
    for pid, alpha, log10_w in (("ex51", -0.5, 5.0), ("ex52", 0.5, 4.5)):
        entry = next(e for e in entries
                     if (e["problem"], e["alpha"], e["log10_w"]) == (pid, alpha, log10_w))
        value = gen.exact_value(pid, alpha, entry["w"], gen.CHECK_ANGLE)
        with gen.mp.workdps(gen.DPS):
            table = gen.mp.mpc(entry["re"], entry["im"])
            rel = float(abs(value - table) / abs(table))
        print(f"criterion 3 table: {pid} alpha={alpha:+.1f} w=1e{log10_w}: "
              f"relative gap {rel:.1e}")
        assert rel <= 1e-20, (pid, alpha, log10_w, rel)


def test_criterion_3_upper_endpoint_accuracy():
    # ex51, alpha = +0.5, w = 1e5: the upper-endpoint value q(a) is read off
    # the collocated ODE instead of summed from c0 and g(a) q1(a), which
    # nearly cancel; both routes then land within 32 eps |Q| of the exact
    # value.
    ref = _exact_values()[("ex51", 0.5, 1e5)]
    spec = builtin_problem("ex51", 0.5, 1e5)
    for method, n, s in ((Method.LEVIN_FREQ, 3, 2), (Method.LEVIN_PHYSICAL, 16, 0)):
        _, ratio = _error_in_eps(compute(spec, method, n, s).value, ref)
        print(f"criterion 3 endpoint: {method.value} n={n} s={s} err={ratio:.1f} eps|Q|")
        assert ratio <= 32.0, (method, n, s, ratio)


def test_criterion_4_node_convergence():
    # ex51, w = 1e3, alpha = 0.5, s = 0: error at n = 16 below 1e-10 and
    # at least a factor 10 gained per 4 nodes until the round-off plateau.
    t0 = time.perf_counter()
    ref = _reference("ex51", 0.5, 1000.0)
    spec = builtin_problem("ex51", 0.5, 1000.0)
    ns = [4, 8, 12, 16]
    errs = [abs(compute(spec, Method.LEVIN_PHYSICAL, n, 0).value - ref)
            for n in ns]
    print("criterion 4: errs", [f"{e:.3e}" for e in errs])
    assert errs[-1] <= 1e-10
    for prev, nxt in zip(errs, errs[1:]):
        if prev <= 1e-14:
            break
        assert nxt <= prev / 10.0, (prev, nxt)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: runtime {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_5_levin_filon_equivalence():
    # Linear oscillator, s = 0: the collocation route and the moment
    # route produce the same value to 1e-11 * (1 + |Q|).
    worst = 0.0
    for pid in ("ex51", "ex52"):
        for alpha in (0.5, -0.5):
            for w in (100.0, 1000.0):
                spec = builtin_problem(pid, alpha, w)
                for n in (4, 8, 12):
                    ql = compute(spec, Method.LEVIN_FREQ, n, 0).value
                    qf = compute(spec, Method.FILON, n, 0).value
                    gap = abs(ql - qf) / (1.0 + abs(ql))
                    worst = max(worst, gap)
                    assert gap <= 1e-11, (pid, alpha, w, n, gap)
    print(f"criterion 5: worst scaled route gap {worst:.3e}")


def test_criterion_6_oracle_agreement():
    # Every built-in problem, alpha = +-0.5, w in {10, 100, 1000}, n = 24,
    # s = 0: relative error against the graded-mesh oracle below 1e-8.
    worst = 0.0
    for pid in BUILTIN_IDS:
        for alpha in (0.5, -0.5):
            for w in (10.0, 100.0, 1000.0):
                spec = builtin_problem(pid, alpha, w)
                ref = _reference(pid, alpha, w)
                val = compute(spec, Method.LEVIN_PHYSICAL, 24, 0).value
                rel = abs(val - ref) / abs(ref)
                worst = max(worst, rel)
                assert rel <= 1e-8, (pid, alpha, w, rel)
    print(f"criterion 6: worst relative error {worst:.3e}")


def test_criterion_7_special_function_suite():
    # Incomplete-gamma recurrence on the imaginary axis, dual-strategy
    # 2F2 agreement on the crossover annulus, and Gamma(1, z) = e^{-z}.
    rng = np.random.default_rng(20260814)
    worst_rec = 0.0
    for _ in range(1000):
        a = rng.uniform(-0.9, 0.9)
        if abs(a) < 1e-3:
            a = 0.5
        z = 1j * 10.0 ** rng.uniform(-1.0, 4.0)
        if rng.uniform() < 0.5:
            z = -z
        g1, _ = upper_gamma_complex(a + 1.0, z)
        g0, _ = upper_gamma_complex(a, z)
        rhs = a * g0 + cmath.exp(a * cmath.log(z)) * cmath.exp(-z)
        worst_rec = max(worst_rec, abs(g1 - rhs) / max(abs(g1), abs(rhs), 1.0))
    print(f"criterion 7: worst recurrence residual {worst_rec:.3e}")
    assert worst_rec <= 1e-12

    worst_2f2 = 0.0
    for _ in range(200):
        alpha = rng.choice([-0.5, 0.5, -0.3, 0.7])
        r = rng.uniform(HYP2F2_SERIES_MAX / 2.0, 2.0 * HYP2F2_SERIES_MAX)
        z = 1j * r * (1.0 if rng.uniform() < 0.5 else -1.0)
        v_series, _ = hyp2f2_equal(alpha, z, series_max=1e9)
        v_asym, _ = hyp2f2_equal(alpha, z, series_max=1e-9)
        worst_2f2 = max(worst_2f2, abs(v_series - v_asym) / abs(v_series))
    print(f"criterion 7: worst dual-strategy 2F2 gap {worst_2f2:.3e}")
    assert worst_2f2 <= 1e-9

    worst_g1 = 0.0
    for _ in range(200):
        z = 1j * 10.0 ** rng.uniform(-1.0, 4.0)
        if rng.uniform() < 0.5:
            z = -z
        val, _ = upper_gamma_complex(1.0, z)
        worst_g1 = max(worst_g1, abs(val - cmath.exp(-z)))
    print(f"criterion 7: worst Gamma(1,z) deviation {worst_g1:.3e}")
    assert worst_g1 <= 1e-14


def test_criterion_8_solution_decay_and_picard():
    # ex51 over doubling frequencies 1e3..1e6: the collocation solution
    # norms ||q1||_inf and |c0| halve per doubling within ratio [0.3, 0.8],
    # and the third successive approximation tracks the collocation
    # solution with log-log slope at most -2.5 in w.
    ws = [1000.0 * 2.0 ** k for k in range(11)]
    q1_norms = []
    c0_mags = []
    picard_gaps = []
    for w in ws:
        spec = builtin_problem("ex51", 0.5, w)
        c0, q1, _ = solve_alg(spec, 6)
        q1_norms.append(float(np.abs(q1).max()))
        c0_mags.append(abs(c0))
        grid = radau_grid(6)
        c0_p, q1_p = picard_iterate(spec, grid, 3)[2]
        picard_gaps.append(max(abs(c0_p - c0),
                               float(np.abs(q1_p - q1).max())))
    for seq in (q1_norms, c0_mags):
        ratios = [b / a for a, b in zip(seq, seq[1:])]
        print("criterion 8: ratios", [f"{r:.3f}" for r in ratios])
        assert all(0.3 <= r <= 0.8 for r in ratios), ratios
    slope = float(np.polyfit(np.log10(ws), np.log10(picard_gaps), 1)[0])
    print(f"criterion 8: Picard k=3 gap slope {slope:+.3f}")
    assert slope <= -2.5


def test_criterion_9_levin_vs_cmfp():
    # ex54 at alpha = -0.5, w = 1e3: the collocation route reaches 1e-12
    # relative by n = 36; the composite baseline is non-monotone in its
    # panel count and needs more CPU time to reach the same accuracy.
    spec = builtin_problem("ex54", -0.5, 1000.0)
    ref = _reference("ex54", -0.5, 1000.0)

    def levin_to_tol():
        total = 0.0
        for n in range(4, 37, 4):
            t0 = time.process_time()
            val = compute(spec, Method.LEVIN_PHYSICAL, n, 0).value
            total += time.process_time() - t0
            rel = abs(val - ref) / abs(ref)
            if rel <= 1e-12:
                return total, rel, n
        return total, rel, n

    def cmfp_to_tol():
        total = 0.0
        for k in range(1, 18):
            t0 = time.process_time()
            val = cmfp(spec, 2 ** k).value
            total += time.process_time() - t0
            if abs(val - ref) / abs(ref) <= 1e-12:
                return total
        return total

    # Best of three runs per route keeps the comparison load-insensitive.
    levin_time, levin_rel, levin_n = min(levin_to_tol() for _ in range(3))
    cmfp_time_to_tol = min(cmfp_to_tol() for _ in range(3))
    print(f"criterion 9: levin rel={levin_rel:.3e} at n={levin_n}, "
          f"cpu {levin_time * 1e3:.2f} ms")
    assert levin_rel <= 1e-12 and levin_n <= 36

    rels = [abs(cmfp(spec, 2 ** k).value - ref)
            / abs(ref) for k in range(1, 18)]
    imin = int(np.argmin(rels))
    print("criterion 9: cmfp rels", [f"{r:.2e}" for r in rels])
    print(f"criterion 9: cmfp min at n1=2^{imin + 1}, "
          f"cpu to tolerance {cmfp_time_to_tol * 1e3:.2f} ms")
    assert imin < len(rels) - 1 and max(rels[imin + 1:]) > rels[imin]
    assert levin_time < cmfp_time_to_tol
