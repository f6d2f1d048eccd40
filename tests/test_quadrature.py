"""Top-level quadrature assembly and method dispatch."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oscquad.cheb
import oscquad.filon
import oscquad.levin
import oscquad.problem
import oscquad.quadrature
from oscquad import Method, QuadratureResult, compute, quad_alg, quad_log
from oscquad._result import check_counts
from oscquad.baselines import CMFPParams, cmf_composite, cmfp, gauss_legendre, graded_integral, reference_oracle
from oscquad.cheb import barycentric_eval, lobatto_grid, radau_grid
from oscquad.errors import AccuracyError, CapabilityError, OscquadError, ParameterError
from oscquad.filon import HermiteData, build_moment_table, hermite_solve, moments_mu, moments_nu, quad_freq, solve_freq
from oscquad.levin import assemble_L, picard_iterate, solve_alg, solve_log, tsvd_solve
from oscquad.numkernel import hyp2f2_equal, kernel_h_alg, upper_gamma_complex
from oscquad.problem import (
    BUILTIN_IDS,
    Amplitude,
    Oscillator,
    SingKind,
    _unit_interval,
    build_problem,
    builtin_problem,
    f1_derivatives,
)


def zero_spec(kind):
    return build_problem(
        amplitude=Amplitude.from_poly([0.0]),
        oscillator=Oscillator.from_poly([0.0, 1.0]),
        a=1.0,
        alpha=0.5,
        kind=kind,
        w=90.0,
    )


class TestQuadAlg:
    def test_zero_amplitude(self):
        res = quad_alg(zero_spec(SingKind.ALGEBRAIC), 8, 0)
        assert res.value == 0.0

    def test_kind_mismatch(self):
        spec = builtin_problem("ex52", 0.5, 100.0)
        with pytest.raises(ParameterError):
            quad_alg(spec, 8, 0)

    def test_ex51_moderate_accuracy(self):
        spec = builtin_problem("ex51", 0.5, 100.0)
        ref = reference_oracle(spec)
        res = quad_alg(spec, 10, 0)
        assert abs(res.value - ref) <= 1e-7

    def test_algebraic_error_pin_physical(self):
        # ex53a, w=100, alpha=0.5, n=4, s=0: abs error 1.5382e-05 up to
        # node-placement-sensitive digits (factor-3 band).
        spec = builtin_problem("ex53a", 0.5, 100.0)
        ref = reference_oracle(spec)
        res = quad_alg(spec, 4, 0)
        err = abs(res.value - ref)
        assert 1.5382e-05 / 3.0 <= err <= 1.5382e-05 * 3.0

    def test_result_structure(self):
        res = quad_alg(builtin_problem("ex51", -0.5, 150.0), 10, 0)
        assert isinstance(res, QuadratureResult)
        assert res.method is Method.LEVIN_PHYSICAL
        assert res.n == 10 and res.s == 0
        assert "residual_norm" in res.diagnostics


class TestQuadLog:
    def test_zero_amplitude(self):
        res = quad_log(zero_spec(SingKind.ALGEBRAIC_LOG), 8, 0)
        assert res.value == 0.0

    def test_kind_mismatch(self):
        spec = builtin_problem("ex51", 0.5, 100.0)
        with pytest.raises(ParameterError):
            quad_log(spec, 8, 0)

    def test_ex52_vs_oracle(self):
        spec = builtin_problem("ex52", -0.5, 1000.0)
        ref = reference_oracle(spec)
        res = quad_log(spec, 16, 0)
        assert abs(res.value - ref) <= 1e-9 * abs(ref)

    def test_log_error_pin_physical(self):
        # ex53b, w=100, alpha=0.5, n=4, s=0: abs error 2.2974e-05 up to
        # node-placement-sensitive digits (factor-3 band).
        spec = builtin_problem("ex53b", 0.5, 100.0)
        ref = reference_oracle(spec)
        res = quad_log(spec, 4, 0)
        err = abs(res.value - ref)
        assert 2.2974e-05 / 3.0 <= err <= 2.2974e-05 * 3.0


class TestBracketLowerLimit:
    def test_bracket_vanishes_at_origin(self):
        # Each term of the antiderivative bracket decays monotonically as
        # x -> 0+, justifying the analytic zero at the lower limit.
        spec = builtin_problem("ex51", -0.5, 300.0)
        c0, q1_nodes, _ = solve_alg(spec, 14)
        alpha, w = spec.alpha, spec.w
        grid = radau_grid(14)
        full = np.concatenate(([grid.origin_weights @ q1_nodes], q1_nodes))
        mags = []
        for k in range(4, 9):
            x = 10.0 ** (-k)
            g = float(spec.oscillator.value(x))
            q1 = barycentric_eval(grid, full, x)
            bracket = (
                g ** (alpha + 1.0) * q1
                + c0 * (1.0 - np.exp(-1j * w * g)) * g**alpha
                + kernel_h_alg(c0, alpha, w, g)
            )
            mags.append(abs(bracket))
        for prev, cur in zip(mags, mags[1:]):
            assert cur < prev


class TestCompute:
    def test_physical_rejects_hermite_order(self):
        spec = builtin_problem("ex51", 0.5, 100.0)
        with pytest.raises(CapabilityError):
            compute(spec, Method.LEVIN_PHYSICAL, 8, 1)

    def test_cmfp_rejects_nonlinear_g(self):
        spec = builtin_problem("ex53a", 0.5, 100.0)
        with pytest.raises(CapabilityError):
            compute(spec, Method.CMFP, 4, 0)

    def test_oracle_dispatch(self):
        spec = builtin_problem("ex51", 0.5, 10.0)
        res = compute(spec, Method.ORACLE, 0, 0)
        assert res.method is Method.ORACLE
        assert np.isfinite(res.value)
        assert res.diagnostics["ref_kind"] == "oracle"

    def test_oracle_rejects_high_frequency(self):
        spec = builtin_problem("ex51", 0.5, 1e6)
        with pytest.raises(CapabilityError):
            compute(spec, Method.ORACLE, 0, 0)

    def test_methods_agree(self):
        # Physical and frequency paths agree at s=0 for linear g.
        for w in (100.0, 1000.0):
            spec = builtin_problem("ex51", 0.5, w)
            a = compute(spec, Method.LEVIN_PHYSICAL, 12, 0)
            b = compute(spec, Method.LEVIN_FREQ, 12, 0)
            assert abs(a.value - b.value) <= 1e-9 * max(abs(a.value), 1e-30)


class TestLevinDiagnostics:
    """Both Levin routes report the same keys: each solve's residual and the
    factor's."""

    @pytest.mark.parametrize("pid", BUILTIN_IDS)
    def test_routes_report_the_same_keys(self, pid):
        spec = builtin_problem(pid, 0.5, 200.0)
        keys = {"residual_norm", "factor", "cond", "tsvd_truncated"}
        if spec.kind is SingKind.ALGEBRAIC_LOG:
            keys.add("residual_norm_second")
        for method, n, s in ((Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 10, 2)):
            assert set(compute(spec, method, n, s).diagnostics) == keys, method

    def test_freq_residual_within_round_off(self, monkeypatch):
        # Each solve's residual in the row-equilibrated system, against the
        # largest entry of the right-hand side it was solved for (2.2e-15 at
        # most on this grid).
        real = oscquad.levin._solve
        rhs_sizes = []

        def recording(L, fact, rhs):
            rhs_sizes.append(np.abs(rhs).max())
            return real(L, fact, rhs)

        monkeypatch.setattr(oscquad.levin, "_solve", recording)
        for pid in BUILTIN_IDS:
            for alpha in (0.5, -0.5, 0.9, -0.9):
                for w in (1e2, 1e4):
                    for npts, s in ((6, 1), (10, 2), (16, 1), (32, 2)):
                        rhs_sizes.clear()
                        diag = compute(builtin_problem(pid, alpha, w), Method.LEVIN_FREQ, npts, s).diagnostics
                        residuals = [diag[k] for k in ("residual_norm", "residual_norm_second") if k in diag]
                        assert len(residuals) == len(rhs_sizes)
                        for residual, size in zip(residuals, rhs_sizes):
                            assert residual <= 1e-12 * size, (pid, alpha, w, npts, s)


class TestNonFiniteValue:
    """A value that is not finite is an accuracy failure, not bad input."""

    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
    def test_result_refuses_non_finite_value(self, value):
        with pytest.raises(AccuracyError, match="must be finite") as info:
            QuadratureResult(value=value, method=Method.ORACLE, s=0, n=0)
        assert not isinstance(info.value, ParameterError)

    def test_oracle_near_minus_one(self):
        # The oracle's closed-form tail on [0, a 2^-120] keeps its value
        # finite at alpha = -0.99, where a deeper grading underflowed.
        spec = builtin_problem("ex51", -0.99, 1.0)
        value = compute(spec, Method.ORACLE, 8, 0).value
        want = compute(spec, Method.LEVIN_FREQ, 16, 1).value
        assert np.isfinite(value) and abs(value - want) <= 1e-13 * abs(want)


class TestDomainEdges:
    """At the edges of the documented domain a call works or is refused
    with a package error."""

    # (n, s) per method: s = 1 where the method supports it.
    N_S = {Method.LEVIN_PHYSICAL: (8, 0), Method.LEVIN_FREQ: (8, 1), Method.FILON: (8, 1),
           Method.CMFP: (4, 0), Method.ORACLE: (0, 0)}

    @pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b", "ex54"])
    @pytest.mark.parametrize("w", [1e-3, 1e14, math.nan, math.inf])
    def test_every_method_finite_or_refused(self, pid, w):
        with np.errstate(all="ignore"):
            if not math.isfinite(w):
                with pytest.raises(ParameterError, match="w must be"):
                    builtin_problem(pid, 0.5, w)
                return
            for alpha in (0.5, -0.5):
                spec = builtin_problem(pid, alpha, w)
                for method in Method:
                    try:
                        value = compute(spec, method, *self.N_S[method]).value
                    except OscquadError:
                        continue
                    assert np.isfinite(value), (alpha, method)

    @pytest.mark.parametrize("w, match", [(1e306, "overflows"), (1e-300, "underflows")])
    @pytest.mark.parametrize("pid", ["ex51", "ex53b"])
    def test_filon_outside_documented_w_refused(self, pid, w, match):
        # Gamma(1+alpha, -iw g(a)) overflows at |w| = 1e306; (-iw)^(1+alpha)
        # underflows to 0 at |w| = 1e-300.
        spec = builtin_problem(pid, 0.5, w)
        with np.errstate(all="ignore"):
            for s in (1, 2):
                with pytest.raises(AccuracyError, match=match):
                    compute(spec, Method.FILON, 8, s)

    def test_non_finite_a_refused(self):
        for a in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="a must be"):
                build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly([0.0, 1.0]),
                              a=a, alpha=0.5, kind=SingKind.ALGEBRAIC, w=10.0)

    # The methods that collocate on each grid family, with s per method.
    GRID_METHODS = {radau_grid: ((Method.LEVIN_PHYSICAL, 0),),
                    lobatto_grid: ((Method.LEVIN_FREQ, 1), (Method.FILON, 1))}

    @pytest.mark.parametrize("build", [radau_grid, lobatto_grid])
    @pytest.mark.parametrize("a", [5e-324, 1e-306, 1e33, 1e150, 1e206, 1e308, 1.79e308])
    def test_extreme_a_grid_finite_or_refused(self, build, a):
        # Grids no longer depend on a: the methods on them map [0, a] onto
        # [0, 1] (FILON scales the nodes by a), so at an extreme a the grid
        # stays finite and each call gives a finite value or a package error,
        # also where a power of g(a) overflows: FILON's moments at
        # g(a) = a + a^2 = 1e66 or 1e300, the log kind's end value at
        # g(a) = a = 1e206.
        with np.errstate(all="ignore"):
            specs = [build_problem(Amplitude.from_poly([1.0, -1.0]), Oscillator.from_poly(g),
                                   a=a, alpha=0.5, kind=kind, w=100.0)
                     for g in ([0.0, 1.0, 1.0], [0.0, 1.0]) for kind in SingKind]
            for n in (2, 8, 32, 64):
                g = build(n)
                assert all(np.isfinite(arr).all() for arr in (g.nodes, g.diff, g.bary_full))
                for spec in specs:
                    for method, s in self.GRID_METHODS[build]:
                        try:
                            value = compute(spec, method, n + s, s).value
                        except OscquadError:
                            continue
                        assert np.isfinite(value), (method, spec.kind, n)


def _short_interval_spec(a, alpha, kind, w=100.0, g=(0.0, 1.0, 1.0)):
    # (1 - x) x^alpha [log x] e^{iwg(x)} on [0, a].
    return build_problem(Amplitude.from_poly([1.0, -1.0]), Oscillator.from_poly(g),
                         a=a, alpha=alpha, kind=kind, w=w)


class TestShortIntervals:
    """Both Levin routes collocate on [0, 1]; a problem on [0, a] is mapped
    there by x = a t, so a short interval loses no accuracy."""

    ENTRIES = json.loads((Path(__file__).parent / "data" / "short_interval_exact.json").read_text())["entries"]

    @pytest.mark.parametrize("method, n, s", [(Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 16, 2)])
    def test_levin_routes_meet_exact_values(self, method, n, s):
        # a from 1e-3 down to 1e-200; the physical route was 7.3e-5 off at
        # a = 1e-10 and the frequency route 100% off at a = 1e-6.
        for e in self.ENTRIES:
            kind = SingKind.ALGEBRAIC_LOG if e["log_kind"] else SingKind.ALGEBRAIC
            value = compute(_short_interval_spec(e["a"], e["alpha"], kind, e["w"]), method, n, s).value
            exact = complex(float(e["re"]), float(e["im"]))
            assert abs(value - exact) <= 1e-13 * abs(exact), (e["a"], e["alpha"], kind)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(-12, 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0),
           st.sampled_from([0.5, -0.5]), st.sampled_from(list(SingKind)))
    def test_property_routes_agree_with_oracle(self, decade, digits, b, log10_phase, alpha, kind):
        # a log-uniform in [1e-12, 1e2].  g = x + (b/a) x^2 maps to t + b t^2
        # on [0, 1] for every a, and w is set by |w| g(a) in [1, 1e3], so the
        # accuracy should not depend on a.
        a = 10.0 ** (decade + digits)
        g_a = a + b * a
        spec = _short_interval_spec(a, alpha, kind, 10.0**log10_phase / g_a, (0.0, 1.0, b / a))
        ref = reference_oracle(spec)
        for method, n, s in ((Method.LEVIN_PHYSICAL, 24, 0), (Method.LEVIN_FREQ, 20, 2)):
            value = compute(spec, method, n, s).value
            assert abs(value - ref) <= 1e-10 * abs(ref), (method, a)

    @pytest.mark.parametrize("a", [1e-6, 0.5])
    def test_non_polynomial_oscillator(self, a):
        # g(x) = e^x - 1 through its series hook: the map divides g(a t) by
        # a and scales its Taylor coefficients, with no coefficients to
        # rescale.
        def series(xs, m):
            out = np.exp(xs)[:, None] / oscquad.problem._factorials(m)
            out[:, 0] = np.expm1(xs)
            return out

        osc = Oscillator(value=lambda x: np.expm1(np.asarray(x, dtype=float)), series_fn=series)
        for kind in SingKind:
            spec = build_problem(Amplitude.from_poly([1.0, -1.0]), osc, a=a, alpha=-0.5, kind=kind, w=100.0)
            ref = reference_oracle(spec)
            for method, n, s in ((Method.LEVIN_PHYSICAL, 24, 0), (Method.LEVIN_FREQ, 20, 2)):
                assert abs(compute(spec, method, n, s).value - ref) <= 1e-10 * abs(ref), (method, kind)

    def test_solvers_refuse_a_not_one(self):
        # The solvers below the rules work on [0, 1] only.
        spec = _short_interval_spec(0.5, 0.5, SingKind.ALGEBRAIC_LOG)
        calls = [lambda: assemble_L(spec, radau_grid(8)), lambda: solve_alg(spec, 8),
                 lambda: solve_log(spec, 8), lambda: picard_iterate(spec, radau_grid(8), 2),
                 lambda: solve_freq(spec, 8, 1)]
        for call in calls:
            with pytest.raises(ParameterError, match="work on \\[0, 1\\]"):
                call()
        unit = _unit_interval(spec)
        assert unit.a == 1.0 and unit.w == 50.0
        assert np.isfinite(solve_alg(unit, 8)[0]) and np.isfinite(solve_freq(unit, 8, 1)[0])


class TestIntegerParameters:
    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("n, s", [(8.0, 0), (8.5, 0), (True, 0), (8, 0.0), (8, False)])
    def test_non_integer_refused(self, method, n, s):
        # Refused before any work, so no TypeError or ComplexWarning escapes.
        spec = builtin_problem("ex51", 0.5, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="must be an integer"):
                compute(spec, method, n, s)


    @pytest.mark.parametrize("rule", ["quad_alg", "quad_log", "quad_freq"])
    @pytest.mark.parametrize("n, s", [(8, 1.5), (8, True), (8.0, 1), (8, 1.0)])
    def test_public_rules_name_the_value_passed(self, rule, n, s):
        # Each rule checks n and s itself, as compute does: no TypeError from
        # a float count, no result with s=True, no message about n - 1.
        spec = builtin_problem("ex52" if rule == "quad_log" else "ex51", 0.5, 10.0)
        call = {"quad_alg": quad_alg, "quad_log": quad_log, "quad_freq": quad_freq}[rule]
        passed = n if type(n) is not int else s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"must be an integer, got {passed!r}$"):
                call(spec, n, s)


class TestCheckCounts:
    @pytest.mark.parametrize("value", [3, np.int64(3)])
    def test_integers_pass(self, value):
        check_counts(n=value, s=value)

    @pytest.mark.parametrize("value", [True, 3.0, "3"])
    def test_others_refused_naming_the_value(self, value):
        with pytest.raises(ParameterError, match=f"^s must be an integer, got {re.escape(repr(value))}$"):
            check_counts(n=3, s=value)

    @pytest.mark.parametrize("method, n, s", [(Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 8, 2),
                                              (Method.FILON, 6, 1)])
    def test_once_per_compute(self, monkeypatch, method, n, s):
        calls = []

        def counting(**counts):
            calls.append(counts)
            return check_counts(**counts)

        for module in (oscquad.quadrature, oscquad.filon):
            monkeypatch.setattr(module, "check_counts", counting)
        result = compute(builtin_problem("ex53b", 0.5, 200.0), method, n, s)
        # n and s are checked once; the Filon rule reads its moments through
        # the public moments_mu, which checks the basis size it is given.
        moments = [{"count": result.diagnostics["basis_size"]}] if method is Method.FILON else []
        assert calls == [{"n": n, "s": s}, *moments]


class TestLinearityInF:
    """Q(f + c h) = Q(f) + c Q(h) through the Levin pipeline of both routes,
    on any [0, a] and either kind."""

    complex_ = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(complex_, min_size=3, max_size=3), st.lists(complex_, min_size=3, max_size=3), complex_,
           st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(0.1, 0.9), st.booleans(), st.floats(0.0, 5.0),
           st.sampled_from(list(SingKind)))
    def test_property_linear_in_f(self, f, h, c, b, a, alpha, negative, log10_w, kind):
        alpha = -alpha if negative else alpha

        def value(coeffs, method, n, s):
            spec = build_problem(Amplitude.from_poly(coeffs), Oscillator.from_poly([0.0, 1.0, b]),
                                 a=a, alpha=alpha, kind=kind, w=10.0**log10_w)
            return compute(spec, method, n, s).value

        both = [fj + c * hj for fj, hj in zip(f, h)]
        for method, n, s in ((Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 12, 1), (Method.LEVIN_FREQ, 10, 2)):
            qf, qh = value(f, method, n, s), c * value(h, method, n, s)
            assert abs(value(both, method, n, s) - (qf + qh)) <= 1e-12 * (abs(qf) + abs(qh)), (method, n, s)


class TestOneOperatorPerLevinCall:
    @pytest.mark.parametrize(
        "method, n, s, grid_name",
        [(Method.LEVIN_PHYSICAL, 16, 0, "radau_grid"), (Method.LEVIN_FREQ, 8, 2, "lobatto_grid")],
    )
    def test_log_kind_builds_one_grid_and_one_svd(self, monkeypatch, method, n, s, grid_name):
        # The f1 solve and the coupled f21 - q1 g' solve share one
        # operator, so one grid is built and one factorisation
        # (levin._factorise: LU, or truncated SVD) is taken.  The frequency
        # route looks its grid up only when it builds its kept layout, so
        # that layout and the table that holds it are cleared first.
        oscquad.filon._layout.cache.clear()
        oscquad.filon._freq_table.cache.clear()
        counts = {"factor": 0, "grid": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(oscquad.levin, "_factorise", counting("factor", oscquad.levin._factorise))
        for module in (oscquad.cheb, oscquad.levin, oscquad.filon):
            if hasattr(module, grid_name):
                monkeypatch.setattr(module, grid_name, counting("grid", getattr(module, grid_name)))
        res = compute(builtin_problem("ex53b", 0.5, 200.0), method, n, s)
        assert np.isfinite(res.value)
        assert counts == {"factor": 1, "grid": 1}


class TestOneAmplitudeBuildPerLevinCall:
    @pytest.mark.parametrize(
        "method, n, s",
        [(Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 8, 2), (Method.FILON, 6, 1)],
    )
    def test_log_kind_builds_amplitudes_once_per_problem(self, monkeypatch, method, n, s):
        # f1 and the f2 sub-problem's amplitude f21 come from one
        # _regularised call on the problem.
        kinds = []
        original = oscquad.problem._regularised

        def counting(spec, *args):
            kinds.append(spec.kind)
            return original(spec, *args)

        for module in (oscquad.problem, oscquad.levin, oscquad.filon):
            monkeypatch.setattr(module, "_regularised", counting)
        spec = builtin_problem("ex53b", 0.5, 200.0)
        res = compute(spec, method, n, s)
        assert kinds == [SingKind.ALGEBRAIC_LOG]
        monkeypatch.undo()
        assert res.value == compute(spec, method, n, s).value


# The tables kept per polynomial oscillator.
_OSCILLATOR_TABLES = (oscquad.filon._freq_table, oscquad.filon._hermite_matrix, oscquad.problem._ratio_series,
                      oscquad.levin._physical_table)


def _clear_caches():
    for table in (oscquad.cheb._radau_grid, oscquad.cheb._lobatto_grid, oscquad.filon._layout, *_OSCILLATOR_TABLES):
        table.cache.clear()


def _outcome(spec, method, n, s):
    res = compute(spec, method, n, s)
    return repr(res.value), repr(res.diagnostics)


class TestCachesChangeNoOutput:
    @pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
    def test_cold_and_warm_caches_agree(self, pid):
        # Cleared caches (every grid and table built afresh) and warm ones
        # (every lookup a hit) give the same bits.
        calls = [(builtin_problem(pid, alpha, w), method, n, s)
                 for alpha, w in ((0.5, 200.0), (-0.3, 4.0e5))
                 for method, n, s in ((Method.LEVIN_PHYSICAL, 12, 0), (Method.LEVIN_FREQ, 10, 2),
                                      (Method.FILON, 6, 1))]
        cold = []
        for args in calls:
            _clear_caches()
            cold.append(_outcome(*args))
        assert [_outcome(*args) for args in calls] == cold

    @pytest.mark.parametrize("kind", list(SingKind))
    def test_non_polynomial_g_is_never_kept(self, kind):
        # g = e^x - 1 has no coefficient vector, so its tables are built on
        # every call and no cache holds one.
        def series(xs, m):
            k = np.arange(m)
            out = np.exp(xs)[:, None] / np.array([math.factorial(j) for j in k], dtype=float)
            out[:, 0] -= 1.0
            return out

        osc = Oscillator(np.expm1, series)
        assert osc._key is None
        spec = build_problem(Amplitude.from_poly([1.0, 0.5]), osc, 1.0, 0.5, kind, 60.0)
        _clear_caches()
        for method, n, s in ((Method.LEVIN_PHYSICAL, 12, 0), (Method.LEVIN_FREQ, 8, 1), (Method.FILON, 6, 1)):
            first = _outcome(spec, method, n, s)
            assert _outcome(spec, method, n, s) == first
        assert all(not table.cache for table in _OSCILLATOR_TABLES)

    @pytest.mark.parametrize("kind", list(SingKind))
    def test_one_ulp_apart_is_another_g(self, kind):
        # Two g one ulp apart in one coefficient have an entry each, and the
        # second gives its own bits after the first has filled the caches.
        specs = [build_problem(Amplitude.from_poly([1.0, 0.5]), Oscillator.from_poly([0.0, 1.0, c]), 1.0, 0.5,
                               kind, 60.0) for c in (0.5, np.nextafter(0.5, 1.0))]
        calls = [(Method.LEVIN_PHYSICAL, 12, 0), (Method.LEVIN_FREQ, 8, 1), (Method.FILON, 6, 1)]
        _clear_caches()
        cold = [_outcome(specs[1], *call) for call in calls]
        one_g = [len(table.cache) for table in _OSCILLATOR_TABLES]
        assert all(one_g)
        _clear_caches()
        for call in calls:
            _outcome(specs[0], *call)
        assert [_outcome(specs[1], *call) for call in calls] == cold
        assert [len(table.cache) for table in _OSCILLATOR_TABLES] == [2 * k for k in one_g]


class TestConvergenceInN:
    def test_superalgebraic_decay(self):
        spec = builtin_problem("ex51", -0.5, 1000.0)
        ref = reference_oracle(spec)
        errs = []
        for n in (4, 8, 12, 16, 20):
            res = quad_alg(spec, n, 0)
            errs.append(max(abs(res.value - ref), 1e-18))
        assert errs[2] <= 1e-2 * errs[0]
        assert errs[-1] <= 1e-12


class TestNonIntegerCounts:
    """Every count and order of the public pieces is refused unless it is an
    integer, with a ParameterError that names the value."""

    @pytest.mark.parametrize("call, name, value", [
        (lambda: build_moment_table(builtin_problem("ex52", 0.5, 100.0), 2.5), "count", 2.5),
        (lambda: moments_mu(0.5, 100.0, 1.0, True), "count", True),
        (lambda: picard_iterate(builtin_problem("ex51", 0.5, 100.0), radau_grid(8), 1.5), "k", 1.5),
        (lambda: f1_derivatives(builtin_problem("ex51", 0.5, 100.0), 0.5, 2.5), "max_order", 2.5),
    ], ids=["build_moment_table", "moments_mu", "picard_iterate", "f1_derivatives"])
    def test_refused_naming_the_value(self, call, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call()


_HERMITE_EMPTY = HermiteData(nodes=np.empty(0), mults=np.empty(0, dtype=int), values=np.empty((0, 1), dtype=complex))


class TestBadArgumentsRefused:
    """The public pieces refuse a count, range or non-finite argument with a
    ParameterError that names it, not with an error of NumPy, SciPy, LAPACK
    or the math module, and do not compute on with it."""

    @pytest.mark.parametrize("call, name", [
        (lambda: gauss_legendre(np.exp, 0.0, 1.0, 2.5), "m"),
        (lambda: gauss_legendre(np.exp, 0.0, 1.0, True), "m"),
        (lambda: cmf_composite(np.cos, 2.5, 4, 0.0, 1.0, w=1.0), "n"),
        (lambda: cmf_composite(np.cos, 4, 2.5, 0.0, 1.0, w=1.0), "m"),
        (lambda: cmfp(builtin_problem("ex54", 0.5, 100.0), CMFPParams(n=2.5, s=2, m1=4, m2=4, p=3.0)), "n"),
        (lambda: cmfp(builtin_problem("ex54", 0.5, 100.0), CMFPParams(n=2, s=2, m1=2.5, m2=4, p=3.0)), "m1"),
        (lambda: graded_integral(np.cos, 1.0, 0.5, gl_order=2.5), "gl_order"),
        (lambda: graded_integral(np.cos, 1.0, 0.5, gl_order=0), "gl_order"),
        (lambda: graded_integral(np.cos, math.inf, 0.5), "a"),
        (lambda: graded_integral(np.cos, 1.0, 0.5, osc_rate=10.0, cap_factor=0.0), "cap_factor"),
        (lambda: graded_integral(np.cos, 1.0, 0.5, osc_rate=10.0, cap_factor=-1.0), "cap_factor"),
        (lambda: graded_integral(np.cos, 1.0, 0.5, osc_rate=-10.0), "osc_rate"),
        (lambda: moments_nu(0.5, 0.0, 1.0, moments_mu(0.5, 10.0, 1.0, 3)), "w"),
        (lambda: moments_nu(0.5, 10.0, -1.0, moments_mu(0.5, 10.0, 1.0, 3)), "g_a"),
        (lambda: tsvd_solve(np.eye(3), np.ones(4)), "rhs"),
        (lambda: hermite_solve(_HERMITE_EMPTY, builtin_problem("ex51", 0.5, 100.0)), "Hermite data"),
        (lambda: hyp2f2_equal(0.5, complex("nan")), "z"),
        (lambda: upper_gamma_complex(0.5, complex("nan")), "z"),
    ], ids=["gauss_legendre-m", "gauss_legendre-bool", "cmf_composite-n", "cmf_composite-m", "cmfp-n", "cmfp-m1",
            "graded_integral-gl_order", "graded_integral-gl_order-0", "graded_integral-a-inf",
            "graded_integral-cap_factor-0", "graded_integral-cap_factor-negative",
            "graded_integral-osc_rate-negative", "moments_nu-w", "moments_nu-g_a",
            "tsvd_solve-rhs", "hermite_solve-empty", "hyp2f2_equal-nan", "upper_gamma_complex-nan"])
    def test_parameter_error_names_the_argument(self, call, name):
        with pytest.raises(ParameterError, match=rf"^{name} "):
            call()
