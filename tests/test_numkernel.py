"""Special-function kernel tests: gamma routes, 2F2, and h-solutions."""

import cmath
import importlib
import math
import pkgutil

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscquad
import oscquad.numkernel
from oscquad import Method, compute
from oscquad.errors import AccuracyError, ParameterError
from oscquad.numkernel import (
    GAMMA_CROSSOVER,
    HYP2F2_SERIES_MAX,
    Strategy,
    gamma_real,
    hyp2f2_equal,
    kernel_h_alg,
    kernel_h_log,
    kernel_k_alg,
    kernel_k_log,
    neg_iw_pow,
    upper_gamma_complex,
)
from oscquad.problem import builtin_problem

mp.mp.dps = 40


def mp_upper_gamma(a, z):
    """Independent oracle: integrate e^{-z} int_0^inf (z+t)^{a-1} e^{-t} dt.

    The ray from z parallel to the positive real axis stays in the right
    half-plane of the integrand's decay, so plain decaying quadrature
    applies for any |arg z| < pi.
    """
    a = mp.mpf(a)
    z = mp.mpc(z)
    val = mp.quad(lambda t: (z + t) ** (a - 1) * mp.e ** (-t), [0, mp.inf])
    return complex(mp.e ** (-z) * val)


class TestGammaReal:
    def test_known_values(self):
        assert_allclose(gamma_real(1.0), 1.0, rtol=1e-14)
        assert_allclose(gamma_real(0.5), math.sqrt(math.pi), rtol=1e-14)
        assert_allclose(gamma_real(1.5), 0.5 * math.sqrt(math.pi), rtol=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(ParameterError):
            gamma_real(0.0)
        with pytest.raises(ParameterError):
            gamma_real(-2.0)


class TestUpperGammaComplex:
    def test_a_one_is_exp(self):
        z = 2.0 - 3.0j
        val, _ = upper_gamma_complex(1.0, z)
        assert_allclose(val, cmath.exp(-z), rtol=1e-14)

    def test_z_zero_is_gamma(self):
        val, diag = upper_gamma_complex(0.5, 0j)
        assert val == math.sqrt(math.pi) and diag.strategy is Strategy.SERIES

    def test_small_z_limit(self):
        # Gamma(a, z) -> Gamma(a) at rate z^a, so z = 1e-28 leaves ~1e-14.
        val, _ = upper_gamma_complex(0.5, 1e-28 + 0.0j)
        assert_allclose(val, math.sqrt(math.pi), rtol=1e-12)

    def test_imaginary_axis_vs_ray_oracle(self):
        val, _ = upper_gamma_complex(0.5, -10.0j)
        assert_allclose(val, mp_upper_gamma(0.5, -10.0j), rtol=1e-12)

    def test_both_strategies_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.uniform(-0.9, 1.9)
            if abs(a) < 1e-2:
                a = 0.5
            r = 10.0 ** rng.uniform(-1.0, 2.0)
            theta = rng.uniform(-0.5, 0.5) * math.pi
            z = r * cmath.exp(1j * theta)
            val, _ = upper_gamma_complex(a, z)
            ref = mp_upper_gamma(a, z)
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_recurrence_invariant(self):
        # Gamma(a+1, z) = a Gamma(a, z) + z^a e^{-z} on the imaginary axis.
        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(300):
            a = rng.uniform(-0.9, 0.9)
            if abs(a) < 1e-3:
                a = 0.5
            z = 1j * 10.0 ** rng.uniform(-1.0, 4.0)
            if rng.uniform() < 0.5:
                z = -z
            g1, _ = upper_gamma_complex(a + 1.0, z)
            g0, _ = upper_gamma_complex(a, z)
            rhs = a * g0 + cmath.exp(a * cmath.log(z)) * cmath.exp(-z)
            worst = max(worst, abs(g1 - rhs) / max(abs(g1), abs(rhs), 1.0))
        assert worst <= 1e-12

    def test_strategy_consistency_annulus(self):
        # Series and continued fraction agree on [rho/2, 2 rho].
        rng = np.random.default_rng(5)
        for _ in range(80):
            a = rng.uniform(-0.9, 1.9)
            if abs(a) < 1e-2:
                a = 0.5
            r = rng.uniform(0.5 * GAMMA_CROSSOVER, 2.0 * GAMMA_CROSSOVER)
            theta = rng.uniform(-0.5, 0.5) * math.pi
            z = r * cmath.exp(1j * theta)
            vs, ds = upper_gamma_complex(a, z, crossover=1e9)
            vc, dc = upper_gamma_complex(a, z, crossover=1e-9)
            assert ds.strategy is Strategy.SERIES
            assert dc.strategy is Strategy.CONTINUED_FRACTION
            assert abs(vs - vc) <= 1e-11 * max(abs(vs), abs(vc), 1.0)

    def test_left_half_plane_is_accurate_or_refused(self):
        # Near the negative real axis the continued fraction stalls for most
        # z, and a stall raises: a value that comes back is within 1e-12 of
        # mpmath's (relative, or absolute where |Gamma| < 1).
        rng = np.random.default_rng(2)
        returned = refused = 0
        for _ in range(100):
            a = rng.uniform(-0.95, 1.95)
            if abs(a) < 1e-2:
                a = 0.5
            r = 10.0 ** rng.uniform(0.0, 1.5)
            theta = (math.pi - 10.0 ** rng.uniform(-6.0, 0.19)) * rng.choice([-1.0, 1.0])
            z = r * cmath.exp(1j * theta)
            try:
                val, diag = upper_gamma_complex(a, z)
            except AccuracyError as exc:
                assert "continued fraction stalled" in str(exc)
                refused += 1
                continue
            ref = complex(mp.gammainc(a, mp.mpc(z)))
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0), (a, z)
            assert diag.strategy is Strategy.CONTINUED_FRACTION
            returned += 1
        assert returned >= 10 and refused >= 10

    def test_package_arguments_use_the_continued_fraction(self):
        # Every call of the package passes z = +-iy: from |y| > 1 on, the
        # continued fraction converges for every a in (-1, 2), well inside
        # its 600 steps.
        orders = [a for a in np.linspace(-0.99, 1.99, 31) if a != 0] + [-1e-6, 1e-6, 1 - 1e-6, 1 + 1e-6]
        heights = [1 + 1e-12] + list(np.logspace(0.0, 14.0, 29)[1:])
        for a in orders:
            for y in heights:
                for z in (1j * y, -1j * y):
                    val, diag = upper_gamma_complex(a, z)
                    assert diag.strategy is Strategy.CONTINUED_FRACTION and diag.terms_used < 200, (a, z)
                    assert cmath.isfinite(val)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            upper_gamma_complex(2.5, 1.0 + 0.0j)
        with pytest.raises(ParameterError):
            upper_gamma_complex(-0.5, 0.0 + 0.0j)

    @pytest.mark.parametrize("a, z", [(1.5, -1e306j), (-0.99, -1e-320j)])
    def test_power_overflow_is_accuracy_error(self, a, z):
        # z**a overflows on the continued fraction (|z| = 1e306, a > 1) and
        # on the series (|z| = 1e-320, a < 0).
        with pytest.raises(AccuracyError, match="overflows"):
            upper_gamma_complex(a, z)


class TestHyp2F2Equal:
    def test_z_zero(self):
        val, _ = hyp2f2_equal(0.5, 0.0 + 0.0j)
        assert_allclose(val, 1.0, rtol=1e-15)

    def test_series_point_vs_mpmath(self):
        val, diag = hyp2f2_equal(0.5, 5.0j)
        ref = complex(mp.hyp2f2(0.5, 0.5, 1.5, 1.5, mp.mpc(5.0j)))
        assert diag.strategy is Strategy.SERIES
        assert_allclose(val, ref, rtol=1e-12)

    def test_series_past_its_term_cap_is_refused(self):
        # At |z| = 250 the series needs more than _HYP2F2_SERIES_TERMS terms
        # (|z| = 200 takes 391); a series_max that sends it there raises
        # rather than return a truncated sum.
        assert oscquad.numkernel._HYP2F2_SERIES_TERMS == 400
        assert hyp2f2_equal(0.5, 200.0j, series_max=300.0)[1].terms_used == 391
        with pytest.raises(AccuracyError, match="2F2 series did not converge"):
            hyp2f2_equal(0.5, 250.0j, series_max=300.0)

    def test_large_z_dual_strategy(self):
        # Quad-precision series oracle vs the rotated-path route at |z|=200.
        val, diag = hyp2f2_equal(0.5, 200.0j)
        ref = complex(mp.hyp2f2(0.5, 0.5, 1.5, 1.5, mp.mpc(200.0j)))
        assert diag.strategy is not Strategy.SERIES
        assert abs(val - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_crossover_annulus_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            b = rng.uniform(-0.9, 1.9)
            if abs(b) < 1e-2:
                b = 0.5
            y = rng.uniform(0.5 * HYP2F2_SERIES_MAX, 2.0 * HYP2F2_SERIES_MAX)
            if rng.uniform() < 0.5:
                y = -y
            v1, _ = hyp2f2_equal(b, 1j * y, series_max=1e9)
            v2, _ = hyp2f2_equal(b, 1j * y, series_max=1e-9)
            assert abs(v1 - v2) <= 1e-9 * max(abs(v1), abs(v2), 1.0)

    @pytest.mark.parametrize("beta", [-0.95, -0.5, -0.05, 0.05, 0.5, 0.95, 1.5, 1.95])
    def test_rotated_path_vs_mpmath(self, beta):
        # The rotated path's 32-node rule against 40-digit values, on both
        # sides of the beta < 0 reduction and from just past the series
        # radius to Y = 1e8.  At beta = -0.05, Y = 1e8 the reduction's
        # division by beta loses a digit: 6.8e-15.
        b = mp.mpf(beta)
        for Y in (10.01, 10.5, 30.0, 1e3, 1e6, 1e8):
            val, diag = hyp2f2_equal(beta, 1j * Y)
            ref = complex(mp.hyp2f2(b, b, 1 + b, 1 + b, mp.mpc(0, Y)))
            assert diag.strategy is Strategy.ROTATED_PATH
            bound = 1e-14 if (beta, Y) == (-0.05, 1e8) else 1e-15
            assert abs(val - ref) <= bound * abs(ref), Y


def test_rotated_path_rule_is_read_only():
    # Every rotated-path hyp2f2_equal call reads the rule.
    nk = oscquad.numkernel
    for x in (nk._HYP2F2_NODES, nk._HYP2F2_WEIGHTS):
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            x.flags.writeable = True


class TestNegIwPow:
    def test_branch_convention(self):
        # (-iw)^alpha = exp(alpha (log|w| - i pi/2 sign(w))).
        for alpha in (0.5, -0.5, 0.3):
            for w in (100.0, -100.0, 7.5):
                expect = cmath.exp(
                    alpha * (math.log(abs(w)) - 1j * 0.5 * math.pi * math.copysign(1.0, w))
                )
                assert_allclose(neg_iw_pow(alpha, w), expect, rtol=1e-15)

    def test_reciprocal_identity(self):
        assert_allclose(
            neg_iw_pow(0.5, 123.0) * neg_iw_pow(-0.5, 123.0), 1.0, rtol=1e-15
        )


class TestKernelHAlg:
    def test_homogeneous(self):
        assert kernel_h_alg(0.0, 0.5, 10.0, 1.0) == 0.0

    def test_integral_representation(self):
        # h(x) = alpha e^{-iw gx} int_0^gx (1 - e^{iwt}) t^{alpha-1} dt.
        alpha, w, gx = 0.5, 10.0, 1.0
        val = kernel_h_alg(1.0, alpha, w, gx)
        ref = complex(
            mp.e ** (-1j * w * gx)
            * alpha
            * mp.quad(
                lambda t: (1 - mp.e ** (1j * w * t)) * t ** (alpha - 1), [0, gx]
            )
        )
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)

    def test_vanishes_at_origin(self):
        # h(0+) -> 0: the lower integration limit contributes nothing.
        for k in range(2, 9):
            val = kernel_h_alg(1.0, 0.5, 50.0, 10.0 ** (-k))
            assert abs(val) <= 10.0 ** (-k / 2.0) * 4.0

    def test_large_w_bound(self):
        # |h| stays bounded by |c0| (gx^alpha + C w^{-alpha}).
        alpha, gx = 0.5, 1.0
        base = abs(kernel_h_alg(1.0, alpha, 100.0, gx)) - gx**alpha
        visible_c = max(base, 0.0) * 100.0**alpha
        for w in (1e2, 1e3, 1e4, 1e5, 1e6):
            h = kernel_h_alg(1.0, alpha, w, gx)
            assert abs(h) <= gx**alpha + max(4.0 * visible_c, 4.0) * w ** (-alpha)

    def test_bracket_derivative_identity(self):
        # d/dX [e^{-iwX} bracket(X)] = e^{-iwX} (alpha X^{alpha-1} (1 - e^{iwX})
        # - iw bracket(X)), checked by central differences.
        alpha, w = 0.5, 30.0
        hfun = lambda X: kernel_h_alg(1.0, alpha, w, X)
        for X in (0.2, 0.7, 1.3):
            dh = 1e-6 * X
            fd = (hfun(X + dh) - hfun(X - dh)) / (2.0 * dh)
            bracket = hfun(X) * cmath.exp(1j * w * X)
            analytic = cmath.exp(-1j * w * X) * (
                alpha * X ** (alpha - 1.0) * (1.0 - cmath.exp(1j * w * X))
                - 1j * w * bracket
            )
            assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1.0)


class TestKernelHLog:
    def test_homogeneous(self):
        assert kernel_h_log(0.0, 0.0, 0.5, 10.0, 1.0) == 0.0

    def test_c0_zero_reduces_to_alg(self):
        val = kernel_h_log(0.0, 1.0, 0.5, 25.0, 0.8)
        ref = kernel_h_alg(1.0, 0.5, 25.0, 0.8)
        assert_allclose(val, ref, rtol=1e-13)

    def test_integral_representation(self):
        # c0=1, c1=0: h = e^{-iw gx} int_0^gx alpha t^{alpha-1} (1 - e^{iwt})
        #                                 (log t + 1/alpha) dt.
        alpha, w, gx = 0.5, 20.0, 1.0
        val = kernel_h_log(1.0, 0.0, alpha, w, gx)
        ref = complex(
            mp.e ** (-1j * w * gx)
            * mp.quad(
                lambda t: alpha
                * t ** (alpha - 1)
                * (1 - mp.e ** (1j * w * t))
                * (mp.log(t) + 1.0 / alpha),
                [0, gx],
            )
        )
        assert abs(val - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_vanishes_at_origin(self):
        # For alpha = -0.5 the decay is X^{1/2} log X: each decade shrinks
        # |h| by 10^{-1/2} up to the slowly varying log factor.
        mags = [
            abs(kernel_h_log(1.0, 0.5, -0.5, 40.0, 10.0 ** (-k)))
            for k in range(2, 10)
        ]
        for prev, cur in zip(mags, mags[1:]):
            assert cur <= 0.55 * prev
        assert mags[-1] <= 0.05

    @pytest.mark.parametrize("alpha", [0.5, -0.5])
    def test_matches_the_c0_over_alpha_pair(self, alpha):
        # The bracket (c0 log gx + c1 + c0/alpha) (gx^alpha + K) plus
        # (c0/alpha) gx^alpha (2F2(alpha, alpha; 1+alpha, 1+alpha; iw gx) - 1)
        # that c0 iw kernel_k_log replaces.
        for c0, c1 in ((1.0, 0.0), (0.3 - 0.2j, 1.5j)):
            for w in (3.0, 25.0, -400.0, 1e5):
                for gx in (0.3, 1.0, 2.0):
                    bracket = gx**alpha + kernel_k_alg(alpha, w, gx)
                    f22, _ = hyp2f2_equal(alpha, 1j * w * gx)
                    pair = (c0 * np.log(gx) + c1 + c0 / alpha) * bracket + (c0 / alpha) * gx**alpha * (f22 - 1.0)
                    want = np.exp(-1j * w * gx) * pair
                    got = kernel_h_log(c0, c1, alpha, w, gx)
                    assert abs(got - want) <= 1e-13 * abs(want), (c0, c1, w, gx)


class TestKernelKLog:
    @pytest.mark.parametrize("alpha", [-0.999, -1e-6, 1e-6, 0.5, 0.999])
    def test_vs_mpmath(self, alpha):
        # -gx^{1+alpha} 2F2(1+alpha, 1+alpha; 2+alpha, 2+alpha; iw gx) /
        # (1+alpha)^2 in 40 digits, on the series (|w gx| <= 10) and the
        # rotated path, for both signs of w.
        b = 1 + mp.mpf(alpha)
        for gx in (0.5, 2.0):
            for w in (10.0, 1e4, -1e4, 1e8):
                got = kernel_k_log(alpha, w, gx)
                z = mp.mpc(0, mp.mpf(w) * gx)
                want = complex(-mp.power(gx, b) * mp.hyp2f2(b, b, 1 + b, 1 + b, z) / b**2)
                assert abs(got - want) <= 1e-14 * abs(want), (gx, w)


@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_quadratures_pass_hyp2f2_a_positive_parameter(monkeypatch, alpha):
    # Every 2F2 of both Levin routes and FILON is taken at 1 + alpha, by
    # kernel_k_log, so hyp2f2_equal's reduction for a parameter below 0
    # serves its own callers only.  Every module of the package that holds
    # the name is patched, and the kept K_log is cleared before each call,
    # so that each log-kind call evaluates it.
    params = []
    real = hyp2f2_equal

    def recording(beta, z, *args):
        params.append(beta)
        return real(beta, z, *args)

    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        if hasattr(module, "hyp2f2_equal"):
            monkeypatch.setattr(module, "hyp2f2_equal", recording)
    for pid in ("ex51", "ex52", "ex53a", "ex53b"):
        spec = builtin_problem(pid, alpha, 200.0)
        for method, n, s in ((Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 10, 2), (Method.FILON, 8, 1)):
            oscquad.numkernel._end_k_log.cache.clear()
            compute(spec, method, n, s)
    assert len(params) == 6 and min(params) > 0


@pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
def test_second_rule_evaluates_no_kernel(monkeypatch, pid):
    # The end kernels are kept per (alpha, w, g(a)): after each rule has run
    # once on a problem, the rules at other node counts evaluate no
    # incomplete gamma and no 2F2, and their values are those of a cold
    # call; FILON after a Levin rule on the log kind takes K_log from it.
    kernels = (oscquad.numkernel._end_k_alg, oscquad.numkernel._end_k_log, oscquad.filon._mu_1)
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        for name in ("upper_gamma_complex", "hyp2f2_equal"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    spec = builtin_problem(pid, 0.37, 300.0)
    log_kind = pid in ("ex52", "ex53b")
    for kernel in kernels:
        kernel.cache.clear()
    compute(spec, Method.LEVIN_PHYSICAL, 16, 0)
    assert sorted(calls) == ["hyp2f2_equal", "upper_gamma_complex"][not log_kind:]
    del calls[:]
    compute(spec, Method.FILON, 8, 1)
    assert calls == ["upper_gamma_complex"]
    del calls[:]
    compute(spec, Method.LEVIN_FREQ, 10, 2)
    warm = [compute(spec, method, n, s) for method, n, s in
            ((Method.LEVIN_PHYSICAL, 12, 0), (Method.LEVIN_FREQ, 8, 1), (Method.FILON, 6, 2))]
    assert calls == []
    for kernel in kernels:
        kernel.cache.clear()
    cold = [compute(spec, method, n, s) for method, n, s in
            ((Method.LEVIN_PHYSICAL, 12, 0), (Method.LEVIN_FREQ, 8, 1), (Method.FILON, 6, 2))]
    assert [repr(r.value) for r in warm] == [repr(r.value) for r in cold]
