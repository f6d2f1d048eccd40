"""Composite baselines: Gauss-Legendre, CMF, CMFP, and the reference oracle."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_legendre

import oscquad.baselines
from oscquad import Method, compute
from oscquad.baselines import (
    _BLOCK_SUBPANELS,
    CMFPParams,
    cmf_composite,
    cmfp,
    default_cmfp_params,
    exponential_moments,
    gauss_legendre,
    graded_integral,
    reference_oracle,
    ORACLE_PHASE_CAP,
)
from oscquad.errors import AccuracyError, CapabilityError, ParameterError
from oscquad.problem import builtin_problem, integrand

# 40-digit values of the built-ins near alpha = -1, written by
# tests/data/make_exact.py.
_NEAR_MINUS_ONE = json.loads(
    (Path(__file__).parent / "data" / "near_minus_one_exact.json").read_text())["entries"]

mp.mp.dps = 40


class TestGaussLegendre:
    def test_linear(self):
        assert_allclose(gauss_legendre(lambda x: x, 0.0, 1.0, 2), 0.5, rtol=1e-14)

    def test_cubic(self):
        assert_allclose(gauss_legendre(lambda x: x**3, 0.0, 1.0, 2), 0.25,
                        rtol=1e-14)

    def test_exponential(self):
        got = gauss_legendre(np.exp, 0.0, 1.0, 8)
        assert abs(got - (math.e - 1.0)) <= 1e-13

    def test_degree_exactness(self):
        # m points integrate random polynomials of degree 2m-1 exactly.
        rng = np.random.default_rng(9)
        for m in range(1, 11):
            deg = 2 * m - 1
            coeffs = rng.uniform(-1.0, 1.0, deg + 1)
            got = gauss_legendre(
                lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                -0.3, 1.2, m,
            )
            exact = np.polynomial.polynomial.polyval(
                1.2, np.polynomial.polynomial.polyint(coeffs)
            ) - np.polynomial.polynomial.polyval(
                -0.3, np.polynomial.polynomial.polyint(coeffs)
            )
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            gauss_legendre(np.exp, 1.0, 0.0, 4)
        with pytest.raises(ParameterError):
            gauss_legendre(np.exp, 0.0, 1.0, 0)

    def test_rule_kept_per_order_and_read_only(self):
        # One rule per order, the bits of scipy's, which no caller can
        # change; the value is that of a freshly solved rule.
        import oscquad.baselines

        rule = oscquad.baselines._legendre_rule(24)
        assert oscquad.baselines._legendre_rule(24) is rule
        for kept, fresh in zip(rule, roots_legendre(24)):
            assert kept.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                kept[0] = 0.0
        xg, wg = roots_legendre(24)
        mid, half = 0.5 * (0.2 + 1.6), 0.5 * (1.6 - 0.2)
        want = complex(half * np.dot(wg, np.asarray(np.exp(mid + half * xg), dtype=complex)))
        assert gauss_legendre(np.exp, 0.2, 1.6, 24) == want


class TestExponentialMoments:
    def mp_moment(self, theta, k):
        return complex(
            mp.quad(lambda x: x**k * mp.e ** (1j * theta * x), [-1, 1])
        )

    def test_vs_mpmath(self):
        for theta in (0.05, 0.3, 0.7, 2.0, 13.0, -4.2):
            mom = exponential_moments(theta, 6)[0]
            for k in range(6):
                ref = self.mp_moment(theta, k)
                assert abs(mom[k] - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_zero_theta(self):
        mom = exponential_moments(0.0, 5)[0]
        expect = [2.0, 0.0, 2.0 / 3.0, 0.0, 2.0 / 5.0]
        assert_allclose(mom, expect, atol=1e-15)

    def test_branch_accuracy_at_switch(self):
        # The Taylor branch and the recurrence branch (count-aware seam at
        # 0.6 * count) both hold full accuracy against mpmath at the seam.
        count = 8
        seam = 0.6 * count
        for theta in (seam - 1e-12, seam + 1e-12):
            mom = exponential_moments(theta, count)[0]
            for k in range(count):
                ref = self.mp_moment(theta, k)
                assert abs(mom[k] - ref) <= 1e-13 * max(abs(ref), 1.0)


class TestCmfComposite:
    def test_constant_amplitude_exact(self):
        # f = 1: the rule integrates e^{iwx} exactly on each panel.
        w, a, b = 37.0, 0.2, 1.4
        got = cmf_composite(lambda x: np.ones_like(x), 4, 3, a, b, w=w)
        expect = (np.exp(1j * w * b) - np.exp(1j * w * a)) / (1j * w)
        assert abs(got - expect) <= 1e-13 * abs(expect)

    def test_single_panel_equals_n1(self):
        w = 21.0
        amp = lambda x: np.cos(x)
        direct = cmf_composite(amp, 1, 6, 0.3, 0.9, w=w)
        ref = complex(
            mp.quad(lambda x: mp.cos(x) * mp.e ** (1j * w * x), [0.3, 0.9])
        )
        assert abs(direct - ref) <= 1e-8 * abs(ref)

    def test_moderate_frequency_vs_oracle(self):
        # f = 1/(1+x) on [0.1, 1], w = 100: n = 8, m = 4 lands at 7.7e-10
        # absolute; doubling the panels brings it under 1e-10.
        w = 100.0
        amp = lambda x: 1.0 / (1.0 + x)
        ref = complex(
            mp.quad(
                lambda x: mp.e ** (1j * w * x) / (1 + x),
                [0.1 + 0.9 * k / 24.0 for k in range(25)],
                maxdegree=10,
            )
        )
        assert abs(cmf_composite(amp, 8, 4, 0.1, 1.0, w=w) - ref) <= 1e-9
        assert abs(cmf_composite(amp, 16, 4, 0.1, 1.0, w=w) - ref) <= 1e-10

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            cmf_composite(lambda x: x, 0, 4, 0.0, 1.0, w=1.0)


class TestCmfp:
    def test_ex54_pins(self):
        # Faithful-construction accuracy pins for ex54 (alpha = -0.5,
        # w = 1000): n1 = 4 stays within 6e-2 relative, n1 = 8 within 1e-2.
        from oscquad import Method, compute

        spec = builtin_problem("ex54", -0.5, 1000.0)
        ref = compute(spec, Method.LEVIN_PHYSICAL, 24, 0).value
        for n1, tol in ((4, 6e-2), (8, 1e-2)):
            res = cmfp(spec, default_cmfp_params(spec, n1))
            assert abs(res.value - ref) / abs(ref) <= tol

    def test_moderate_frequency_accuracy(self):
        # w = 50 sits under the oracle cap; n1 = 32 reaches 1e-6 relative.
        spec = builtin_problem("ex54", -0.5, 50.0)
        ref = reference_oracle(spec)
        res = cmfp(spec, default_cmfp_params(spec, 32))
        assert abs(res.value - ref) / abs(ref) <= 1e-6

    def test_degenerate_single_panel(self):
        spec = builtin_problem("ex54", -0.5, 100.0)
        params = default_cmfp_params(spec, 1)
        res = cmfp(spec, params)
        assert np.isfinite(res.value)

    def test_mesh_beyond_documented_w_refused(self):
        # At w = 1e200, n1 = 4 would need 4.6e66 sub-panels per panel; the
        # call is refused before the mesh is built.  A larger n1 needs no
        # more than w = 1e14 does and is computed.
        from oscquad import Method, compute

        spec = builtin_problem("ex54", 0.5, 1e200)
        with pytest.raises(CapabilityError, match="sub-panels"):
            compute(spec, Method.CMFP, 4, 0)
        assert np.isfinite(compute(builtin_problem("ex54", 0.5, 1e14), Method.CMFP, 4, 0).value)

    def test_nonlinear_oscillator_rejected(self):
        linear = builtin_problem("ex54", 0.5, 100.0)
        params = default_cmfp_params(linear, 4)
        nonlinear = builtin_problem("ex53a", 0.5, 100.0)
        with pytest.raises(CapabilityError):
            cmfp(nonlinear, params)

    def test_params_validation(self):
        spec = builtin_problem("ex54", -0.5, 100.0)
        good = default_cmfp_params(spec, 4)
        import dataclasses

        bad = dataclasses.replace(good, m1=0)
        with pytest.raises(ParameterError):
            cmfp(spec, bad)
        # The sub-panel count q^(m2/(m2-1)) divides by zero at m2 = 1.
        with pytest.raises(ParameterError, match="m2 must be at least 2"):
            cmfp(spec, dataclasses.replace(good, m2=1))
        assert np.isfinite(cmfp(spec, dataclasses.replace(good, m2=2)).value)


class TestGradedIntegral:
    def test_algebraic_endpoint(self):
        got = graded_integral(lambda x: np.sqrt(x), 1.0, 0.5)
        assert abs(got - 2.0 / 3.0) <= 1e-13

    def test_log_endpoint(self):
        # int_0^1 x^{-1/2} log x dx = -4.
        got = graded_integral(
            lambda x: np.log(x) / np.sqrt(x), 1.0, -0.5
        )
        assert abs(got - (-4.0)) <= 1e-12

    def test_rejects_nonintegrable(self):
        with pytest.raises(ParameterError):
            graded_integral(lambda x: 1.0 / x, 1.0, -1.0)


def _per_panel_graded(func, a, alpha, osc_rate, gl_order=24, cap_factor=0.25):
    # The oracle's rule one geometric panel at a time, with np.linspace per
    # panel, then the closed-form tail on [0, eps] from two samples: returns
    # the value, the sum of |sub-panel values| and the nodes in the order
    # func saw them.
    depth = 120  # for every a above about 1e-252, as in the tests here
    xg, wgl = roots_legendre(gl_order)
    cap = np.inf if osc_rate == 0 else cap_factor * 2.0 * np.pi / osc_rate
    pieces, nodes = [], []
    for k in range(depth):
        hi = a * 0.5**k
        lo = 0.5 * hi
        nsub = max(1, int(np.ceil((hi - lo) / cap)))
        edges = np.linspace(lo, hi, nsub + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = mid[:, None] + half[:, None] * xg[None, :]
        nodes.append(pts.ravel())
        fv = np.asarray(func(pts.ravel()), dtype=complex).reshape(pts.shape)
        pieces.append(half * (fv @ wgl))
    eps, p = a * 0.5**depth, 1.0 + alpha
    x = np.array([eps, eps * 0.5**64])
    nodes.append(x)
    # func(x) / x^alpha = A + B log x at both samples.
    u = np.asarray(func(x), dtype=complex) / x**alpha
    B = (u[0] - u[1]) / (np.log(x[0]) - np.log(x[1]))
    A = u[0] - B * np.log(x[0])
    pieces.append(np.array([eps**p * (A / p + B * (np.log(eps) / p - 1.0 / p**2))]))
    flat = np.concatenate(pieces[::-1])
    value = complex(math.fsum(flat.real) + 1j * math.fsum(flat.imag))
    return value, math.fsum(np.abs(flat)), np.concatenate(nodes)


def _oracle_rate(spec):
    # osc_rate as reference_oracle computes it.
    sample = np.linspace(0.0, spec.a, 257)
    return abs(spec.w) * float(np.max(np.abs(spec.oscillator.deriv1(sample))))


def _spy(spec, calls):
    def func(x):
        calls.append(np.array(x))
        return integrand(spec, x)

    return func


class TestGradedIntegralBatched:
    """The one-pass, blocked graded_integral keeps the per-panel rule."""

    @pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
    def test_agrees_with_per_panel_loop(self, pid):
        eps = np.finfo(float).eps
        g_end = builtin_problem(pid, 0.5, 1.0).g_end()
        for alpha in (-0.9, -0.5, 0.5, 0.9):
            for w in (1.0, 100.0, ORACLE_PHASE_CAP / g_end):
                spec = builtin_problem(pid, alpha, w)
                rate = _oracle_rate(spec)
                got = graded_integral(lambda x: integrand(spec, x), spec.a, alpha, osc_rate=rate)
                ref, size, _ = _per_panel_graded(
                    lambda x: integrand(spec, x), spec.a, alpha, rate
                )
                assert abs(got - ref) <= 4.0 * eps * size, (pid, alpha, w)
                assert got * spec.phase_shift == reference_oracle(spec)

    @pytest.mark.parametrize(
        "pid, alpha, w",
        [("ex51", 0.5, 1.0), ("ex53b", -0.5, 1e4), ("ex52", -0.99, 10.0)],
    )
    def test_nodes_bit_identical_to_linspace(self, pid, alpha, w):
        # Covers a panel split across blocks (ex53b at the phase cap) and
        # the closed-form tail's two samples, which come last.
        spec = builtin_problem(pid, alpha, w)
        rate = _oracle_rate(spec)
        calls = []
        with np.errstate(all="ignore"):
            graded_integral(_spy(spec, calls), spec.a, alpha, osc_rate=rate)
            _, _, ref_nodes = _per_panel_graded(
                lambda x: integrand(spec, x), spec.a, alpha, rate
            )
        got = np.concatenate(calls)
        assert got.shape == ref_nodes.shape
        assert np.array_equal(got.view(np.uint64), ref_nodes.view(np.uint64))

    def test_last_edge_of_each_panel_is_its_end(self):
        # For this a and rate, nsub (delta / nsub) + lo misses hi by one ulp
        # on the fifth panel; linspace sets its last edge to hi.
        a, rate = 0.9792650049457704, 229.34731937701522
        calls = []

        def func(x):
            return np.exp(1j * rate * x) / np.sqrt(x)

        def spy(x):
            calls.append(np.array(x))
            return func(x)

        got = graded_integral(spy, a, -0.5, osc_rate=rate)
        ref, size, ref_nodes = _per_panel_graded(func, a, -0.5, rate)
        got_nodes = np.concatenate(calls)
        assert np.array_equal(got_nodes.view(np.uint64), ref_nodes.view(np.uint64))
        assert abs(got - ref) <= 4.0 * np.finfo(float).eps * size

    @pytest.mark.parametrize("gl_order", [24, 32])
    def test_evaluation_blocks_are_bounded(self, gl_order):
        # ex53b at the phase cap has about 2e4 sub-panels, the top panel
        # alone about 1e4: the calls must be split into blocks.
        spec = builtin_problem("ex53b", 0.5, ORACLE_PHASE_CAP / 2.0)
        calls = []
        graded_integral(_spy(spec, calls), spec.a, 0.5, osc_rate=_oracle_rate(spec),
                        gl_order=gl_order)
        # The last call samples the closed-form tail at two points.
        assert calls[-1].size == 2
        sizes = [c.size for c in calls[:-1]]
        assert len(sizes) > 1
        assert max(sizes) <= _BLOCK_SUBPANELS * gl_order
        assert sum(sizes) % gl_order == 0

    @pytest.mark.parametrize("alpha", [-0.95, -0.99])
    def test_finiteness_near_minus_one_unchanged(self, alpha):
        # A geometric depth grown with 1/(1 + alpha) underflowed to
        # zero-width panels at x = 0 for these alpha; the fixed depth and
        # the closed-form tail keep both forms of the rule finite and equal.
        spec = builtin_problem("ex51", alpha, 10.0)
        rate = _oracle_rate(spec)
        got = graded_integral(lambda x: integrand(spec, x), spec.a, alpha, osc_rate=rate)
        ref, size, _ = _per_panel_graded(lambda x: integrand(spec, x), spec.a, alpha, rate)
        assert np.isfinite(got) and np.isfinite(ref)
        assert abs(got - ref) <= 4.0 * np.finfo(float).eps * size
        assert compute(spec, Method.ORACLE, 0, 0).value == got * spec.phase_shift


@pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
def test_oracle_does_not_depend_on_block_size(pid, monkeypatch):
    # About 1e4 sub-panels: many blocks of either size.
    spec = builtin_problem(pid, 0.5, 1e4 / builtin_problem(pid, 0.5, 1.0).g_end())
    value = reference_oracle(spec)
    monkeypatch.setattr(oscquad.baselines, "_BLOCK_SUBPANELS", 2048)
    assert oscquad.baselines._BLOCK_SUBPANELS != _BLOCK_SUBPANELS
    assert abs(reference_oracle(spec) - value) <= 1e-15 * abs(value)


def _finer_oracle(spec):
    # reference_oracle's rule with more nodes per sub-panel and sub-panels
    # half as wide.
    value = graded_integral(lambda x: integrand(spec, x), spec.a, spec.alpha,
                            osc_rate=_oracle_rate(spec), gl_order=32, cap_factor=0.125)
    return value * spec.phase_shift


class TestReferenceOracle:
    def test_depth_doubling_stability(self):
        spec = builtin_problem("ex51", 0.5, 10.0)
        v1 = reference_oracle(spec)
        v2 = _finer_oracle(spec)
        assert abs(v1 - v2) <= 1e-11 * abs(v1)

    def test_doubling_across_builtins(self):
        for pid, alpha, w in (
            ("ex52", -0.5, 100.0),
            ("ex53a", 0.5, 50.0),
            ("ex53b", -0.5, 20.0),
        ):
            spec = builtin_problem(pid, alpha, w)
            v1 = reference_oracle(spec)
            v2 = _finer_oracle(spec)
            assert abs(v1 - v2) <= 1e-11 * max(abs(v1), 1e-3)

    def test_phase_cap(self):
        spec = builtin_problem("ex51", 0.5, 10.0 * ORACLE_PHASE_CAP)
        with pytest.raises(CapabilityError, match="reference_nsd"):
            reference_oracle(spec)

    @pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
    def test_near_minus_one_within_route_gap(self, pid):
        # The closed-form tail carries most of the integral here (at
        # alpha = -0.999 the panels cover [a 2^-120, a], about 8% of it).
        # Judged against 40-digit values at alpha = -0.999, -0.99, -0.95,
        # -0.945 and w = 1e-3, 1, 1e2, 1e3: the oracle is within
        # max(4 eps |Q|, 1e-14), which is below twice the gap between the two
        # Levin routes (or 2e-14) in every case; that gap is no yardstick
        # once the routes agree more closely than the oracle's own rounding.
        eps = np.finfo(float).eps
        entries = [e for e in _NEAR_MINUS_ONE if e["problem"] == pid]
        assert len(entries) == 16
        for e in entries:
            exact = complex(float(e["re"]), float(e["im"]))
            got = reference_oracle(builtin_problem(pid, e["alpha"], e["w"]))
            assert abs(got - exact) <= max(4.0 * eps * abs(exact), 1e-14), (e["alpha"], e["w"])

    @pytest.mark.parametrize("a", [1e-200, 1e-260, 1e-300, 1e-305, 1e-307])
    def test_tiny_interval_depth(self, a):
        # Below a ~ 1e-252 the depth shrinks, and below a ~ 4e-289 the
        # second tail sample moves closer to eps, so that both samples stay
        # normal floats; the value keeps the a^(1 + alpha) scale of the
        # exact integral of x^alpha, here with f = 1 and w ~ 0.
        for alpha in (-0.9, -0.5):
            got = graded_integral(lambda x: x**alpha + 0j, a, alpha)
            exact = a ** (1.0 + alpha) / (1.0 + alpha)
            assert abs(got - exact) <= 1e-14 * exact, (alpha, got, exact)

    @pytest.mark.parametrize("a", [2.3e-308, 1e-310])
    def test_no_normal_float_below_a_refused(self, a):
        # Below 2^-1021 no sample under a is a normal float.
        with pytest.raises(ParameterError, match="no normal float"):
            graded_integral(lambda x: x**-0.5 + 0j, a, -0.5)
