"""Composite baselines: Gauss-Legendre, CMF, CMFP, and the reference oracle."""

import json
import math
from fractions import Fraction
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
from oscquad.problem import (
    Amplitude, Oscillator, SingKind, _weighted, build_problem, builtin_problem, integrand,
)

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

    @staticmethod
    def mp_moments(theta, count):
        # m_k, k < count, to 40 digits: 2/(k + 1) for even k at theta = 0,
        # else the forward recurrence at 150 digits, which absorbs its
        # amplification of at most prod_k k/|theta| (below 1e80 here).
        if theta == 0.0:
            return [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(count)]
        with mp.workdps(150):
            it = 1j * mp.mpf(theta)
            ep, em = mp.exp(it), mp.exp(-it)
            mk = (ep - em) / it
            out = [complex(mk)]
            for k in range(1, count):
                mk = (ep - (-1) ** k * em) / it - (k / it) * mk
                out.append(complex(mk))
        return out

    def test_quadrature_branch_every_count(self):
        # Below the switch |theta| = max(0.5, 0.6 count): 41 points of the
        # range, 0 included, and the last float below the switch and the
        # switch itself on either side, for every count from 1 to 30.
        for count in range(1, 31):
            switch = max(0.5, 0.6 * count)
            below = np.nextafter(switch, 0.0)
            thetas = np.concatenate([switch * np.arange(-20, 21) / 21, [below, -below, switch, -switch]])
            mom = exponential_moments(thetas, count)
            for theta, row in zip(thetas, mom):
                ref = np.array(self.mp_moments(float(theta), count))
                err = np.abs(row - ref) / np.maximum(np.abs(ref), 1.0)
                assert err.max() <= 1e-14, (count, theta, int(err.argmax()), err.max())

    def test_branch_accuracy_at_switch(self):
        # The quadrature branch and the recurrence branch (count-aware seam
        # at 0.6 * count) both hold full accuracy against mpmath at the seam.
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
            res = cmfp(spec, n1)
            assert abs(res.value - ref) / abs(ref) <= tol

    def test_moderate_frequency_accuracy(self):
        # w = 50 sits under the oracle cap; n1 = 32 reaches 1e-6 relative.
        spec = builtin_problem("ex54", -0.5, 50.0)
        ref = reference_oracle(spec)
        res = cmfp(spec, 32)
        assert abs(res.value - ref) / abs(ref) <= 1e-6

    def test_degenerate_single_panel(self):
        spec = builtin_problem("ex54", -0.5, 100.0)
        res = cmfp(spec, 1)
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
        # At w = 1e300 and n1 = 1 the count ceil(w^(4/3)) overflows a float;
        # it is taken as inf and refused the same way.
        with pytest.raises(CapabilityError, match="needs inf sub-panels"):
            cmfp(builtin_problem("ex54", 0.5, 1e300), 1)

    def test_configuration(self):
        # n = s = n1, m1 = m2 = 4 and p = (2 m1 + 1)/(1 + alpha); an n1
        # below 1 is refused before the scope check.
        spec = builtin_problem("ex54", -0.5, 100.0)
        assert default_cmfp_params(spec, 8) == (8, 8, 4, 4, 18.0)
        with pytest.raises(ParameterError, match="n1 must be at least 1"):
            cmfp(builtin_problem("ex53a", 0.5, 100.0), 0)

    def test_nonlinear_oscillator_rejected(self):
        nonlinear = builtin_problem("ex53a", 0.5, 100.0)
        with pytest.raises(CapabilityError):
            cmfp(nonlinear, 4)


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
                # The oracle integrates these g (degree 2 or less) in u = g(x);
                # it is within the x rule's rounding of the phase, which
                # reaches 4.9e-8 at the phase cap (ex51, alpha = 0.9).
                oracle = reference_oracle(spec)
                bound = 1e-13 if w <= 100.0 else 1e-7
                assert abs(oracle - got * spec.phase_shift) <= bound * abs(oracle), (pid, alpha, w)

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
        # the closed-form tail keep both forms of the rule finite and equal,
        # and the oracle's rule in u = g(x), which halves to the same depth,
        # finite and within rounding of them.
        spec = builtin_problem("ex51", alpha, 10.0)
        rate = _oracle_rate(spec)
        got = graded_integral(lambda x: integrand(spec, x), spec.a, alpha, osc_rate=rate)
        ref, size, _ = _per_panel_graded(lambda x: integrand(spec, x), spec.a, alpha, rate)
        assert np.isfinite(got) and np.isfinite(ref)
        assert abs(got - ref) <= 4.0 * np.finfo(float).eps * size
        oracle = compute(spec, Method.ORACLE, 0, 0).value
        assert np.isfinite(oracle)
        assert abs(oracle - got * spec.phase_shift) <= 4.0 * np.finfo(float).eps * size


@pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
def test_oracle_does_not_depend_on_block_size(pid, monkeypatch):
    # About 6.7e3 sub-panels a quarter period wide in u = g(x): many blocks
    # of either size, each holding shared-row sub-panels, and the last
    # the short and deep ones.
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


def test_two_product_is_exact():
    # w left = p + e exactly, the oracle's phase at a sub-panel's edge.
    rng = np.random.default_rng(5)
    left = rng.uniform(0.0, 2.0, 200)
    for w in (-1e4, 3.7, 2e4):
        prod, err = oscquad.baselines._two_product(w, left)
        for p, e, x in zip(prod, err, left):
            assert Fraction(float(p)) + Fraction(float(e)) == Fraction(w) * Fraction(float(x))


@pytest.mark.parametrize("size", [7, 512, 513, 20001])
def test_pairwise_sum_meets_fsum(size):
    # Rotating values that cancel to a sum far below their moduli, as the
    # oracle's sub-panel values do.
    rng = np.random.default_rng(size)
    x = np.cos(1.55 * np.arange(size)) * rng.uniform(0.5, 1.0, size) * 1e-5
    exact = math.fsum(x)
    assert abs(oscquad.baselines._pairwise_sum(x) - exact) <= np.spacing(abs(exact))
    # A sum of exactly 0: without each level's rounding errors it would be
    # about 1e-21 sqrt(size) off.
    zero = np.concatenate((x, -x))[rng.permutation(2 * size)]
    assert abs(oscquad.baselines._pairwise_sum(zero)) <= 1e-30


def _table_problem(e):
    # The problem of an exact-table entry: a built-in, or the f, g, a and
    # kind that the entry carries.
    if "problem" in e:
        return builtin_problem(e["problem"], e["alpha"], e["w"])
    kind = SingKind.ALGEBRAIC_LOG if e["log_kind"] else SingKind.ALGEBRAIC
    return build_problem(Amplitude.from_poly(e["f"]), Oscillator.from_poly(e["g"]),
                         a=e["a"], alpha=e["alpha"], kind=kind, w=e["w"])


def _table_bound(spec, exact):
    # test_meets_every_exact_table's bound: 1e-12 |Q| plus 3e-18 of the
    # integral of |f x^alpha [log x]|.
    modulus = graded_integral(lambda x: np.abs(_weighted(spec, x)), spec.a, spec.alpha).real
    return 1e-12 * abs(exact) + 3e-18 * modulus


def _expm1_oscillator():
    # g(x) = e^x - 1 through its series hook, with no coefficients.
    def series(xs, m):
        out = np.exp(xs)[:, None] / oscquad.problem._factorials(m)
        out[:, 0] = np.expm1(xs)
        return out

    return Oscillator(value=lambda x: np.expm1(np.asarray(x, dtype=float)), series_fn=series)


# 32-digit values of int_0^1 (1 - x/2 + x^2/4) x^alpha [log x] e^{iwg(x)} dx
# as (g, log kind, alpha, w, value).  For g = e^x - 1 by the two
# steepest-descent paths from c = 0 and c = 1, x = log(e^c + e^{i theta}
# s / w), in 40-digit mpmath quad, at theta = pi/2 and pi/3 (which agree to
# 3e-22); for g = x^3 + 1e-3 x and x^3 + 1e-6 x, whose g'(0) is small, by
# tests/data/make_exact.py's poly_value at CHECK_ANGLE and at pi/4 (which
# agree to 3e-34).
_PINNED = [
    ("expm1", False, 0.5, 300.0, complex(1.193383876365849798731144522136e-4, -7.6649257007929949543142128749098e-4)),
    ("expm1", True, -0.5, 300.0, complex(-0.66901975538869813204051174603013, -0.4401094391207212647848715922725)),
    ((0.0, 1e-3, 0.0, 1.0), False, 0.5, 1e3,
     complex(0.012189194659493016007426401568855, 0.013032276238802229282712635200269)),
    ((0.0, 1e-3, 0.0, 1.0), True, -0.5, 1e3,
     complex(-2.5266397593397691047403773507077, -0.40201136488181839177293651726989)),
    ((0.0, 1e-6, 0.0, 1.0), False, 0.5, 1e3,
     complex(0.013256472326386436074064023585192, 0.012519881688069215500796270898746)),
]


def _pinned_problem(g, log_kind, alpha, w):
    osc = _expm1_oscillator() if g == "expm1" else Oscillator.from_poly(list(g))
    return build_problem(Amplitude.from_poly([1.0, -0.5, 0.25]), osc, a=1.0, alpha=alpha,
                         kind=SingKind.ALGEBRAIC_LOG if log_kind else SingKind.ALGEBRAIC, w=w)


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

    def test_meets_every_exact_table(self):
        # Every 40-digit value the oracle takes, |w| g(a) <= the cap (250
        # entries): within 1e-12 relative, plus 3e-18 of the integral of
        # |f x^alpha [log x]| for the values that lie six decades below it.
        # There the float64 rounding of some 1.3e4 sub-panel values, each
        # about 1e-5, sets the error: ex53b at alpha = 0.9, 0.99 and w = 1e4
        # (values near 1e-7) reads 1.4e-12 and 1.6e-12 relative (up to
        # 1.6e-12 and 2.6e-12, 1.5e-18 of that integral, with other orders of
        # the same roundings), and the rule itself, summed in 30 digits,
        # 2e-14.  The rule in x was 4.7e-10 off on ex51 at w = 1e4 and 1.5e-8
        # on ex53b there.  Each entry names a built-in or carries its f, g,
        # a and kind.
        count = 0
        for path in sorted((Path(__file__).parent / "data").glob("*_exact.json")):
            for e in json.loads(path.read_text())["entries"]:
                spec = _table_problem(e)
                if abs(spec.w) * spec.g_end() > ORACLE_PHASE_CAP:
                    continue
                exact = complex(float(e["re"]), float(e["im"]))
                got = reference_oracle(spec)
                assert abs(got - exact) <= _table_bound(spec, exact), (path.stem, e)
                count += 1
        assert count == 250

    def test_every_accepted_g_is_integrated_in_u(self, monkeypatch):
        # A cubic g and g = e^x - 1 take the rule in u = g(x) as every other
        # g does: no call reaches graded_integral, the rule in x.  Their
        # values meet the exact table's bound.
        entries = json.loads((Path(__file__).parent / "data" / "cubic_exact.json").read_text())["entries"]
        cases = [(_table_problem(e), complex(float(e["re"]), float(e["im"])))
                 for e in entries if e["w"] == 1e3 and e["alpha"] == 0.9]
        cases += [(_pinned_problem(*p[:4]), p[4]) for p in _PINNED if p[0] == "expm1"]
        bounds = [_table_bound(spec, exact) for spec, exact in cases]
        calls = []
        monkeypatch.setattr(oscquad.baselines, "graded_integral", lambda *args, **kw: calls.append(args))
        assert len(cases) == 4
        for (spec, exact), bound in zip(cases, bounds):
            assert abs(reference_oracle(spec) - exact) <= bound
        assert calls == []

    @pytest.mark.parametrize("g", [(0.0, 1e-6, 0.0, 1.0), (0.0, 1e-3, 0.0, 1.0), (0.0, 1.0, 0.5, 0.3)])
    def test_newton_inverse_settles_to_rounding(self, g):
        # x(u) and g'(x(u)) within 4 eps of the 40-digit root of g(x) = u,
        # down to u = 1e-30 g(a).  A g'(0) of 1e-6 makes g nearly x^3 from
        # x = 1e-3 up, where Newton's method from the chord converges
        # linearly at first: 2 fixed steps left x 10% off at u = 1e-9.
        spec = _pinned_problem(g, False, 0.5, 10.0)
        u = np.append(np.logspace(-30, 0, 31) * spec.g_end(), [1e-9, spec.g_end()])
        x, gp = oscquad.baselines._inverse(spec)(u)
        for ui, xi, gi in zip(u, x, gp):
            root = mp.findroot(lambda t: mp.polyval([mp.mpf(c) for c in g[::-1]], t) - mp.mpf(ui), mp.mpf(xi))
            slope = mp.polyval([k * mp.mpf(c) for k, c in enumerate(g)][:0:-1], root)
            assert abs(xi - root) <= 4 * np.finfo(float).eps * root, (ui, xi)
            assert abs(gi - slope) <= 4 * np.finfo(float).eps * slope, (ui, gi)

    @pytest.mark.parametrize("case", _PINNED, ids=lambda p: f"{p[0]}-{'log' if p[1] else 'alg'}-{p[2]}")
    def test_meets_pinned_values_off_the_tables(self, case):
        # g = e^x - 1, which has no coefficients, and cubic g with a small
        # g'(0), against the 32-digit values of _PINNED, within the exact
        # tables' bound.
        spec, exact = _pinned_problem(*case[:4]), case[4]
        assert abs(reference_oracle(spec) - exact) <= _table_bound(spec, exact)

    def test_evaluation_blocks_are_bounded(self):
        # At the phase cap, the amplitude is called on blocks of at most
        # _BLOCK_SUBPANELS sub-panels of 24 nodes, and last on the tail's
        # two samples.
        calls = []

        def value(x):
            calls.append(np.size(x))
            return 1.0 / (1.0 + np.asarray(x) ** 2) + 0j

        spec = build_problem(Amplitude(value=value), Oscillator.from_poly([0.0, 1.0, 1.0]),
                             a=1.0, alpha=0.5, kind=SingKind.ALGEBRAIC, w=ORACLE_PHASE_CAP / 2.0)
        calls.clear()
        reference_oracle(spec)
        assert calls[-1] == 2
        assert len(calls) > 10
        assert max(calls) <= _BLOCK_SUBPANELS * 24

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
