"""Problem construction, normalization, and regularized-amplitude tests."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import oscquad.levin
import oscquad.problem
from oscquad import Method, compute
from oscquad.errors import CapabilityError, InvalidOscillatorError, ParameterError
from oscquad.problem import (
    BUILTIN_IDS,
    Amplitude,
    Oscillator,
    ProblemSpec,
    SingKind,
    build_problem,
    builtin_problem,
    delta_alpha,
    f1_derivatives,
    integrand,
    make_f1_f2,
)

mp.mp.dps = 40


def quad_spec(alpha=0.5, w=50.0, kind=SingKind.ALGEBRAIC):
    """f = 1/(1+x^2), g = x^2 + x on [0, 1]."""
    return build_problem(
        amplitude=Amplitude(
            value=lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
            series_fn=_inv1px2_series,
        ),
        oscillator=Oscillator.from_poly([0.0, 1.0, 1.0]),
        a=1.0,
        alpha=alpha,
        kind=kind,
        w=w,
    )


def _inv1px2_series(xs, m):
    num = np.zeros((xs.size, m), dtype=complex)
    num[:, 0] = 1.0
    den = np.zeros((xs.size, m), dtype=complex)
    den[:, 0] = 1.0 + xs * xs
    if m > 1:
        den[:, 1] = 2.0 * xs
    if m > 2:
        den[:, 2] = 1.0
    from oscquad._series import ps_div

    return ps_div(num, den)


class TestValidation:
    def test_alpha_domain(self):
        for bad in (0.0, 1.0, -1.0, 1.5):
            with pytest.raises(ParameterError):
                build_problem(
                    amplitude=Amplitude.from_poly([1.0]),
                    oscillator=Oscillator.from_poly([0.0, 1.0]),
                    a=1.0,
                    alpha=bad,
                    kind=SingKind.ALGEBRAIC,
                    w=10.0,
                )

    def test_zero_frequency_rejected(self):
        with pytest.raises(ParameterError):
            build_problem(
                amplitude=Amplitude.from_poly([1.0]),
                oscillator=Oscillator.from_poly([0.0, 1.0]),
                a=1.0,
                alpha=0.5,
                kind=SingKind.ALGEBRAIC,
                w=0.0,
            )

    def test_nonmonotone_oscillator_rejected(self):
        with pytest.raises(InvalidOscillatorError):
            build_problem(
                amplitude=Amplitude.from_poly([1.0]),
                oscillator=Oscillator.from_poly([0.0, 1.0, -1.0]),
                a=1.0,
                alpha=0.5,
                kind=SingKind.ALGEBRAIC,
                w=10.0,
            )


class TestNormalization:
    def test_shift_sets_g0_zero_and_phase(self):
        # g = x^2 + x + 1 carries g(0)=1 into the phase factor.
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([1.0, 1.0, 1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=25.0,
        )
        assert spec.oscillator.value(0.0) == 0.0
        assert_allclose(spec.phase_shift, cmath.exp(25.0j), rtol=1e-15)
        assert abs(abs(spec.phase_shift) - 1.0) <= 1e-15

    def test_decreasing_oscillator_flips(self):
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([0.0, -1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=30.0,
        )
        assert spec.w == -30.0
        assert spec.oscillator.deriv1(0.5) > 0

    def test_bad_oscillator_raises_on_every_build(self):
        # A g whose g' changes sign raises on a second build too: the
        # normalization keeps only a g that passed its checks.
        osc = Oscillator.from_poly([0.0, 1.0, -1.0])
        for _ in range(2):
            with pytest.raises(InvalidOscillatorError, match="changes sign"):
                build_problem(Amplitude.from_poly([1.0]), osc, 1.0, 0.5, SingKind.ALGEBRAIC, 10.0)
        assert all(key[0] != osc._key for key in oscquad.problem._normalization.cache)

    @pytest.mark.parametrize("g", [[1.0, 1.0, 1.0], [0.5, -1.0], [0.0, 2.0]])
    def test_kept_normalization_gives_per_call_phase_and_w(self, g):
        # The shifted g is kept per (g, a); the phase e^{iwg(0)} and the
        # signed w are formed per call.
        def build(w):
            return build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly(g), 1.0, 0.5,
                                 SingKind.ALGEBRAIC, w)

        first, second = build(25.0), build(-7.0)
        sign = 1.0 if g[1] > 0 else -1.0
        assert (first.w, second.w) == (sign * 25.0, sign * -7.0)
        assert (first.phase_shift, second.phase_shift) == (cmath.exp(25.0j * g[0]), cmath.exp(-7.0j * g[0]))
        assert second.oscillator.value(0.0) == 0.0 and second.oscillator.deriv1(0.5) > 0
        assert second.oscillator._key == first.oscillator._key

    def test_nonpolynomial_oscillator_is_checked_on_every_build(self):
        calls = []

        def series(xs, m):
            calls.append(xs.size)
            return oscquad.problem.poly_taylor(np.array([0.0, 1.0]), xs, m)

        osc = Oscillator(lambda x: np.asarray(x, dtype=float), series)
        for _ in range(2):
            build_problem(Amplitude.from_poly([1.0]), osc, 1.0, 0.5, SingKind.ALGEBRAIC, 10.0)
        assert calls.count(oscquad.problem._MONOTONICITY_SAMPLES + 2) == 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nonpolynomial_shift_and_flip_keep_every_bit(self, sign):
        # g = sign e^x has g(0) = sign: normalized, it is e^x - 1 exactly, at
        # w signed by g's slope, so every rule's value is that of the
        # problem on e^x - 1 times the phase e^{iwg(0)}.  (A g(0) that does
        # not round back, such as 3 for e^x + 2, agrees only to round-off.)
        def exp_series(xs, m):
            return np.exp(xs)[:, None] / oscquad.problem._factorials(m)

        def shifted_series(xs, m):
            out = exp_series(xs, m)
            out[:, 0] -= 1.0
            return out

        g = Oscillator(lambda x: sign * np.exp(np.asarray(x, dtype=float)), lambda xs, m: sign * exp_series(xs, m))
        shifted = Oscillator(lambda x: np.exp(np.asarray(x, dtype=float)) - 1.0, shifted_series)
        f = Amplitude.from_poly([1.0, -0.5, 0.25])
        for kind in SingKind:
            spec = build_problem(f, g, 1.0, 0.5, kind, 40.0)
            assert spec.w == sign * 40.0 and spec.phase_shift == cmath.exp(40.0j * sign)
            plain = build_problem(f, shifted, 1.0, 0.5, kind, spec.w)
            for method, n, s in ((Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 10, 2)):
                got = compute(spec, method, n, s).value
                assert got == compute(plain, method, n, s).value * spec.phase_shift, (kind, method)

    @pytest.mark.parametrize("g, a", [([0.0, 0.49, -0.7, 1.0 / 3.0], 1.0), ([0.0, 0.25 - 1e-6, -0.5, 1.0 / 3.0], 1.0),
                                      ([0.0, 1.0, -1.0], 1.0), ([0.0, 0.0, 1.0], 2.0), ([0.0, -1.0, 1.0], 0.5),
                                      ([0.0, 1.0, 1.0, float("nan")], 1.0)])
    def test_polynomial_slope_vanishing_on_the_interval_is_refused(self, g, a):
        # g' = (x - 0.7)^2, zero at x = 0.7; (x - 0.5)^2 - 1e-6, negative
        # only on (0.499, 0.501), between two of the samples a
        # non-polynomial g is checked on; g' = 1 - 2x, zero inside; g' = 2x,
        # zero at the origin; g' = 2x - 1, zero at the end a = 0.5; a NaN
        # coefficient, whose g'' has no roots to form.
        with pytest.raises(InvalidOscillatorError, match="changes sign"):
            build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly(g), a, 0.5, SingKind.ALGEBRAIC, 10.0)

    @pytest.mark.parametrize("g, a", [([0.0, 0.49 + 1e-6, -0.7, 1.0 / 3.0], 1.0), ([0.0, -1.0, 1.0], 0.499),
                                      ([0.0, 1.0, -1.0], 0.4999), ([0.0, 2.0, -3.0, 1.0], 0.42),
                                      ([0.0, 1.0, 1.0, 1e-320], 1.0)])
    def test_polynomial_slope_of_one_sign_is_accepted(self, g, a):
        # g' = (x - 0.7)^2 + 1e-6 is near-stationary and legal; g' = 2x - 1
        # is negative on [0, 0.499], so g is flipped; g' = 1 - 2x and
        # g' = 3x^2 - 6x + 2 (zero at 0.4226) stay positive up to a; the
        # roots of g'' = 2 + 6e-320 x overflow, so g' is sampled.
        spec = build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly(g), a, 0.5, SingKind.ALGEBRAIC, 10.0)
        assert spec.oscillator.deriv1(0.0) > 0 and spec.oscillator.deriv1(a) > 0
        assert spec.w == (10.0 if g[1] > 0 else -10.0)

    def test_fresh_spec_reads_the_same_physical_table(self):
        # The physical route's table is kept per (g, a, n), so each spec
        # built afresh with the same g and a reads the entry of the first,
        # whatever its w; a spec on [0, 1] is its own mapping onto [0, 1].
        def build(w=30.0):
            return build_problem(Amplitude.from_poly([1.0, 0.2]), Oscillator.from_poly([0.0, 1.0, 0.5]),
                                 1.7, 0.5, SingKind.ALGEBRAIC_LOG, w)

        table = oscquad.levin._physical_table
        spec = build()
        value = compute(spec, Method.LEVIN_PHYSICAL, 12, 0).value
        size = len(table.cache)
        entry = table(spec.oscillator, 1.7, 12)
        assert next(reversed(table.cache)) == (spec.oscillator._key, 1.7, 12)
        fresh = build(40.0)
        assert fresh.oscillator is not spec.oscillator
        assert table(fresh.oscillator, fresh.a, 12) is entry
        assert compute(build(), Method.LEVIN_PHYSICAL, 12, 0).value == value
        assert len(table.cache) == size
        on_unit = builtin_problem("ex53a", 0.5, 10.0)
        assert oscquad.problem._unit_interval(on_unit) is on_unit

    def test_builtin_ids(self):
        assert set(BUILTIN_IDS) == {"ex51", "ex52", "ex53a", "ex53b", "ex54"}
        for pid in BUILTIN_IDS:
            spec = builtin_problem(pid, 0.5, 100.0)
            assert isinstance(spec, ProblemSpec)

    def test_builtin_kinds(self):
        assert builtin_problem("ex51", 0.5, 10.0).kind is SingKind.ALGEBRAIC
        assert builtin_problem("ex52", 0.5, 10.0).kind is SingKind.ALGEBRAIC_LOG
        assert builtin_problem("ex53b", 0.5, 10.0).kind is SingKind.ALGEBRAIC_LOG

    def test_unknown_builtin(self):
        with pytest.raises(ParameterError):
            builtin_problem("nope", 0.5, 10.0)


class TestMakeF1F2:
    def test_identity_oscillator(self):
        spec = builtin_problem("ex52", 0.5, 10.0)
        f1, f2 = make_f1_f2(spec)
        xs = np.linspace(0.0, 1.0, 7)
        assert_allclose(
            [f1.value(x) for x in xs],
            [spec.amplitude.value(x) for x in xs],
            rtol=1e-14,
        )
        assert np.abs([f2.value(x) for x in xs]).max() <= 1e-14

    def test_scaled_oscillator_limits(self):
        # f = 1, g = 2x: f1(0) = 2^{-1/2}, f2(0) = -log 2.
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([0.0, 2.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC_LOG,
            w=10.0,
        )
        f1, f2 = make_f1_f2(spec)
        assert_allclose(f1.value(0.0), 1.0 / math.sqrt(2.0), rtol=1e-14)
        assert_allclose(f2.value(0.0), -math.log(2.0), rtol=1e-14)

    def test_formula_at_half(self):
        spec = quad_spec(kind=SingKind.ALGEBRAIC)
        f1, _ = make_f1_f2(spec)
        x = 0.5
        ref = complex(
            (1.0 / (1.0 + mp.mpf(x) ** 2))
            * (mp.mpf(x) / (mp.mpf(x) ** 2 + x)) ** mp.mpf(0.5)
        )
        assert abs(complex(f1.value(x)) - ref) <= 1e-13 * abs(ref)

    def test_splitting_identity(self):
        # f1(x) g(x)^alpha = f(x) x^alpha on (0, a].
        for pid in BUILTIN_IDS:
            for alpha in (0.5, -0.5):
                spec = builtin_problem(pid, alpha, 37.0)
                out = make_f1_f2(spec)
                f1 = out[0]
                xs = np.linspace(1e-3, spec.a, 41)
                g = spec.oscillator.value(xs)
                lhs = np.array([f1.value(x) for x in xs]) * g**alpha
                rhs = np.array([spec.amplitude.value(x) for x in xs]) * xs**alpha
                assert np.abs(lhs - rhs).max() <= 1e-13 * max(
                    np.abs(rhs).max(), 1.0
                )

    def test_log_decomposition_identity(self):
        # f1 g^a log g + f2 x^a = f x^a log x on (0, a].
        spec = quad_spec(alpha=-0.5, kind=SingKind.ALGEBRAIC_LOG)
        f1, f2 = make_f1_f2(spec)
        xs = np.linspace(1e-3, 1.0, 31)
        g = spec.oscillator.value(xs)
        alpha = spec.alpha
        lhs = (
            np.array([f1.value(x) for x in xs]) * g**alpha * np.log(g)
            + np.array([f2.value(x) for x in xs]) * xs**alpha
        )
        rhs = np.array([spec.amplitude.value(x) for x in xs]) * xs**alpha * np.log(xs)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    @pytest.mark.parametrize("method, n, s", [(Method.LEVIN_FREQ, 10, 2), (Method.FILON, 6, 1)])
    def test_log_kind_forms_f_series_once(self, method, n, s):
        # f1 and f21 take their series on the same nodes: f's is formed
        # once per call, and the value is that of a second call.  FILON
        # takes g = beta x only.
        calls = []
        g = [0.0, 2.0] if method is Method.FILON else [0.0, 1.0, 1.0]

        def series(xs, m):
            calls.append(m)
            return _inv1px2_series(xs, m)

        spec = build_problem(Amplitude(value=lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), series_fn=series),
                             Oscillator.from_poly(g), 1.0, 0.5, SingKind.ALGEBRAIC_LOG, 50.0)
        value = compute(spec, method, n, s).value
        assert calls == [s + 1]
        assert compute(spec, method, n, s).value == value


class TestF1Derivatives:
    def test_identity_oscillator_passthrough(self):
        spec = builtin_problem("ex52", 0.5, 10.0)
        for x in (0.0, 0.3, 0.9):
            d = f1_derivatives(spec, x, 3)
            fx = 1.0 / (1.0 + x * x)
            assert_allclose(d[0], fx, rtol=1e-13)

    def test_constant_f1(self):
        # f = 1, g = 2x: f1 is the constant 2^{-alpha}.
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([0.0, 2.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=10.0,
        )
        d = f1_derivatives(spec, 0.0, 4)
        assert_allclose(d[0], 2.0**-0.5, rtol=1e-14)
        assert np.abs(d[1:]).max() <= 1e-12

    def test_origin_derivative_vs_finite_difference(self):
        # f = e^x, g = x^2 + x, alpha = -0.5: f1(x) = e^x sqrt(1 + x), which
        # extends smoothly through 0, so a plain central stencil applies.
        spec = build_problem(
            amplitude=Amplitude(
                value=lambda x: np.exp(x),
                series_fn=lambda xs, m: np.exp(xs)[:, None]
                / np.array([math.factorial(j) for j in range(m)]),
            ),
            oscillator=Oscillator.from_poly([0.0, 1.0, 1.0]),
            a=1.0,
            alpha=-0.5,
            kind=SingKind.ALGEBRAIC,
            w=10.0,
        )
        d = f1_derivatives(spec, 0.0, 1)
        closed = lambda x: math.exp(x) * math.sqrt(1.0 + x)
        h = 1e-5
        fd = (closed(h) - closed(-h)) / (2.0 * h)
        assert abs(d[1] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_interior_derivatives_vs_mpmath(self):
        spec = quad_spec(alpha=0.5)
        x = 0.45

        def f1_mp(t):
            return (1.0 / (1.0 + t**2)) * (t / (t**2 + t)) ** mp.mpf(0.5)

        d = f1_derivatives(spec, x, 3)
        for j in range(4):
            ref = complex(mp.diff(f1_mp, mp.mpf(x), j))
            assert abs(d[j] - ref) <= 1e-9 * max(abs(ref), 1.0)


class TestDeltaAlpha:
    def test_positive_alpha(self):
        assert delta_alpha(0.5, 100.0) == 1.0

    def test_negative_alpha(self):
        assert_allclose(delta_alpha(-0.5, math.e), 2.0, rtol=1e-15)

    def test_w_one(self):
        assert delta_alpha(-0.5, 1.0) == 1.0


class TestIntegrand:
    def test_formula(self):
        spec = builtin_problem("ex52", -0.5, 20.0)
        x = np.array([0.2, 0.7])
        got = integrand(spec, x)
        want = (
            (1.0 / (1.0 + x**2))
            * x**-0.5
            * np.log(x)
            * np.exp(1j * 20.0 * x)
        )
        assert_allclose(got, want, rtol=1e-13)


class TestAmplitudeHelpers:
    def test_from_poly_series(self):
        amp = Amplitude.from_poly([1.0, 2.0, 3.0])
        assert_allclose(amp.series_at(1.0, 3), [6.0, 8.0, 3.0], rtol=1e-14)

    def test_with_fd_first_derivative(self):
        amp = Amplitude.with_fd(lambda x: np.sin(x))
        assert abs(amp.series_at(0.4, 2)[1] * math.factorial(1) - math.cos(0.4)) <= 1e-9

    def test_with_fd_second_derivative(self):
        amp = Amplitude.with_fd(lambda x: np.exp(x))
        assert abs(amp.series_at(0.3, 3)[2] * math.factorial(2) - math.exp(0.3)) <= 1e-6

    def test_missing_derivatives_raise(self):
        amp = Amplitude(value=lambda x: np.exp(x))
        with pytest.raises(CapabilityError):
            amp.series_at(0.5, 3)


class TestSeriesContract:
    """``series_fn(xs, m)`` returns one row of Taylor coefficients per point."""

    def test_scalar_only_series_fn_rejected(self):
        # A builder written for one point returns shape (m,); it would
        # broadcast over the rows silently, so its shape is checked.
        amp = Amplitude(value=np.exp, series_fn=lambda x0, m: np.ones(m))
        with pytest.raises(ParameterError, match=r"expected \(2, 3\)"):
            amp.series_at(np.array([0.1, 0.2]), 3)
        with pytest.raises(ParameterError, match=r"expected \(1, 3\)"):
            amp.series_at(0.1, 3)
        osc = Oscillator(value=np.exp, series_fn=lambda xs, m: np.ones((m, xs.size)))
        with pytest.raises(ParameterError, match=r"expected \(2, 3\)"):
            osc.series_at(np.array([0.1, 0.2]), 3)

    def test_value_only_amplitude_has_order_zero(self):
        amp = Amplitude(value=lambda x: np.exp(np.asarray(x)))
        assert_allclose(amp.series_at(np.array([0.0, 1.0]), 1), [[1.0], [math.e]], rtol=1e-15)
        with pytest.raises(CapabilityError):
            amp.series_at(np.array([0.0, 1.0]), 2)

    @pytest.mark.parametrize("pid", BUILTIN_IDS)
    def test_rows_equal_single_points(self, pid):
        # f1 at all nodes in one call, the origin's limit row included, is
        # the same bit for bit as point by point.
        spec = builtin_problem(pid, -0.3, 40.0)
        f1, f2 = make_f1_f2(spec)
        xs = np.array([0.0, 0.05, 0.5, 0.9, 1.0])
        for amp in (f1, f2) if f2 is not None else (f1,):
            rows = amp.series_at(xs, 4)
            assert rows.shape == (5, 4)
            for x, row in zip(xs, rows):
                assert row.tobytes() == amp.series_at(float(x), 4).tobytes()

    def test_nonpolynomial_deriv1_is_one_batched_call(self):
        calls = []

        def series(xs, m):
            calls.append(xs.size)
            return np.exp(xs)[:, None] / np.array([math.factorial(j) for j in range(m)])

        osc = Oscillator(value=lambda x: np.exp(np.asarray(x)) - 1.0, series_fn=series)
        xs = np.linspace(0.0, 1.0, 7)
        assert_allclose(osc.deriv1(xs), np.exp(xs), rtol=1e-15)
        assert calls == [7]
        assert osc.deriv1(0.5) == pytest.approx(math.exp(0.5), rel=1e-15)
        assert np.ndim(osc.deriv1(0.5)) == 0

    def test_with_fd_rows_match_points(self):
        amp = Amplitude.with_fd(lambda x: np.sin(x))
        xs = np.array([0.2, 0.4, 0.7])
        rows = amp.series_at(xs, 3)
        for x, row in zip(xs, rows):
            assert_allclose(row, amp.series_at(float(x), 3), rtol=1e-12)
        assert_allclose(rows[:, 1], np.cos(xs), rtol=1e-9)


_COEFFS = hnp.arrays(float, st.integers(1, 7), elements=st.floats(-1e3, 1e3))
_POINTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3).map(np.array),
    hnp.arrays(float, st.integers(0, 5), elements=st.floats(-1e3, 1e3)),
)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_COEFFS, _COEFFS, _POINTS)
def test_polynomial_evaluation_is_polyval(re, im, x):
    # Degrees 0-6 at a Python float, a 0-d array or a 1-d array: the
    # polynomial amplitudes and oscillators give numpy's polyval bit for bit.
    P = np.polynomial.polynomial
    xf = np.asarray(x, dtype=float)
    osc = Oscillator.from_poly(re)
    assert _same_bits(osc.value(x), P.polyval(xf, re))
    assert _same_bits(osc.deriv1(x), P.polyval(xf, P.polyder(re)))
    size = min(re.size, im.size)
    for coeffs in (re, re[:size] + 1j * im[:size]):
        assert _same_bits(Amplitude.from_poly(coeffs).value(x), P.polyval(xf, coeffs.astype(complex)))


_REAL_COEFFS = hnp.arrays(float, st.integers(1, 8),
                          elements=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)))
_SCALAR_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-320, 1.7e308, -1.7e308]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_REAL_COEFFS, _SCALAR_POINTS)
def test_scalar_horner_is_the_array_path(coeffs, x):
    # A 0-d real point runs Horner's rule in Python floats: the same bits,
    # as an np.float64, as the point in a 1-element array, including the
    # signed zeros, infinities and NaNs of points at 0, below 0 and near
    # overflow.
    with np.errstate(all="ignore"):
        want = oscquad.problem._horner(coeffs, np.array([x]))[0]
    got = oscquad.problem._horner(coeffs, np.asarray(x, dtype=float))
    assert type(got) is np.float64
    assert got.tobytes() == want.tobytes()
