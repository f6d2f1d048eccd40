"""Frequency-space Hermite collocation, moments, and Filon quadrature."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscquad.filon
import oscquad.levin
from oscquad import Method, compute
from oscquad.errors import CapabilityError, DegenerateSystemError, ParameterError
from oscquad.filon import (
    build_hermite_data,
    build_moment_table,
    hermite_solve,
    moments_mu,
    moments_nu,
    quad_filon,
    quad_freq,
    solve_freq,
)
from oscquad.problem import (
    BUILTIN_IDS,
    Amplitude,
    Oscillator,
    SingKind,
    build_problem,
    builtin_problem,
)

from mapped import mapped_onto_unit
from oscquad.baselines import reference_nsd, reference_oracle
from oscquad.cheb import lobatto_grid

mp.mp.dps = 40

# The built-ins whose g is beta x, the only g FILON takes.
LINEAR_IDS = ("ex51", "ex52", "ex54")


def mp_moment(alpha, w, g_a, j, log=False):
    """Oracle: int_0^{g_a} u^{j-1+alpha} (log u)? e^{iwu} du."""
    expo = mp.mpf(j - 1 + alpha)
    if log:
        fn = lambda u: u**expo * mp.log(u) * mp.e ** (1j * w * u)
    else:
        fn = lambda u: u**expo * mp.e ** (1j * w * u)
    return complex(mp.quad(fn, [0, mp.mpf(g_a)]))


class TestMomentsMu:
    def test_alpha_zero_limit(self):
        # Outside the enforced problem range but fine for raw moments:
        # mu_1 reduces to the plain exponential moment.
        w, g_a = 7.0, 1.0
        mu = moments_mu(0.0, w, g_a, 1)
        expect = (np.exp(1j * w * g_a) - 1.0) / (1j * w)
        assert_allclose(mu[0], expect, rtol=1e-13)

    def test_mu1_vs_oracle(self):
        mu = moments_mu(0.5, 20.0, 1.0, 1)
        ref = mp_moment(0.5, 20.0, 1.0, 1)
        assert abs(mu[0] - ref) <= 1e-11 * abs(ref)

    def test_mu3_recurrence_vs_oracle(self):
        mu = moments_mu(0.5, 20.0, 1.0, 3)
        ref = mp_moment(0.5, 20.0, 1.0, 3)
        assert abs(mu[2] - ref) <= 1e-10 * max(abs(ref), 1.0)

    def test_negative_alpha_and_w(self):
        mu = moments_mu(-0.5, -35.0, 0.8, 2)
        for j in (1, 2):
            ref = mp_moment(-0.5, -35.0, 0.8, j)
            assert abs(mu[j - 1] - ref) <= 1e-10 * max(abs(ref), 1.0)

    def test_recurrence_residual_invariant(self):
        alpha, w, g_a = 0.5, 40.0, 1.3
        mu = moments_mu(alpha, w, g_a, 6)
        phase = np.exp(1j * w * g_a)
        for j in range(1, 6):
            resid = (
                mu[j]
                + ((j + alpha) / (1j * w)) * mu[j - 1]
                - g_a ** (j + alpha) * phase / (1j * w)
            )
            assert abs(resid) <= 1e-12 * abs(mu[j])


class TestSmallFrequency:
    """Where the forward recurrence would amplify errors, the moments come
    from the power series of e^{iwu}."""

    @pytest.mark.parametrize("alpha, w, g_a", [(0.5, 1e-3, 1.0), (-0.5, -0.2, 0.8), (0.3, 1.0, 1.7)])
    def test_series_moments_vs_oracle(self, alpha, w, g_a):
        count = 6
        assert oscquad.filon._recurrence_amplifies(alpha, w, g_a, count)
        mu = moments_mu(alpha, w, g_a, count)
        nu = moments_nu(alpha, w, g_a, mu)
        for j in range(1, count + 1):
            for got, log in ((mu[j - 1], False), (nu[j - 1], True)):
                ref = mp_moment(alpha, w, g_a, j, log)
                assert abs(got - ref) <= 1e-13 * abs(ref), (j, log)

    def test_series_agrees_with_recurrence(self):
        # |w| g_a = 5 and 8 moments: the recurrence is used and damps errors,
        # and the series loses at most e^5-fold round-off.
        alpha, w, g_a, count = 0.5, 5.0, 1.0, 8
        assert not oscquad.filon._recurrence_amplifies(alpha, w, g_a, count)
        mu = moments_mu(alpha, w, g_a, count)
        nu = moments_nu(alpha, w, g_a, mu)
        for log, want in ((False, mu), (True, nu)):
            got = oscquad.filon._moment_series(alpha, w, g_a, count, log)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("pid, tol", [("ex51", 1e-10), ("ex52", 1e-7)])
    def test_filon_at_small_w(self, pid, tol):
        # The recurrence divides by iw: at w = 1e-3 it was off by 1.7e17
        # (ex51) and 1.1e20 (ex52) relative.  The series gives the errors of
        # w = 1.
        spec = builtin_problem(pid, 0.5, 1e-3)
        ref = reference_oracle(spec)
        value = compute(spec, Method.FILON, 8, 1).value
        assert abs(value - ref) <= tol * abs(ref)


class TestMomentsNu:
    def test_nu1_vs_oracle(self):
        for alpha, w in ((0.5, 20.0), (-0.5, 15.0)):
            mu = moments_mu(alpha, w, 1.0, 1)
            nu = moments_nu(alpha, w, 1.0, mu)
            ref = mp_moment(alpha, w, 1.0, 1, log=True)
            assert abs(nu[0] - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_nu2_recurrence_residual(self):
        alpha, w, g_a = 0.5, 25.0, 1.0
        mu = moments_mu(alpha, w, g_a, 3)
        nu = moments_nu(alpha, w, g_a, mu)
        phase = np.exp(1j * w * g_a)
        for j in (1, 2):
            resid = (
                nu[j]
                + ((j + alpha) / (1j * w)) * nu[j - 1]
                + mu[j - 1] / (1j * w)
                - g_a ** (j + alpha) * math.log(g_a) * phase / (1j * w)
            )
            assert abs(resid) <= 1e-12 * max(abs(nu[j]), abs(mu[j - 1]))

    def test_nu2_vs_oracle(self):
        mu = moments_mu(0.5, 25.0, 1.0, 2)
        nu = moments_nu(0.5, 25.0, 1.0, mu)
        ref = mp_moment(0.5, 25.0, 1.0, 2, log=True)
        assert abs(nu[1] - ref) <= 1e-10 * max(abs(ref), 1.0)


class TestBuildMomentTable:
    def test_table_matches_raw_calls(self):
        spec = builtin_problem("ex52", 0.5, 30.0)
        mu, nu = build_moment_table(spec, 4)
        assert_allclose(mu, moments_mu(0.5, spec.w, spec.g_end(), 4), rtol=1e-14)
        assert_allclose(nu, moments_nu(0.5, spec.w, spec.g_end(), mu), rtol=1e-14)

    def test_algebraic_table_has_no_nu(self):
        spec = builtin_problem("ex51", 0.5, 30.0)
        _, nu = build_moment_table(spec, 4)
        assert nu is None


class TestHermiteSolve:
    def test_span_member_recovered(self):
        # f1 = g'(2 + 3g) with g = 2.5x on [0, 2] expands to the polynomial
        # 5 + 18.75x, a member of span{g', g'g}: coefficients come back as
        # (2, 3, 0, ...) through the column scales and the row factors.
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([0.0, 2.5]),
            a=2.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=40.0,
        )
        amp = Amplitude.from_poly([5.0, 18.75])
        npts, s = 4, 1
        nodes = 2.0 * lobatto_grid(npts - 1).nodes
        values = amp.series_at(nodes, s + 1) * [math.factorial(j) for j in range(s + 1)]
        coeffs = hermite_solve(values, spec)
        expect = np.zeros(coeffs.size)
        expect[0], expect[1] = 2.0, 3.0
        assert_allclose(coeffs, expect, atol=1e-9)

    def test_interpolation_conditions(self):
        # g = 0.3x on [0, 2], n=4, s=1: values and first derivatives at the
        # endpoints.
        spec = build_problem(Amplitude.from_poly([1.0, -0.5, 0.25]), Oscillator.from_poly([0.0, 0.3]), 2.0, 0.5,
                             SingKind.ALGEBRAIC, 100.0)
        values = build_hermite_data(spec, 4, 1)
        coeffs = hermite_solve(values, spec)
        osc = spec.oscillator
        # The Lobatto nodes on [0, 2], two conditions at each end.
        nodes, mults = 2.0 * lobatto_grid(3).nodes, (2, 1, 1, 2)

        def interp(x):
            g = osc.value(x)
            gp = osc.deriv1(x)
            return gp * sum(c * g**k for k, c in enumerate(coeffs))

        for x, m, vals in zip(nodes, mults, values):
            assert abs(interp(float(x)) - vals[0]) <= 1e-9 * max(
                abs(vals[0]), 1.0
            )
            if m > 1:
                h = 1e-6 * max(float(x), 0.01)
                lo = max(float(x) - h, 0.0)
                fd = (interp(float(x) + h) - interp(lo)) / (float(x) + h - lo)
                assert abs(fd - vals[1]) <= 1e-4 * max(abs(vals[1]), 1.0)

    def test_one_ps_mul_per_basis_column(self, monkeypatch):
        # The column recurrence t^{k+1} = t^k t covers all nodes with one
        # ps_mul per basis function after the first when the matrix is
        # built (none past the last); a call that finds it kept for this g
        # takes none.
        spec = builtin_problem("ex52", 0.5, 100.0)
        values = build_hermite_data(spec, 6, 2)
        oscquad.filon._hermite_matrix.cache.clear()
        calls = []
        real = oscquad.filon.ps_mul

        def counting(a, b):
            calls.append(np.shape(a))
            return real(a, b)

        monkeypatch.setattr(oscquad.filon, "ps_mul", counting)
        hermite_solve(values, spec)
        # A basis of npts + 2 s = 10 functions.
        assert len(calls) == 10 - 1
        assert all(shape == (6, 3) for shape in calls)
        calls.clear()
        hermite_solve(values, spec)
        assert calls == []

    @pytest.mark.parametrize("pid, columns", [("ex51", 1), ("ex52", 2)])
    def test_one_solve_for_every_table(self, monkeypatch, pid, columns):
        # The log kind's f1 and f21 tables share the Hermite matrix: one
        # solve with a right-hand-side column per table.
        calls = []
        real = np.linalg.solve

        def counting(A, b):
            calls.append(np.shape(b)[1:])
            return real(A, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        compute(builtin_problem(pid, 0.5, 100.0), Method.FILON, 8, 1)
        assert calls == [(columns,)]

    def test_basis_cap(self):
        spec = builtin_problem("ex51", 0.5, 100.0)
        with pytest.raises(CapabilityError, match="basis size 45 exceeds"):
            build_hermite_data(spec, 45, 0)
        with pytest.raises(CapabilityError, match="basis size 408 exceeds"):
            build_hermite_data(spec, 8, 200)


class TestQuadFilon:
    def test_zero_amplitude(self):
        spec = build_problem(
            amplitude=Amplitude.from_poly([0.0]),
            oscillator=Oscillator.from_poly([0.0, 1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=60.0,
        )
        res = quad_filon(spec, build_hermite_data(spec, 5, 1))
        assert res.value == 0.0

    def test_span_exactness(self):
        # g = x, f = 2 + 3x: the value is exactly 2 mu_1 + 3 mu_2.
        spec = build_problem(
            amplitude=Amplitude.from_poly([2.0, 3.0]),
            oscillator=Oscillator.from_poly([0.0, 1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=75.0,
        )
        res = quad_filon(spec, build_hermite_data(spec, 4, 0))
        mu = moments_mu(0.5, spec.w, 1.0, 2)
        expect = 2.0 * mu[0] + 3.0 * mu[1]
        assert abs(res.value - expect) <= 1e-10 * abs(expect)

    @pytest.mark.parametrize("pid", LINEAR_IDS)
    def test_public_pieces_give_compute_bit_for_bit(self, pid):
        # quad_filon on build_hermite_data is compute(FILON), bit for bit,
        # over the benchmark's FILON grid.
        spec = builtin_problem(pid, -0.5, 300.0)
        for npts in (4, 6, 8):
            for s in (0, 1, 2):
                assert quad_filon(spec, build_hermite_data(spec, npts, s)) == compute(spec, Method.FILON, npts, s)

    def test_reads_no_series_of_g(self, monkeypatch):
        # FILON reads g = beta x through beta alone: neither a cold call nor
        # a public piece forms a series of g.
        def refuse(*args):
            raise AssertionError("a series of g was read")

        monkeypatch.setattr(Oscillator, "series_at", refuse)
        for table in (oscquad.filon._hermite_matrix, oscquad.problem._ratio_series):
            table.cache.clear()
        for beta in (1.0, 2.5):
            for kind in SingKind:
                spec = build_problem(Amplitude.from_poly([1.0, -0.5]), Oscillator.from_poly([0.0, beta]), 2.0, 0.5,
                                     kind, 30.0)
                values = build_hermite_data(spec, 6, 1)
                hermite_solve(values, spec)
                assert quad_filon(spec, values) == compute(spec, Method.FILON, 6, 1)

    def test_underflowing_row_factors_refused(self):
        # g = 1e-200 x on [0, 1e200] has g(a) = 1, but the row factors
        # beta / a^j of the derivative conditions underflow to 0: without
        # a warning, s = 0 computes and s >= 1 is refused as singular.
        spec = build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly([0.0, 1e-200]), 1e200, 0.5,
                             SingKind.ALGEBRAIC, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(compute(spec, Method.FILON, 4, 0).value)
            for s in (1, 2):
                with pytest.raises(DegenerateSystemError, match="singular Hermite system"):
                    compute(spec, Method.FILON, 4, s)

    @pytest.mark.parametrize("kind", list(SingKind))
    @pytest.mark.parametrize("a", [1e200, 1e308])
    def test_overflowing_g_end_named(self, kind, a):
        # g = 1e300 x overflows at these a: the refusal names g(a), not the
        # powers of it it would otherwise break.
        with np.errstate(all="ignore"):
            spec = build_problem(Amplitude.from_poly([1.0, -1.0]), Oscillator.from_poly([0.0, 1e300]),
                                 a=a, alpha=0.5, kind=kind, w=100.0)
            with pytest.raises(ParameterError, match=r"g\(a\) = inf is not finite"):
                compute(spec, Method.FILON, 8, 1)


class TestSolveFreq:
    def test_returns_finite_solution(self):
        spec = builtin_problem("ex51", 0.5, 200.0)
        c0, coeffs, diag = solve_freq(spec, 8, 1)
        assert np.isfinite(c0)
        assert np.isfinite(coeffs).all()
        assert diag["factor"] == "lu"
        assert np.isfinite(diag["cond"])
        assert diag == compute(spec, Method.LEVIN_FREQ, 8, 1).diagnostics

    def test_quadrature_matches_oracle(self):
        spec = builtin_problem("ex51", 0.5, 200.0)
        ref = reference_oracle(spec)
        got = quad_freq(spec, 10, 1).value
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_filon_levin_equivalence(self):
        # Linear g, multiplicities all 1: the Filon value and the
        # frequency-space Levin value coincide to round-off.
        for pid, alpha in (("ex51", 0.5), ("ex52", -0.5)):
            spec = builtin_problem(pid, alpha, 300.0)
            qf = quad_filon(spec, build_hermite_data(spec, 7, 0))
            ql = quad_freq(spec, 7, 0)
            assert abs(qf.value - ql.value) <= 1e-11 * (1.0 + abs(ql.value))

    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("beta", [0.3, 2.5])
    def test_filon_is_levin_freq_on_beta_x(self, beta, a):
        # On g = beta x with beta != 1 or a != 1, where the Hermite matrix
        # takes its row factors beta / a^j, FILON (n, s) is LEVIN_FREQ (n, s)
        # to round-off, for both kinds and every s the factors reach.  f is
        # quadratic, so both rules are exact and any gap is round-off or a
        # wrong factor.  (For f = 1/(1 + x^2) at beta = 0.3, a = 0.5, w = 10,
        # (8, 2), LEVIN_FREQ's near-singular operator puts it 1.1e-11 off
        # the 40-digit Hermite interpolant's integral, and FILON 1.4e-16.)
        f = Amplitude.from_poly([1.0, -0.5, 0.25])
        worst = 0.0
        for kind in SingKind:
            for alpha in (0.5, -0.5):
                for w in (10.0, 1e2, 1e4):
                    spec = build_problem(f, Oscillator.from_poly([0.0, beta]), a, alpha, kind, w)
                    for n, s in ((4, 0), (6, 1), (8, 2), (10, 1)):
                        freq = compute(spec, Method.LEVIN_FREQ, n, s).value
                        worst = max(worst, abs(compute(spec, Method.FILON, n, s).value - freq) / abs(freq))
        assert worst <= 1e-13


class TestChebSeriesTable:
    table = staticmethod(oscquad.filon._cheb_series_table)

    def test_matches_list_recurrence(self):
        # The per-node list form the batched table replaced, node by node,
        # row for row and bit for bit, on the tables of every operator with
        # npts = 3..20 and s = 0..3.
        def loop_table(x0, m, count):
            u = np.zeros(m)
            u[0] = 2.0 * x0 - 1.0
            if m > 1:
                u[1] = 2.0
            out = [np.zeros(m)]
            out[0][0] = 1.0
            if count >= 2:
                out.append(u.copy())
            for _ in range(2, count):
                out.append(2.0 * oscquad.filon.ps_mul(u, out[-1]) - out[-2])
            return out

        cases = [(npts, s + 2, npts - 1 + 2 * s) for npts in range(3, 21) for s in range(4)]
        for npts, m, count in cases + [(34, 4, 33), (3, 1, 2)]:
            got = self.table(lobatto_grid(npts - 1).nodes, m, count)
            assert got.shape == (count, npts, m)
            for node, x0 in enumerate(lobatto_grid(npts - 1).nodes):
                want = loop_table(float(x0), m, count)
                for row, ref in zip(got[:, node], want):
                    assert row.tobytes() == ref.tobytes(), (npts, m, count)


def _derivative(p):
    # Taylor series of p' from that of p, one term shorter.
    return np.arange(1, p.size) * p[1:]


def _loop_operator(spec, npts, s):
    # The per-basis-function form of the frequency-space Levin operator: three
    # ps_mul calls per Chebyshev polynomial per node, each product at order j
    # times j! before the sum, as the route keeps its terms at the
    # conditions.  The array form in filon._freq_operator is checked
    # against it.
    filon = oscquad.filon
    layout = filon._layout(npts, s)
    nodes, mults = layout.nodes, np.bincount(layout.node)
    M = int(mults.sum()) - 1
    tables = filon._cheb_series_table(nodes, s + 2, M)
    fact = filon._factorials(s + 1)
    rows = []
    for x, mult, table in zip(nodes, mults, tables.transpose(1, 0, 2)):
        gser = spec.oscillator.series_at(float(x), s + 2)
        gp = _derivative(gser)
        gg = gser[: s + 1]
        ggp = filon.ps_mul(gg, gp)
        images = []
        for T in table:
            P = T[: s + 1]
            dP = _derivative(T)
            images.append(
                fact * filon.ps_mul(gg, dP)
                + (1.0 + spec.alpha) * (fact * filon.ps_mul(gp, P))
                + 1j * spec.w * (fact * filon.ps_mul(ggp, P))
            )
        for j in range(int(mult)):
            row = np.zeros(M + 1, dtype=complex)
            row[0] = 1j * spec.w * (fact[j] * gp[j])
            for k, wk in enumerate(images):
                row[k + 1] = wk[j]
            rows.append(row)
    return np.array(rows)


def _operator_term_sizes(spec, npts, s):
    # Sum of the magnitudes of the products that make up each entry of the
    # operator, for a round-off bound on its columns 1..M.
    filon = oscquad.filon
    layout = filon._layout(npts, s)
    nodes, mults = layout.nodes, np.bincount(layout.node)
    M = int(mults.sum()) - 1
    tables = np.abs(filon._cheb_series_table(nodes, s + 2, M))
    fact = filon._factorials(s + 1)
    rows = []
    for x, mult, table in zip(nodes, mults, tables.transpose(1, 0, 2)):
        gser = spec.oscillator.series_at(float(x), s + 2)
        gp = np.abs(_derivative(gser))
        gg = np.abs(gser[: s + 1])
        ggp = np.abs(filon.ps_mul(gser[: s + 1], _derivative(gser)))
        for j in range(int(mult)):
            row = np.zeros(M + 1)
            for k, T in enumerate(table):
                dP = _derivative(T)
                row[k + 1] = fact[j] * sum(
                    gg[i] * dP[j - i] + abs(1.0 + spec.alpha) * gp[i] * T[j - i] + abs(spec.w) * ggp[i] * T[j - i]
                    for i in range(j + 1)
                )
            rows.append(row)
    return np.array(rows)


def _freq_matrix(spec, npts, s):
    # The matrix of filon._freq_operator, which a Levin call factorises.
    return oscquad.filon._freq_operator(spec, 1.0, npts, s)[0]


def _unscaled_rows(spec, npts, s, want):
    # The rows of filon._freq_operator's matrix before equilibration, given
    # that each was divided by the power of two just above the largest
    # entry of that row of ``want``; a row scaled otherwise comes back off
    # by a factor of two.  The real and imaginary parts are scaled apart, so
    # a zero keeps its sign (a complex product would turn 0 - 0j into 0 + 0j).
    L = _freq_matrix(spec, npts, s)
    scale = np.ldexp(1.0, np.frexp(np.abs(want).max(axis=1))[1])[:, None]
    L.real *= scale
    L.imag *= scale
    return L


class TestFreqOperatorRows:
    """The operator rows are array products over the whole basis."""

    @pytest.mark.parametrize("pid", ["ex51", "ex52", "ex53a", "ex53b"])
    def test_builtins_bit_identical_to_loop_form(self, pid):
        # For the built-ins every product summed at the endpoints is exact,
        # so the array form reproduces the per-basis-function loop bit for
        # bit.
        spec = builtin_problem(pid, 0.3, 170.0)
        for npts in (3, 5, 8, 13, 20):
            for s in (0, 1, 2, 3):
                if npts - 1 + 2 * s > oscquad.filon.MAX_BASIS_SIZE:
                    continue
                want = _loop_operator(spec, npts, s)
                got = _unscaled_rows(spec, npts, s, want)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (pid, npts, s)

    @pytest.mark.parametrize("a", [0.37, 2.5])
    def test_general_g_within_round_off_of_loop_form(self, a):
        # Inexact series (those of g on [0, a] read at x = a t, whose loop
        # form is that of the problem mapped onto [0, 1]): the endpoint sums
        # round each product where the loop form's dot product may fuse
        # them, so the entries agree to a few ulps of the sum of their term
        # sizes.
        eps = np.finfo(float).eps
        for kind in (SingKind.ALGEBRAIC, SingKind.ALGEBRAIC_LOG):
            spec = build_problem(
                Amplitude.from_poly([1.0, 0.2]),
                Oscillator.from_poly([0.0, 1.0, 0.3, 0.1]),
                a=a,
                alpha=-0.4,
                kind=kind,
                w=93.0,
            )
            unit = mapped_onto_unit(spec)
            for npts in (3, 5, 8, 13):
                for s in (0, 1, 2, 3):
                    want = _loop_operator(unit, npts, s)
                    got = _unscaled_rows(spec, npts, s, want)
                    bound = 4.0 * eps * _operator_term_sizes(unit, npts, s)
                    assert got[:, 0].tobytes() == want[:, 0].tobytes()
                    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= bound[:, 1:]), (a, npts, s)

    @pytest.mark.parametrize("pid", ["ex52", "ex53b"])
    def test_log_kind_rhs_equals_per_node_sums(self, monkeypatch, pid):
        # The second right-hand side f21 - q1 g' is taken at the conditions:
        # f21's series at the nodes times j!, at (node, order), less the
        # product of the first solve's coefficients with the kept g' T_k
        # term, bit for bit.
        filon = oscquad.filon
        spec = builtin_problem(pid, 0.4, 80.0)
        seen = []
        real = oscquad.levin._solution

        def capture(L, fact, values, scale):
            x, residual, values = real(L, fact, values, scale)
            seen.append((np.array(values), x))
            return x, residual, values

        monkeypatch.setattr(oscquad.levin, "_solution", capture)
        npts, s = 9, 2
        filon.quad_freq(spec, npts, s)
        (_, first), (rhs2, _) = seen
        layout, _, (_, gprime_terms, _) = filon._freq_table(spec.oscillator, spec.a, npts, s)
        f21 = filon._regularised(spec, spec.g_end())(layout.nodes, s + 1)[1]
        conditions = (layout.fact * f21)[layout.node, layout.order]
        assert rhs2.tobytes() == (conditions - gprime_terms @ first[1:]).tobytes()

    @pytest.mark.parametrize("npts, s", [(6, 1), (10, 2), (14, 2)])
    def test_q1_gprime_is_the_series_product_at_the_conditions(self, npts, s):
        # The route's q1 g' is the series-space product written out: q1's
        # Taylor series at the nodes, sum_k c_k T_k, times that of g', times
        # j!, at (node, order), within a few ulps of the sum of the sizes of
        # its terms c_k (g' T_k).
        filon = oscquad.filon
        eps = np.finfo(float).eps
        rng = np.random.default_rng(npts + 10 * s)
        quadratics = [[0.0, b, c] for b, c in zip(rng.uniform(0.5, 2.0, 2), rng.uniform(0.0, 1.0, 2))]
        layout = filon._layout(npts, s)
        node, order = layout.node, layout.order
        cheb = filon._cheb_series_table(layout.nodes, s + 1, npts - 1 + 2 * s)
        for poly in [[0.0, 1.0], [0.0, 1.0, 1.0]] + quadratics:
            osc = Oscillator.from_poly(poly)
            spec = build_problem(Amplitude.from_poly([1.0]), osc, a=1.0, alpha=0.5, kind=SingKind.ALGEBRAIC, w=50.0)
            rows, origin = filon._freq_operator(spec, 1.0, npts, s)[3]
            assert origin is None
            c = rng.standard_normal(cheb.shape[0]) + 1j * rng.standard_normal(cheb.shape[0])
            gser = osc.series_at(layout.nodes, s + 2)
            gprime = np.arange(1, s + 2) * gser[:, 1:]
            want = (layout.fact * filon.ps_mul((c[:, None, None] * cheb).sum(axis=0), gprime))[node, order]
            sizes = np.abs(c) @ np.abs(np.array([(layout.fact * filon.ps_mul(T, gprime))[node, order] for T in cheb]))
            assert np.all(np.abs(rows.dot(c) - want) <= 8.0 * eps * sizes), (poly, npts, s)

    def test_at_most_one_ps_mul_per_node(self, monkeypatch):
        # g g' and each of the three image terms once, for all nodes and
        # the whole basis at once, when the oscillator's images are built
        # (a per-node loop takes 3 M + 1 per node), and a call that finds
        # them kept for this g takes none at all.  The
        # Chebyshev table, the same for every g, is served prebuilt: its
        # recurrence takes one ps_mul per basis function for all nodes.
        spec = builtin_problem("ex53a", 0.5, 50.0)
        npts, s = 9, 2
        _freq_matrix(spec, npts, s)
        oscquad.filon._freq_table.cache.clear()
        cheb = oscquad.filon._cheb_series_table(oscquad.filon._layout(npts, s).nodes, s + 2, npts - 1 + 2 * s)
        monkeypatch.setattr(oscquad.filon, "_cheb_series_table", lambda nodes, m, count: cheb)
        calls = []
        real = oscquad.filon.ps_mul

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(oscquad.filon, "ps_mul", counting)
        _freq_matrix(spec, npts, s)
        assert 0 < len(calls) <= npts
        calls.clear()
        _freq_matrix(spec, npts, s)
        assert calls == []


class TestKeptLayout:
    """A LEVIN_FREQ or FILON call after one at the same (g, npts, s) forms
    only what depends on alpha, w and f."""

    @pytest.mark.parametrize(
        "method, pid, npts, s",
        [(Method.LEVIN_FREQ, "ex53a", 8, 1), (Method.LEVIN_FREQ, "ex53b", 10, 2), (Method.FILON, "ex51", 6, 2),
         (Method.FILON, "ex52", 8, 1)],
    )
    def test_warm_call_builds_no_layout(self, monkeypatch, method, pid, npts, s):
        # No collocation nodes, Chebyshev table or factorials, and no memo
        # lookup keyed by a node array but those of the x/g series (none on
        # g = x) and of f's series; the warm value is the cold one, bit for
        # bit.
        filon = oscquad.filon
        for table in (filon._layout, filon._freq_table, filon._hermite_matrix):
            table.cache.clear()
        spec = builtin_problem(pid, 0.5, 200.0)
        cold = compute(spec, method, npts, s)
        calls, array_keys, ratio_calls = [], [], []

        def counting(name, fn, seen):
            def wrapper(*args):
                seen.append(name)
                return fn(*args)

            return wrapper

        for name in ("lobatto_grid", "_cheb_series_table", "_factorials"):
            monkeypatch.setattr(filon, name, counting(name, getattr(filon, name), calls))
        real_key = oscquad._kept._arg_key

        def key(arg):
            if isinstance(arg, np.ndarray):
                array_keys.append(arg.shape)
            return real_key(arg)

        monkeypatch.setattr(oscquad._kept, "_arg_key", key)
        for name in ("_ratio_series", "_amplitude_series"):
            table = getattr(oscquad.problem, name)
            monkeypatch.setattr(oscquad.problem, name, counting(name, table, ratio_calls))
        compute(builtin_problem(pid, -0.3, 4.0e5), method, npts, s)
        warm = compute(spec, method, npts, s)
        assert calls == []
        assert len(array_keys) == len(ratio_calls) > 0
        assert sorted(set(ratio_calls)) == ["_amplitude_series"] + ["_ratio_series"] * (pid in ("ex53a", "ex53b"))
        assert (repr(warm.value), repr(warm.diagnostics)) == (repr(cold.value), repr(cold.diagnostics))

    def test_bad_counts_raise_on_every_call_and_are_never_kept(self):
        # 8.0 is refused although the kept (8, 1) has an equal key.
        spec = builtin_problem("ex52", 0.5, 200.0)
        solve_freq(spec, 8, 1)
        for npts, s, error in ((2, 1, ParameterError), (8, -1, ParameterError), (8.0, 1, ParameterError),
                               (40, 1, CapabilityError), (8, 10**4, CapabilityError)):
            for _ in range(2):
                with pytest.raises(error):
                    solve_freq(spec, npts, s)
                for method in (Method.LEVIN_FREQ, Method.FILON):
                    with pytest.raises(error):
                        compute(spec, method, npts, s)
        g = spec.oscillator._key
        assert not {(2, 1), (8, -1)} & set(oscquad.filon._layout.cache)
        assert (g, 1.0, 8, 1) in oscquad.filon._freq_table.cache
        assert not {(g, 1.0, 2, 1), (g, 1.0, 8, -1), (g, 1.0, 40, 1), (g, 1.0, 8, 10**4)} \
            & set(oscquad.filon._freq_table.cache)

    def test_basis_over_the_cap_builds_no_chebyshev_table(self, monkeypatch):
        # At s = 10**4 the table would take O(s^2 npts) memory and O(s^3
        # npts) time; the cap refuses first, on every route.
        spec = builtin_problem("ex52", 0.5, 200.0)
        built = []
        monkeypatch.setattr(oscquad.filon, "_cheb_series_table", lambda *args: built.append(args))
        for method in (Method.LEVIN_FREQ, Method.FILON):
            with pytest.raises(CapabilityError):
                compute(spec, method, 8, 10**4)
        assert built == []


class TestEquilibratedRows:
    """The frequency-space operator's rows, and their right-hand sides, are
    divided by a power of two near each row's largest entry."""

    def test_row_scales(self):
        # Each row of the factorised matrix is that of the loop form (equal
        # bit for bit on the built-ins) divided by a power of two, which
        # multiplying back undoes exactly.
        spec = builtin_problem("ex53b", 0.5, 300.0)
        A = _loop_operator(spec, 20, 2)
        L = _freq_matrix(spec, 20, 2)
        largest = np.abs(L).max(axis=1)
        assert np.all((0.5 <= largest) & (largest < 1.0))
        scale = 2.0 ** np.round(np.log2(np.abs(A).max(axis=1) / largest))
        assert (L * scale[:, None]).tobytes() == A.tobytes()

    @pytest.mark.parametrize("pid, alpha, w", [("ex53a", 0.5, 1e2), ("ex53a", -0.5, 1e4), ("ex53a", -0.5, 1e8)])
    def test_n32_accuracy(self, pid, alpha, w):
        # Unscaled, the j-th derivative rows grow like k^{2j} and n = 32,
        # s = 2 was 3.0e-8, 1.1e-10 and 6.3e-11 off the NSD reference.
        spec = builtin_problem(pid, alpha, w)
        ref = reference_nsd(spec)
        assert abs(compute(spec, Method.LEVIN_FREQ, 32, 2).value - ref) <= 1e-11 * abs(ref)
