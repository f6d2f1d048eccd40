"""Physical-space collocation solver tests."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oscquad.filon
import oscquad.levin
import oscquad.problem
from oscquad import Method, compute
from oscquad.cheb import lobatto_grid, radau_grid
from oscquad.errors import DegenerateSystemError, InvalidOscillatorError, ParameterError
from oscquad.levin import (
    TSVD_THRESHOLD,
    assemble_L,
    picard_iterate,
    solve_alg,
    solve_log,
    tsvd_solve,
)
from oscquad.problem import (
    Amplitude,
    Oscillator,
    BUILTIN_IDS,
    SingKind,
    _regularised,
    _unit_interval,
    build_problem,
    builtin_problem,
    make_f1_f2,
)

POLY = np.polynomial.polynomial


def zero_amplitude_spec(kind=SingKind.ALGEBRAIC):
    return build_problem(
        amplitude=Amplitude.from_poly([0.0]),
        oscillator=Oscillator.from_poly([0.0, 1.0]),
        a=1.0,
        alpha=0.5,
        kind=kind,
        w=100.0,
    )


class TestAssembleL:
    def test_linear_oscillator_block_form(self):
        # g(x) = x: c-column is iw, diagonal adds (1+alpha+iw x_i), and the
        # remaining part is diag(x_i) D.  Note spec.w, not the user w: the
        # ex51 integrand oscillates as e^{-iwx}.
        spec = builtin_problem("ex51", 0.5, 40.0)
        w = spec.w
        grid = radau_grid(5)
        L, _ = assemble_L(spec, grid)
        x = grid.interior
        assert_allclose(L[1:, 0], 1j * w * np.ones(5), rtol=1e-14)
        expect = np.diag(x) @ grid.diff + np.diag(1.5 + 1j * w * x)
        assert_allclose(L[1:, 1:], expect, rtol=1e-12, atol=1e-12)
        # Origin row: iw c0 + (1+alpha) r^T q1.
        assert_allclose(L[0, 0], 1j * w, rtol=1e-14)
        assert_allclose(L[0, 1:], 1.5 * grid.origin_weights, rtol=1e-12)

    def test_zero_amplitude_rhs(self):
        spec = zero_amplitude_spec()
        grid = radau_grid(6)
        _, rhs = assemble_L(spec, grid)
        assert np.abs(rhs).max() == 0.0

    def test_manufactured_solution_residual(self):
        # Manufactured q1* of degree <= n-1 and c0*: applying L to the
        # stacked exact values must reproduce W[c0*, q1*] at the nodes.
        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0]),
            oscillator=Oscillator.from_poly([0.0, 1.0, 1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=50.0,
        )
        n = 6
        grid = radau_grid(n)
        q_coef = np.array([0.3, -1.0, 0.7, 0.2, -0.4, 0.1])
        c0 = 0.8 - 0.6j
        x = grid.interior
        g = spec.oscillator.value(x)
        gp = spec.oscillator.deriv1(x)
        q = POLY.polyval(x, q_coef)
        qp = POLY.polyval(x, POLY.polyder(q_coef))
        w, alpha = spec.w, spec.alpha
        interior_W = 1j * w * gp * c0 + g * qp + (1.0 + alpha + 1j * w * g) * gp * q
        gp0 = spec.oscillator.deriv1(0.0)
        origin_W = 1j * w * gp0 * c0 + (1.0 + alpha) * gp0 * POLY.polyval(0.0, q_coef)
        L, _ = assemble_L(spec, grid)
        got = L @ np.concatenate(([c0], q))
        want = np.concatenate(([origin_W], interior_W))
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


    def test_bit_identical_to_loop_form(self):
        # The row loop that the array expressions replaced, and the
        # right-hand side f1 at the nodes by problem._regularised's path for
        # any points.
        def loop_L(spec, grid):
            gx, gp = oscquad.levin._physical_table(spec.oscillator, spec.a, grid.n)[:2]
            gpx, gp0 = gp[1:], gp[0]
            n, alpha, w = gx.size, spec.alpha, spec.w
            L = np.zeros((n + 1, n + 1), dtype=complex)
            L[0, 0] = 1j * w * gp0
            L[0, 1:] = (1.0 + alpha) * gp0 * grid.origin_weights
            for i in range(n):
                L[i + 1, 0] = 1j * w * gpx[i]
                L[i + 1, 1:] += gx[i] * grid.diff[i, :]
                L[i + 1, 1 + i] += (1.0 + alpha + 1j * w * gx[i]) * gpx[i]
            return L

        custom = build_problem(
            amplitude=Amplitude.from_poly([1.0, -0.3]),
            oscillator=Oscillator.from_poly([0.0, 0.8, 0.6]),
            a=1.7,
            alpha=-0.4,
            kind=SingKind.ALGEBRAIC,
            w=3.1e3,
        )
        specs = [builtin_problem(pid, alpha, w) for pid in ("ex51", "ex52", "ex53a", "ex53b")
                 for alpha, w in ((0.5, 40.0), (-0.73, 2.2e6))] + [_unit_interval(custom)]
        for spec in specs:
            for n in (2, 8, 16, 33):
                grid = radau_grid(n)
                L, rhs = assemble_L(spec, grid)
                assert L.tobytes() == loop_L(spec, grid).tobytes()
                assert rhs.tobytes() == np.asarray(_regularised(spec)(grid.nodes, 0)[0], dtype=complex).tobytes()

    @pytest.mark.parametrize("pid", BUILTIN_IDS)
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_operator_is_the_elementwise_assembly(self, pid, n):
        # The physical route writes the real and imaginary parts of the alpha
        # and w terms into a copy of the kept matrix; the complex
        # element-wise assembly it replaced, with g and g' evaluated afresh,
        # is the reference, bit for bit (ex51 has w < 0).
        def elementwise_L(spec, grid):
            gx = np.asarray(spec.oscillator.value(grid.interior), dtype=float)
            gp = np.asarray(spec.oscillator.deriv1(grid.nodes), dtype=float)
            n, alpha, w = gx.size, spec.alpha, spec.w
            L = np.zeros((n + 1, n + 1), dtype=complex)
            L[0, 0] = 1j * w * gp[0]
            L[0, 1:] = (1.0 + alpha) * gp[0] * grid.origin_weights
            L[1:, 0] = 1j * w * gp[1:]
            L[1:, 1:] += gx[:, None] * grid.diff
            rows = np.arange(1, n + 1)
            L[rows, rows] += (1.0 + alpha + 1j * w * gx) * gp[1:]
            return L

        grid = radau_grid(n)
        for alpha in (0.5, -0.5, 0.9):
            for w in (1.0, 1e2, 1e8):
                spec = builtin_problem(pid, alpha, w)
                L, _ = assemble_L(spec, grid)
                assert L.tobytes() == elementwise_L(spec, grid).tobytes(), (alpha, w)


class TestTsvdSolve:
    def test_identity_passthrough(self):
        b = np.array([1.0 + 2.0j, -3.0j, 0.5])
        x, diag = tsvd_solve(np.eye(3, dtype=complex), b)
        assert_allclose(x, b, rtol=1e-14)
        assert diag["tsvd_truncated"] == 0
        assert diag["residual_norm"] == 0.0

    def test_forced_truncation(self):
        L = np.diag([1.0, 0.1 * TSVD_THRESHOLD]).astype(complex)
        x, diag = tsvd_solve(L, np.array([1.0, 1.0], dtype=complex))
        assert diag["tsvd_truncated"] == 1
        assert_allclose(x, [1.0, 0.0], atol=1e-12)
        assert diag["factor"] == "tsvd"
        assert diag["cond"] >= 5.0 / TSVD_THRESHOLD

    def test_all_singular_rejected(self):
        L = np.zeros((2, 2), dtype=complex)
        with pytest.raises(DegenerateSystemError):
            tsvd_solve(L, np.ones(2, dtype=complex))

    def test_factor_serves_every_rhs(self):
        # One factorisation reproduces tsvd_solve bit for bit on each rhs.
        rng = np.random.default_rng(7)
        L = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        fact, keys = oscquad.levin._factorise(L)
        for _ in range(3):
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x, diag = tsvd_solve(L, b)
            assert np.array_equal(oscquad.levin._solve(L, fact, b), x)
            assert diag == {"residual_norm": float(np.abs(L @ x - b).max()), **keys}

    @pytest.mark.parametrize("L", [np.ones(3, dtype=complex), np.ones((2, 3), dtype=complex),
                                   np.ones((2, 2, 2), dtype=complex)], ids=["1-d", "2x3", "3-d"])
    def test_refuses_a_matrix_that_is_not_square(self, L):
        with pytest.raises(ParameterError, match="square matrix"):
            tsvd_solve(L, np.ones(len(L), dtype=complex))

    def test_high_n_spectrum_single_small_sv(self):
        # Once n over-resolves the oscillation, exactly one singular value
        # collapses and it is well separated from the bulk.
        for w in (10.0, 30.0):
            spec = builtin_problem("ex51", 0.5, w)
            grid = radau_grid(30)
            L, _ = assemble_L(spec, grid)
            sv = np.linalg.svd(L, compute_uv=False)
            rel = sv / sv[0]
            assert (rel < 1e-8).sum() == 1
            assert rel[-2] / rel[-1] > 1e3

    def test_smallest_sv_isolates_with_resolution(self):
        # At fixed w the last singular value keeps dropping with n while
        # the rest of the spectrum stays put.
        spec = builtin_problem("ex51", 0.5, 100.0)
        tails = []
        for n in (16, 24, 32):
            L, _ = assemble_L(spec, radau_grid(n))
            sv = np.linalg.svd(L, compute_uv=False)
            tails.append(sv[-1] / sv[0])
        assert tails[1] < 0.4 * tails[0]
        assert tails[2] < 0.4 * tails[1]


def f2_sub_problem(spec):
    # The algebraic-kind sub-problem of a logarithmic-kind spec's f2
    # amplitude: same g, a, alpha, w and so the same operators.
    return replace(spec, amplitude=make_f1_f2(spec)[1], kind=SingKind.ALGEBRAIC, phase_shift=1)


def _route_operators():
    # Every operator of both routes on the built-ins at alpha = +-0.5,
    # +-0.9 and w from 1e-3 to 1e8 (1320 in all): (spec, the route's tuple
    # of a Levin call, its matrix first).  A frequency-route matrix is
    # row-scaled.
    for pid in BUILTIN_IDS:
        for alpha in (0.5, -0.5, 0.9, -0.9):
            for w in (1e-3, 1.0, 10.0, 1e2, 1e4, 1e8):
                spec = builtin_problem(pid, alpha, w)
                for n in (4, 8, 16, 24, 32):
                    yield spec, oscquad.levin._physical_operator(spec, spec.g_end(), n)
                for npts, s in ((6, 1), (10, 2), (14, 1), (14, 2), (16, 1), (32, 2)):
                    yield spec, oscquad.filon._freq_operator(spec, spec.g_end(), npts, s)


def _solve_40_digits(L, b):
    # The solution of the double-precision system L x = b to 40 digits.
    with mp.workdps(40):
        return np.array(mp.lu_solve(mp.matrix(L.tolist()), mp.matrix(b.tolist())).tolist(), dtype=complex).ravel()


class TestFactorRouting:
    """LU unless the operator is near-singular enough for the truncated SVD
    to drop a direction; there the SVD."""

    def test_every_truncating_operator_takes_svd(self):
        routes = {"lu": 0, "tsvd": 0}
        truncating = 0
        for spec, (L, *_) in _route_operators():
            sv = np.linalg.svd(L, compute_uv=False)
            dropped = int((sv < TSVD_THRESHOLD * sv[0]).sum())
            _, diag = oscquad.levin._factorise(L)
            routes[diag["factor"]] += 1
            if dropped:
                truncating += 1
                assert (diag["factor"], diag["tsvd_truncated"]) == ("tsvd", dropped), (spec, L.shape)
            assert diag["cond"] >= sv[0] / sv[-1] / L.shape[0]
        assert truncating > 0 and routes["lu"] > routes["tsvd"] == truncating

    def test_lu_agrees_with_svd(self):
        # Both are backward stable, so the unknowns of the route's solves
        # differ by at most a small multiple of eps * cond (92 at most on
        # this grid).
        eps = np.finfo(float).eps
        levin = oscquad.levin
        for spec, (L, data, scale, gprime, _) in _route_operators():
            fact, keys = levin._factorise(L)
            if fact[2] is not None:
                continue
            svd = (None, None, levin._tsvd(L))
            for (x, _, _), (y, _, _) in zip(levin._solves(L, fact, data, scale, gprime),
                                            levin._solves(L, svd, data, scale, gprime)):
                bound = max(1e-12, 128 * eps * keys["cond"]) * np.abs(y).max()
                assert np.abs(x - y).max() <= bound, (spec, L.shape)

    @pytest.mark.parametrize("pid, alpha, w, n", [
        ("ex52", 0.9, 1e8, 24), ("ex52", 0.9, 10.0, 16), ("ex53b", 0.9, 10.0, 24), ("ex51", 0.9, 10.0, 16),
    ])
    def test_lu_at_least_as_accurate_as_svd(self, pid, alpha, w, n):
        # Against the 40-digit solution of the same double-precision system.
        spec = builtin_problem(pid, alpha, w)
        L, data, scale, *_ = oscquad.levin._physical_operator(spec, 1.0, n)
        assert scale is None
        b = data[0]
        exact = _solve_40_digits(L, b)
        x, diag = tsvd_solve(L, b)
        assert diag["factor"] == "lu"
        y = oscquad.levin._solve(L, (None, None, oscquad.levin._tsvd(L)), b)
        lu_err, svd_err = (np.abs(z - exact).max() for z in (x, y))
        assert lu_err <= svd_err

    def test_lu_where_svd_drops_nothing(self):
        # ex51's frequency operator (16, 1) at alpha = 0.9, w = 10 estimates
        # cond 1.7e12, above 1/RCOND_THRESHOLD, yet the SVD drops nothing.
        # The refined LU solve of f1 is 7e-8 off the 40-digit solve of the
        # same system, the SVD solve 1.4e-6; the value is 1.4e-15 off the
        # 40-digit integral, 9.1e-14 by the SVD.
        spec = builtin_problem("ex51", 0.9, 10.0)
        L, data, scale, *_ = oscquad.filon._freq_operator(spec, 1.0, 16, 1)
        b = data[0] / scale
        exact = _solve_40_digits(L, b)
        x, diag = tsvd_solve(L, b)
        assert (diag["factor"], diag["tsvd_truncated"]) == ("lu", 0)
        assert np.abs(x - exact).max() <= 5e-7 * np.abs(exact).max()
        with mp.workdps(40):
            alpha = mp.mpf(9) / 10
            integral = complex(mp.quad(lambda x: (1 - x) * (2 - x)**alpha * x**alpha * mp.expj(10 * (1 - x)),
                                       [0, 0.5, 1]))
        assert abs(compute(spec, Method.LEVIN_FREQ, 16, 1).value - integral) <= 1e-14 * abs(integral)


class TestSolveAlg:
    def test_zero_amplitude(self):
        c0, q1, _ = solve_alg(zero_amplitude_spec(), 8)
        assert c0 == 0.0
        assert np.abs(q1).max() == 0.0

    def test_residual_bound(self):
        spec = builtin_problem("ex51", 0.5, 100.0)
        c0, q1, diag = solve_alg(spec, 12)
        f1, _ = make_f1_f2(spec)
        fmax = max(abs(complex(f1.value(x))) for x in radau_grid(12).interior)
        assert diag["residual_norm"] <= 1e-10 * max(fmax, 1.0)
        assert isinstance(c0, complex) and q1.shape == (12,)

    def test_residual_bound_nonlinear_g(self):
        spec = builtin_problem("ex53a", -0.5, 200.0)
        _, _, diag = solve_alg(spec, 14)
        assert diag["residual_norm"] <= 1e-9

    def test_q1_frequency_decay(self):
        # Non-oscillatory solution bound: ||q1|| and |c0| scale as O(1/w).
        norms = []
        c0s = []
        for w in (1000.0, 2000.0, 4000.0, 8000.0):
            c0, q1, _ = solve_alg(builtin_problem("ex51", 0.5, w), 10)
            norms.append(np.abs(q1).max())
            c0s.append(abs(c0))
        for seq in (norms, c0s):
            for hi, lo in zip(seq, seq[1:]):
                assert 0.3 <= lo / hi <= 0.8

    def test_tsvd_idle_at_moderate_n(self):
        _, _, diag = solve_alg(builtin_problem("ex51", 0.5, 100.0), 10)
        assert diag["tsvd_truncated"] == 0
        assert diag["factor"] == "lu"
        assert np.isfinite(diag["cond"])


class TestSolveLog:
    def test_zero_amplitude(self):
        (c0, q1, _), (d0, l1, _) = solve_log(zero_amplitude_spec(SingKind.ALGEBRAIC_LOG), 8)
        assert c0 == 0.0 and d0 == 0.0
        assert np.abs(q1).max() == 0.0
        assert np.abs(l1).max() == 0.0

    def test_residuals(self):
        spec = builtin_problem("ex52", 0.5, 100.0)
        (_, _, first), (_, _, second) = solve_log(spec, 12)
        assert first["residual_norm"] <= 1e-9
        assert second["residual_norm"] <= 1e-9

    def test_f2_solve_is_solve_alg_of_sub_problem(self):
        # By linearity the second solve, right-hand side f21 - q1 g' with
        # f21 = f log(g(a) x/g) (x/g)^alpha, is the solve of -q1 g' alone
        # plus the f2 sub-problem's own solution plus log g(a) times the
        # first solve; ex53b has g(1) = 2.  Each solve rounds on the scale
        # of its size, most at the q1 nodes next to the origin, where the
        # Radau differentiation's entries grow like n^2: the four round
        # apart by up to 0.6 eps n^2 of their sizes summed (2.0e-14 of them
        # at alpha = -0.6, w = 300, n = 16).
        # (At w = 3, n = 16 the smallest singular value is 3e-9, so small w
        # is left out.)
        for alpha in (0.4, -0.6, 0.9):
            for w in (300.0, 1e4, 1e6):
                spec = builtin_problem("ex53b", alpha, w)
                log_g_a = np.log(spec.g_end())
                for n in (8, 10, 12, 16):
                    (c0, q1, _), (d0, l1, _) = solve_log(spec, n)
                    grid = radau_grid(n)
                    coupled, _ = tsvd_solve(assemble_L(spec, grid)[0], -np.concatenate(
                        ([grid.origin_weights @ q1], q1)) * spec.oscillator.deriv1(grid.nodes))
                    f2_c0, f2_q1, _ = solve_alg(f2_sub_problem(spec), n)
                    terms = (np.concatenate(([d0], l1)), coupled, np.concatenate(([f2_c0], f2_q1)),
                             log_g_a * np.concatenate(([c0], q1)))
                    got, want = terms[0], sum(terms[1:])
                    sizes = sum(np.abs(term).max() for term in terms)
                    assert np.abs(got - want).max() <= np.finfo(float).eps * n**2 * sizes, (alpha, w, n)

    def test_second_solve_consistency(self):
        # Feeding f21 - q1 g' as a fresh algebraic problem's f1 reproduces
        # (d0, l1): same operator, same data.  ex52 has g(1) = 1, so f21 is
        # the f1 of the f2 sub-problem.
        spec = builtin_problem("ex52", -0.5, 150.0)
        n = 12
        (_, q1, _), (d0, l1, _) = solve_log(spec, n)
        grid = radau_grid(n)
        f21 = make_f1_f2(f2_sub_problem(spec))[0].value(grid.nodes)
        q1 = np.concatenate(([grid.origin_weights @ q1], q1))
        L, _ = assemble_L(spec, grid)
        vec, _ = tsvd_solve(L, f21 - q1 * spec.oscillator.deriv1(grid.nodes))
        assert abs(vec[0] - d0) <= 1e-11 * max(abs(d0), 1.0)
        assert np.abs(vec[1:] - l1).max() <= 1e-11


class TestOneNodePassPerCall:
    """g and g' are evaluated at the Radau nodes once per (g, n) for the
    operator's kept table, and the regularised amplitudes take g there from
    that table."""

    @pytest.mark.parametrize("kind", [SingKind.ALGEBRAIC, SingKind.ALGEBRAIC_LOG])
    def test_evaluation_counts(self, monkeypatch, kind):
        n = 16
        grid = radau_grid(n)
        counts = dict.fromkeys(("polyval", "polyder", "poly_taylor", "g at nodes", "g' at nodes"), 0)

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        horner = oscquad.problem._horner
        spec = build_problem(Amplitude.from_poly([1.0, -0.5, 0.25]), Oscillator.from_poly([0.0, 1.0, 0.5]),
                             a=1.0, alpha=0.5, kind=kind, w=50.0)

        def g_horner(coeffs, x):
            # g at the interior nodes; g' at all nodes, origin first.
            counts["g at nodes"] += coeffs is spec.oscillator.poly and np.array_equal(x, grid.interior)
            counts["g' at nodes"] += coeffs is spec.oscillator._dpoly and np.array_equal(x, grid.nodes)
            return horner(coeffs, x)

        P = np.polynomial.polynomial
        monkeypatch.setattr(P, "polyval", counting("polyval", P.polyval))
        monkeypatch.setattr(P, "polyder", counting("polyder", P.polyder))
        monkeypatch.setattr(oscquad.problem, "poly_taylor", counting("poly_taylor", oscquad.problem.poly_taylor))
        monkeypatch.setattr(oscquad.problem, "_horner", g_horner)
        oscquad.levin._physical_table.cache.clear()
        value = compute(spec, Method.LEVIN_PHYSICAL, n, 0).value
        # The boundary bracket reads g(a) and g'(a) by Horner.  On a cold
        # call g and g' at the nodes once each, for the kept table, from
        # which both amplitudes take g.
        assert counts == {"polyval": 0, "polyder": 0, "poly_taylor": 0, "g at nodes": 1, "g' at nodes": 1}
        counts.update(dict.fromkeys(counts, 0))
        # On a warm call the table is kept: neither g nor g' at the nodes.
        assert compute(spec, Method.LEVIN_PHYSICAL, n, 0).value == value
        assert counts == {"polyval": 0, "polyder": 0, "poly_taylor": 0, "g at nodes": 0, "g' at nodes": 0}
        monkeypatch.undo()
        assert value == compute(spec, Method.LEVIN_PHYSICAL, n, 0).value

    def test_g_decreasing_at_a_node_raises_and_is_never_kept(self):
        # g = x - x^2 has g' = 1 - 2x <= 0 on [1/2, 1], which build_problem
        # refuses, so the spec is built with replace.  The
        # table build raises on every call, and nothing is kept for this g.
        spec = replace(builtin_problem("ex53a", 0.5, 50.0), oscillator=Oscillator.from_poly([0.0, 1.0, -1.0]))
        table = oscquad.levin._physical_table
        table.cache.clear()
        for _ in range(2):
            with pytest.raises(InvalidOscillatorError):
                oscquad.levin._physical_operator(spec, 1.0, 8)
            assert not table.cache

    @staticmethod
    def assert_regularised_is_sub_problem_f1(spec):
        # The data of f1 from the _regularised function equal make_f1_f2's
        # f1 and those of f21 the f2 sub-problem's f1, bit for bit: in value
        # at the Radau nodes, the origin included, and in series of length 3
        # at the Lobatto nodes.
        at = _regularised(spec)
        radau, lobatto = radau_grid(12).nodes, lobatto_grid(9).nodes
        assert radau[0] == 0.0
        for i, want in enumerate((make_f1_f2(spec)[0], make_f1_f2(f2_sub_problem(spec))[0])):
            for x in (radau, 0.0, radau[5]):
                assert np.asarray(at(x, 0)[i], dtype=complex).tobytes() == \
                    np.asarray(want.value(x), dtype=complex).tobytes()
            assert np.asarray(at(lobatto, 3)[i], dtype=complex).tobytes() == want.series_at(lobatto, 3).tobytes()

    @pytest.mark.parametrize("pid", BUILTIN_IDS)
    def test_node_amplitudes_are_the_amplitude_values(self, pid):
        # Every built-in, as the logarithmic kind.
        for alpha in (0.5, -0.5, -0.7):
            spec = replace(builtin_problem(pid, alpha, 30.0), kind=SingKind.ALGEBRAIC_LOG)
            self.assert_regularised_is_sub_problem_f1(spec)
            # The algebraic kind has f1 alone.
            at = _regularised(replace(spec, kind=SingKind.ALGEBRAIC))
            assert len(at(radau_grid(12).nodes, 0)) == len(at(lobatto_grid(9).nodes, 3)) == 1

    def test_custom_g_on_short_interval(self):
        for alpha in (0.5, -0.5):
            spec = build_problem(Amplitude.from_poly([1.0, -0.3j, 0.2]), Oscillator.from_poly([0.0, 1.0, 0.5]),
                                 a=0.7, alpha=alpha, kind=SingKind.ALGEBRAIC_LOG, w=40.0)
            self.assert_regularised_is_sub_problem_f1(_unit_interval(spec))

    @pytest.mark.parametrize("g, a", [([0.0, 1.0, 1.0], 1.0), ([0.0, 1.0, 0.5], 0.7), ([0.0, 1.0], 0.7)])
    def test_levin_f21_carries_log_g_end(self, g, a):
        # The Levin rule's f21 on [0, 1], log(c t/g_u(t)) with c = g(a) of
        # the problem on [0, a], is the sub-problem's f21 plus log g(a) f1:
        # to round-off in value at the Radau nodes (origin included), and in
        # series at the Lobatto nodes to the ~eps/t the higher coefficients
        # of x/g lose to cancellation near t = 0 in either form.  For a = 1
        # it is exactly 0 at t = 1.
        spec = build_problem(Amplitude.from_poly([1.0, -0.3j, 0.2]), Oscillator.from_poly(g), a=a, alpha=0.5,
                             kind=SingKind.ALGEBRAIC_LOG, w=40.0)
        unit, c = _unit_interval(spec), spec.g_end()
        at, levin = _regularised(unit), _regularised(unit, c)
        radau, lobatto = radau_grid(12).nodes, lobatto_grid(9).nodes
        for x, m, bound in ((radau, 0, 2e-15), (lobatto, 3, 1e-12)):
            f1, f21 = at(x, m)
            want = f21 + np.log(c) * f1
            assert_allclose(levin(x, m)[1], want, rtol=0, atol=bound * np.abs(want).max())
        if a == 1.0:
            assert levin(np.array([1.0]), 0)[1][0] == 0.0
            assert levin(np.array([1.0]), 3)[1][0, 0] == 0.0


def _expm1_oscillator():
    # g(x) = e^x - 1 through its series hook: no coefficients, so no key.
    def series(xs, m):
        out = np.exp(xs)[:, None] / oscquad.problem._factorials(m)
        out[:, 0] = np.expm1(xs)
        return out

    return Oscillator(value=lambda x: np.expm1(np.asarray(x, dtype=float)), series_fn=series)


class TestPlacedNodeData:
    """The physical route places the values of f1 and f21 at the Radau
    nodes from its kept table, with no mask: they are the values of
    problem._regularised's path for any points, bit for bit."""

    SPECS = {
        **{pid: (lambda kind, pid=pid: replace(builtin_problem(pid, -0.4, 70.0), kind=kind)) for pid in BUILTIN_IDS},
        "quadratic-a-1.7": lambda kind: build_problem(Amplitude.from_poly([1.0, -0.3j, 0.2]),
                                                      Oscillator.from_poly([0.0, 0.8, 0.6]),
                                                      a=1.7, alpha=0.5, kind=kind, w=40.0),
        "expm1-a-0.6": lambda kind: build_problem(Amplitude.from_poly([1.0, -0.5]), _expm1_oscillator(),
                                                  a=0.6, alpha=-0.3, kind=kind, w=25.0),
    }

    @pytest.mark.parametrize("n", [8, 16, 33])
    @pytest.mark.parametrize("kind", list(SingKind))
    @pytest.mark.parametrize("name", SPECS)
    def test_equal_to_the_values_at_any_points(self, monkeypatch, name, kind, n):
        spec = self.SPECS[name](kind)
        unit, g_a = _unit_interval(spec), spec.g_end()
        grid = radau_grid(n)
        data = oscquad.levin._physical_operator(unit, g_a, n)[1]
        want = _regularised(unit, g_a)(grid.nodes, 0)
        assert len(data) == len(want) == (2 if kind is SingKind.ALGEBRAIC_LOG else 1)
        for got, values in zip(data, want):
            got, values = np.asarray(got), np.asarray(values)
            assert got.dtype == values.dtype and got.tobytes() == values.tobytes(), name
        # The public pieces place f1 so too: assemble_L's right-hand side,
        # and picard_iterate's first iterate, the same bits as from the
        # values of problem._regularised's path.
        assert assemble_L(unit, grid)[1].tobytes() == np.asarray(want[0], dtype=complex).tobytes()
        (c0, q1), = picard_iterate(unit, grid, 1)
        monkeypatch.setattr(oscquad.levin, "_node_values", lambda spec, c, nodes, *_: _regularised(spec, c)(nodes, 0))
        (want_c0, want_q1), = picard_iterate(unit, grid, 1)
        assert repr(c0) == repr(want_c0) and q1.tobytes() == want_q1.tobytes(), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4), st.floats(0.5, 2.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.5, 2.0), st.sampled_from([0.5, -0.3, 0.9]), st.sampled_from(list(SingKind)),
           st.sampled_from([8, 16, 24]), st.floats(0.0, 6.0))
    def test_repeated_and_fresh_specs_give_the_same_bits(self, f, b, c, d, a, alpha, kind, n, log10_w):
        # A polynomial problem on [0, a]: a second call on the same spec
        # reads its kept tables, and so does a first call on a new spec
        # from the same inputs; all three give the same value and
        # diagnostics.
        def build():
            return build_problem(Amplitude.from_poly([1.5] + f), Oscillator.from_poly([0.0, b, c, d]),
                                 a=a, alpha=alpha, kind=kind, w=10.0**log10_w)

        spec = build()
        first = compute(spec, Method.LEVIN_PHYSICAL, n, 0)
        for again in (compute(spec, Method.LEVIN_PHYSICAL, n, 0), compute(build(), Method.LEVIN_PHYSICAL, n, 0)):
            assert repr(again.value) == repr(first.value)
            assert repr(again.diagnostics) == repr(first.diagnostics)


def _array_bits(value):
    # ``value`` with every array, in tuples and lists too, as its dtype,
    # shape and bytes.
    if isinstance(value, (tuple, list)):
        return [_array_bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


class TestRouteOnZeroToA:
    """The physical route takes a problem on [0, a] as it is: its arrays are
    those of the problem mapped onto [0, 1] by problem._unit_interval, bit
    for bit, and only the frequency route maps a problem."""

    SPECS = {
        "quadratic": lambda kind: build_problem(Amplitude.from_poly([1.0, -0.3j, 0.2]),
                                                Oscillator.from_poly([0.0, 0.8, 0.6]),
                                                a=1.7, alpha=0.5, kind=kind, w=40.0),
        "cubic": lambda kind: build_problem(Amplitude.from_poly([0.5, 1.0, -0.25]),
                                            Oscillator.from_poly([0.0, 1.0, -0.4, 0.3]),
                                            a=0.8, alpha=-0.6, kind=kind, w=3e3),
        "linear": lambda kind: build_problem(Amplitude.from_poly([2.0, 0.1j]), Oscillator.from_poly([0.0, 2.5]),
                                             a=2.3, alpha=0.3, kind=kind, w=-15.0),
        "expm1": lambda kind: build_problem(Amplitude.from_poly([1.0, -0.5]), _expm1_oscillator(),
                                            a=0.6, alpha=-0.3, kind=kind, w=25.0),
    }

    @pytest.mark.parametrize("n", [8, 16, 33])
    @pytest.mark.parametrize("kind", list(SingKind))
    @pytest.mark.parametrize("name", SPECS)
    def test_arrays_are_those_of_the_mapped_problem(self, name, kind, n):
        # The matrix, node data, g' data and end rows.
        spec = self.SPECS[name](kind)
        assert spec.a != 1.0
        g_a = spec.g_end()
        got = oscquad.levin._physical_operator(spec, g_a, n)
        want = oscquad.levin._physical_operator(_unit_interval(spec), g_a, n)
        assert _array_bits(got) == _array_bits(want)

    @pytest.mark.parametrize("kind", list(SingKind))
    def test_only_the_frequency_route_maps(self, monkeypatch, kind):
        calls = []
        original = oscquad.problem._unit_interval

        def counting(spec):
            calls.append(spec.a)
            return original(spec)

        for module in (oscquad.problem, oscquad.levin, oscquad.filon):
            if hasattr(module, "_unit_interval"):
                monkeypatch.setattr(module, "_unit_interval", counting)
        spec = self.SPECS["quadratic"](kind)
        compute(spec, Method.LEVIN_PHYSICAL, 16, 0)
        assert calls == []
        compute(spec, Method.LEVIN_FREQ, 10, 2)
        assert calls == [1.7]


class TestPicardIterate:
    def test_first_iterate_closed_form(self):
        spec = builtin_problem("ex51", 0.5, 500.0)
        grid = radau_grid(8)
        iters = picard_iterate(spec, grid, 1)
        f1, _ = make_f1_f2(spec)
        gp0 = spec.oscillator.deriv1(0.0)
        expect = complex(f1.value(0.0)) / (1j * spec.w * gp0)
        assert_allclose(iters[0][0], expect, rtol=1e-10)

    def test_k_too_large(self):
        spec = builtin_problem("ex51", 0.5, 500.0)
        grid = radau_grid(6)
        with pytest.raises(ParameterError):
            picard_iterate(spec, grid, 4)

    def test_iterates_approach_collocation(self):
        # Each extra iterate gains roughly a factor 1/w against the
        # collocation solution.
        w = 1e4
        spec = builtin_problem("ex51", 0.5, w)
        grid = radau_grid(8)
        _, q1, _ = solve_alg(spec, 8)
        iters = picard_iterate(spec, grid, 3)
        errs = [np.abs(it[1] - q1).max() for it in iters]
        assert errs[1] <= 0.1 * errs[0]
        assert errs[2] <= 0.1 * errs[1]
