"""Grid, differentiation matrix, and barycentric interpolation tests."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscquad.cheb
from oscquad._kept import KEPT_SIZE
from oscquad.cheb import (
    GridFamily,
    barycentric_diff,
    barycentric_eval,
    barycentric_weights,
    lobatto_grid,
    radau_grid,
    radau_origin_weights_closed,
    radau_reference_diff,
    radau_reference_nodes,
)
from oscquad.errors import ParameterError


# The loop forms the vectorised builders replaced; each must agree with them
# bit for bit.
def loop_barycentric_weights(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    scale = (x.max() - x.min()) / 4.0
    lam = np.empty(n)
    idx = np.arange(n)
    for i in range(n):
        lam[i] = 1.0 / np.prod((x[i] - x[idx != i]) / scale)
    return lam


def loop_barycentric_diff(x):
    x = np.asarray(x, dtype=float)
    lam = loop_barycentric_weights(x)
    n = x.size
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (lam[j] / lam[i]) / (x[i] - x[j])
        D[i, i] = -D[i].sum()
    return D


def loop_radau_reference_diff(n):
    t = radau_reference_nodes(n)
    qp = oscquad.cheb._cheb_t_deriv(n, t) + oscquad.cheb._cheb_t_deriv(n - 1, t)
    D = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            if k == j:
                if k == 0:
                    D[k, j] = -n * (n - 1) / 3.0
                else:
                    D[k, j] = t[k] / (2.0 * (1.0 - t[k] ** 2)) + (2 * n - 1) * oscquad.cheb._cheb_t(
                        n - 1, np.array([t[k]])
                    )[0] / (2.0 * (1.0 - t[k] ** 2) * qp[k])
            else:
                D[k, j] = qp[k] / qp[j] / (t[k] - t[j])
    return t, D


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def clear_grid_caches():
    oscquad.cheb._radau_grid.cache.clear()
    oscquad.cheb._lobatto_grid.cache.clear()


class TestRadauReference:
    def test_first_node_is_minus_one(self):
        for n in (2, 5, 9):
            t = radau_reference_nodes(n)
            assert t[0] == -1.0
            assert np.all(np.diff(t) > 0)

    def test_corner_entry_closed_form(self):
        # Diagonal corner of the reference matrix is -n(n-1)/3.
        for n in (2, 4, 7):
            _, D = radau_reference_diff(n)
            assert_allclose(D[0, 0], -n * (n - 1) / 3.0, rtol=1e-13)

    def test_closed_form_matches_barycentric(self):
        # The closed form and the barycentric construction are the same
        # operator on the same nodes.
        for n in (3, 6, 10):
            t, D = radau_reference_diff(n)
            Db = barycentric_diff(t)
            scale = np.abs(Db).max()
            assert np.abs(D - Db).max() <= 1e-9 * scale


class TestRadauGrid:
    def test_structure(self):
        g = radau_grid(6)
        assert g.family is GridFamily.RADAU_MODIFIED
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.interior.size == 6
        assert g.diff.shape == (6, 6)

    def test_diff_annihilates_constants(self):
        g = radau_grid(8)
        assert np.abs(g.diff @ np.ones(8)).max() <= 1e-13

    def test_diff_identity(self):
        g = radau_grid(8)
        assert_allclose(g.diff @ g.interior, np.ones(8), atol=1e-10)

    def test_diff_monomials(self):
        n = 10
        g = radau_grid(n)
        for k in range(2, n):
            got = g.diff @ g.interior**k
            want = k * g.interior ** (k - 1)
            assert np.abs(got - want).max() <= 1e-9 * max(np.abs(want).max(), 1.0)

    def test_origin_weights_reproduce_p0(self):
        rng = np.random.default_rng(7)
        n = 9
        g = radau_grid(n)
        coeffs = rng.uniform(-1.0, 1.0, n)
        vals = np.polynomial.polynomial.polyval(g.interior, coeffs)
        assert abs(g.origin_weights @ vals - coeffs[0]) <= 1e-10

    def test_origin_weights_sum_to_one(self):
        for n in (2, 5, 12):
            g = radau_grid(n)
            assert abs(g.origin_weights.sum() - 1.0) <= 1e-12

    def test_origin_weights_match_closed_form(self):
        for n in (2, 4, 8):
            g = radau_grid(n)
            assert_allclose(g.origin_weights, radau_origin_weights_closed(n),
                            rtol=1e-11, atol=1e-12)

    def test_spectral_accuracy_exp(self):
        # Error differentiating e^x decays faster than any fixed power of n.
        errs = []
        for n in (4, 8, 12, 16, 20, 24):
            g = radau_grid(n)
            err = np.abs(g.diff @ np.exp(g.interior) - np.exp(g.interior)).max()
            errs.append(max(err, 1e-16))
        assert errs[2] <= 1e-8
        assert errs[-1] <= 1e-11
        # Superalgebraic: successive halvings beat a power law of order 6.
        assert errs[1] <= errs[0] * 0.5**6

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterError):
            radau_grid(1)


class TestLobattoGrid:
    def test_n2_nodes(self):
        g = lobatto_grid(2)
        assert_allclose(g.nodes, [0.0, 0.5, 1.0], atol=1e-15)

    def test_endpoints_and_count(self):
        for n in (2, 3, 8, 15):
            g = lobatto_grid(n)
            assert g.nodes.size == n + 1
            assert g.nodes[0] == 0.0
            assert g.nodes[-1] == 1.0

    def test_n_below_two_rejected(self):
        with pytest.raises(ParameterError):
            lobatto_grid(1)


class TestBarycentric:
    def test_weights_alternate_sign(self):
        x = np.cos(np.linspace(0.0, math.pi, 7))[::-1]
        wts = barycentric_weights(x)
        assert np.all(wts[:-1] * wts[1:] < 0)

    def test_eval_constant(self):
        g = lobatto_grid(5)
        vals = np.full(g.nodes.size, 2.5 + 0.5j)
        for x in (0.0, 0.37, 1.0):
            assert_allclose(barycentric_eval(g, vals, x), 2.5 + 0.5j, rtol=1e-14)

    def test_eval_quadratic(self):
        g = lobatto_grid(4)
        vals = g.nodes**2
        assert_allclose(barycentric_eval(g, vals, 0.3), 0.09, atol=1e-13)

    def test_eval_smooth_function(self):
        g = lobatto_grid(20)
        fn = lambda x: np.sin(3.0 * x) * np.exp(-x)
        vals = fn(g.nodes)
        rng = np.random.default_rng(8)
        for x in rng.uniform(0.0, 1.0, 12):
            assert abs(barycentric_eval(g, vals, x) - fn(x)) <= 1e-10

    def test_eval_at_node_exact(self):
        g = lobatto_grid(6)
        vals = np.sin(g.nodes)
        for i in (0, 3, 6):
            assert_allclose(barycentric_eval(g, vals, g.nodes[i]),
                            vals[i], rtol=1e-14)

    def test_length_mismatch(self):
        g = lobatto_grid(4)
        with pytest.raises(ParameterError):
            barycentric_eval(g, np.ones(3), 0.5)

    def test_diff_vs_monomial(self):
        x = np.linspace(0.1, 1.0, 6)
        D = barycentric_diff(x)
        assert_allclose(D @ x**3, 3.0 * x**2, rtol=1e-10)


class TestVectorisedBuilders:
    A_VALUES = (1.0, 0.5, 2.0, 0.7316, 1.9)

    def node_sets(self, n):
        for a in self.A_VALUES:
            xs = a * (1.0 - radau_reference_nodes(n)[::-1]) / 2.0
            yield xs
            yield np.concatenate(([0.0], xs))
            lob = a * (1.0 - np.cos(np.arange(n + 1) * np.pi / n)) / 2.0
            lob[0], lob[-1] = 0.0, a
            yield lob

    def test_weights_and_diff_bit_identical_to_loops(self):
        for n in range(2, 45):
            for x in self.node_sets(n):
                assert same_bits(barycentric_weights(x), loop_barycentric_weights(x)), n
                assert same_bits(barycentric_diff(x), loop_barycentric_diff(x)), n

    def test_reference_diff_bit_identical_to_loops(self):
        for n in range(2, 45):
            t, D = radau_reference_diff(n)
            t_loop, D_loop = loop_radau_reference_diff(n)
            assert same_bits(t, t_loop)
            assert same_bits(D, D_loop), n

    def test_grids_bit_identical_to_loop_builds(self):
        clear_grid_caches()
        for n in (2, 3, 8, 17, 32, 44):
            g = radau_grid(n)
            assert same_bits(g.diff, loop_barycentric_diff(g.interior))
            assert same_bits(g.bary_full, loop_barycentric_weights(g.nodes))
            mu = loop_barycentric_weights(g.interior) / (0.0 - g.interior)
            assert same_bits(g.origin_weights, mu / mu.sum())
            g = lobatto_grid(n)
            assert same_bits(g.diff, loop_barycentric_diff(g.nodes))
            assert same_bits(g.bary_full, loop_barycentric_weights(g.nodes))


class TestGridInputGuard:
    BAD_N = (8.0, 8.5, True, np.float64(8.0), "8", None)

    @pytest.mark.parametrize("build", [radau_grid, lobatto_grid])
    def test_bad_inputs_refused(self, build):
        # Refused before the cache lookup, with no warning or TypeError on
        # the way: hash(8.0) == hash(8) would otherwise hit the n=8 grid.
        build(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in self.BAD_N:
                with pytest.raises(ParameterError, match="n must be an integer"):
                    build(n)

    @pytest.mark.parametrize("build", [radau_grid, lobatto_grid])
    def test_numpy_integers_accepted(self, build):
        g = build(np.int64(8))
        assert type(g.n) is int and g.n == 8
        assert build(8) is g


class TestGridCache:
    @pytest.mark.parametrize("build", [radau_grid, lobatto_grid])
    def test_repeated_key_returns_same_object(self, build):
        assert build(12) is build(12)
        assert build(12) is not build(13)

    @pytest.mark.parametrize("build", [radau_grid, lobatto_grid])
    def test_arrays_read_only(self, build):
        g = build(9)
        arrays = [g.nodes, g.interior, g.diff, g.bary_full]
        if g.origin_weights is not None:
            arrays.append(g.origin_weights)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    @pytest.mark.parametrize(
        "build, cached", [(radau_grid, "_radau_grid"), (lobatto_grid, "_lobatto_grid")]
    )
    def test_cache_bounded(self, build, cached):
        for n in range(2, KEPT_SIZE + 12):
            build(n)
        assert len(getattr(oscquad.cheb, cached).cache) <= KEPT_SIZE
