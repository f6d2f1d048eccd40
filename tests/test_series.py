"""Truncated power series arithmetic tests against mpmath.taylor, and of the
batched (one series per row) forms against single series."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from oscquad._series import poly_taylor, ps_div, ps_log, ps_mul, ps_pow
from oscquad.errors import ParameterError

mp.mp.dps = 40

M = 8


def random_series(rng, positive_head=False):
    c = rng.uniform(-2.0, 2.0, M)
    if positive_head:
        c[0] = rng.uniform(0.5, 3.0)
    return c


def mp_taylor(fn, m):
    return np.array([float(c) for c in mp.taylor(fn, 0, m - 1)])


def series_fn(c):
    return lambda t: sum(mp.mpf(float(ck)) * t**k for k, ck in enumerate(c))


class TestPsMul:
    def test_vs_mpmath(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_series(rng)
            b = random_series(rng)
            got = ps_mul(a, b)
            ref = mp_taylor(lambda t: series_fn(a)(t) * series_fn(b)(t), M)
            assert_allclose(got, ref, rtol=1e-12, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            ps_mul([1.0, 2.0], [1.0])


class TestPsDiv:
    def test_mul_div_roundtrip(self):
        rng = np.random.default_rng(2)
        a = random_series(rng)
        b = random_series(rng, positive_head=True)
        assert_allclose(ps_div(ps_mul(a, b), b), a, rtol=1e-11, atol=1e-12)

    def test_zero_head_rejected(self):
        with pytest.raises(ParameterError):
            ps_div([1.0, 0.0], [0.0, 1.0])


class TestPsPow:
    def test_vs_mpmath(self):
        rng = np.random.default_rng(3)
        for alpha in (0.5, -0.5, 1.7, -0.3):
            a = random_series(rng, positive_head=True)
            got = ps_pow(a, alpha)
            ref = mp_taylor(lambda t: series_fn(a)(t) ** mp.mpf(alpha), M)
            assert_allclose(got, ref, rtol=1e-11, atol=1e-12)

    def test_negative_head_rejected(self):
        with pytest.raises(ParameterError):
            ps_pow([-1.0, 0.0], 0.5)


class TestPsLog:
    def test_vs_mpmath(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = random_series(rng, positive_head=True)
            got = ps_log(a)
            ref = mp_taylor(lambda t: mp.log(series_fn(a)(t)), M)
            assert_allclose(got, ref, rtol=1e-11, atol=1e-12)

    def test_exp_consistency(self):
        # log(a^alpha) = alpha log(a) term by term.
        rng = np.random.default_rng(5)
        a = random_series(rng, positive_head=True)
        assert_allclose(
            ps_log(ps_pow(a, 0.5)), 0.5 * ps_log(a), rtol=1e-11, atol=1e-12
        )


class TestPolyTaylor:
    def test_shift_identity(self):
        # p(x) = 1 + 2x + 3x^2 about x0 = 1: p(1 + t) = 6 + 8t + 3t^2.
        assert_allclose(poly_taylor([1.0, 2.0, 3.0], 1.0, 3), [6.0, 8.0, 3.0])

    def test_truncation_pads_with_zeros(self):
        got = poly_taylor([2.0, 1.0], 0.0, 4)
        assert_allclose(got, [2.0, 1.0, 0.0, 0.0])

    def test_vs_mpmath(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(-1.0, 1.0, 6)
        x0 = 0.7
        got = poly_taylor(c, x0, 6)
        ref = np.array(
            [float(v) for v in mp.taylor(lambda t: series_fn(c)(x0 + t), 0, 5)]
        )
        assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


EPS = np.finfo(float).eps
HELPERS = {
    "ps_mul": lambda a, b: ps_mul(a, b),
    "ps_div": lambda a, b: ps_div(a, b),
    "ps_pow": lambda a, b: ps_pow(b, -0.37),
    "ps_log": lambda a, b: ps_log(b),
}


def _term_sizes(name, a, b, out):
    # Sum of the magnitudes of the terms each output coefficient is built
    # from (an upper bound for ps_pow and ps_log), row by row.
    a, b, out = np.abs(a), np.abs(b), np.abs(out)
    head = b[:, :1]
    if name == "ps_mul":
        return ps_mul(a, b)
    if name == "ps_div":
        return (a + ps_mul(out, b)) / head
    if name == "ps_pow":
        return out + 1.37 * ps_mul(b, out) / head
    return out + (b + ps_mul(out, b)) / head


def _rows_within_round_off(name, a, b):
    got = HELPERS[name](a, b)
    rows = np.array([HELPERS[name](ra, rb) for ra, rb in zip(a, b)])
    assert got.shape == rows.shape == a.shape
    assert np.all(np.abs(got - rows) <= 4.0 * EPS * _term_sizes(name, a, b, rows))
    return got, rows


def _batch(rng, n, m, complex_):
    c = rng.uniform(-2.0, 2.0, (n, m))
    return c + 1j * rng.uniform(-2.0, 2.0, (n, m)) if complex_ else c


def _shift_loop(coeffs, x0, m):
    # Taylor shift one coefficient at a time, as poly_taylor computed it for
    # a single point before it took arrays of points.
    out = np.zeros(m)
    for c in np.asarray(coeffs, dtype=float)[::-1]:
        shifted = np.zeros_like(out)
        shifted[0] = x0 * out[0] + c
        for k in range(1, m):
            shifted[k] = x0 * out[k] + out[k - 1]
        out = shifted
    return out


class TestBatched:
    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_rows_equal_single_series(self, name):
        # Each row of a batch is computed by the routines a single series
        # uses (BLAS dot products, libm pow), so it is the same bit for bit.
        rng = np.random.default_rng(7)
        for m in range(1, 7):
            for complex_a, complex_b in ((False, False), (True, False), (False, True), (True, True)):
                a = _batch(rng, 9, m, complex_a)
                b = _batch(rng, 9, m, complex_b)
                b[:, 0] = rng.uniform(0.5, 3.0, 9)
                got, rows = _rows_within_round_off(name, a, b)
                assert got.tobytes() == rows.tobytes(), (name, m, complex_a, complex_b)

    def test_ps_mul_sums_as_np_dot(self):
        # Each coefficient is the BLAS dot product np.dot takes of one pair
        # of series, fused multiply-adds and all.
        rng = np.random.default_rng(9)
        for m in range(1, 7):
            a = _batch(rng, 5, m, True)
            b = _batch(rng, 5, m, False)
            want = [[np.dot(ra[: n + 1], rb[n::-1]) for n in range(m)] for ra, rb in zip(a, b)]
            assert ps_mul(a, b).tobytes() == np.array(want).tobytes()

    def test_poly_taylor_rows_bit_identical(self):
        rng = np.random.default_rng(8)
        xs = np.concatenate(([0.0, 1.0], rng.uniform(-1.5, 2.5, 12)))
        for degree in range(6):
            c = rng.uniform(-2.0, 2.0, degree + 1)
            for m in range(1, 7):
                got = poly_taylor(c, xs, m)
                assert got.shape == (xs.size, m)
                for x, row in zip(xs, got):
                    assert row.tobytes() == poly_taylor(c, float(x), m).tobytes()
                    assert row.tobytes() == _shift_loop(c, float(x), m).tobytes()

    def test_poly_taylor_keeps_the_shape_of_the_points(self):
        assert poly_taylor([1.0, 2.0], 0.5, 3).shape == (3,)
        assert poly_taylor([1.0, 2.0], np.zeros((2, 4)), 3).shape == (2, 4, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ps_div([[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]),
            lambda: ps_pow([[1.0, 0.0], [0.0, 1.0]], 0.5),
            lambda: ps_pow([[1.0, 0.0], [-2.0, 1.0]], 0.5),
            lambda: ps_pow([[1.0 + 0j, 0.0], [1.0 + 1e-3j, 1.0]], 0.5),
            lambda: ps_log([[1.0, 0.0], [0.0, 1.0]]),
            lambda: ps_log([[1.0, 0.0], [-0.5, 1.0]]),
        ],
    )
    def test_one_bad_row_raises(self, call):
        with pytest.raises(ParameterError):
            call()

    def test_length_mismatch_in_a_batch(self):
        with pytest.raises(ParameterError):
            ps_mul(np.ones((3, 2)), np.ones((3, 3)))


class TestInputForms:
    """Arrays with an axis pass into the helpers as they are, and equal batch
    shapes are not broadcast; every other input form and every refusal
    behaves as before."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ps_mul([], []),
            lambda: ps_div(np.ones((3, 0)), np.ones((3, 0))),
            lambda: ps_pow(np.array([]), 0.5),
            lambda: ps_log(np.ones((2, 0))),
            lambda: ps_mul(np.ones((3, 2)), np.ones((3, 3))),
            lambda: ps_div(np.ones(2), [1.0, 2.0, 3.0]),
            lambda: ps_pow(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5),
            lambda: ps_pow(np.array([-1.0, 0.0]), 0.5),
            lambda: ps_log(np.array([[1.0, 0.0], [-0.5, 1.0]])),
            lambda: ps_log(np.array([1.0 + 1e-3j, 0.0])),
        ],
    )
    def test_refusals(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("name", ["ps_mul", "ps_div"])
    def test_batch_shapes_that_do_not_broadcast(self, name):
        with pytest.raises(ValueError):
            HELPERS[name](np.ones((3, 2)), np.ones((4, 2)))

    def test_lists_and_zero_d_inputs(self):
        assert ps_mul([1.0, 2.0], [3.0, 4.0]).tolist() == [3.0, 10.0]
        assert ps_div([3.0, 10.0], [1.0, 2.0]).tolist() == [3.0, 4.0]
        assert ps_pow([4.0, 4.0], 0.5).tolist() == [2.0, 1.0]
        assert ps_log([1.0, 2.0]).tolist() == [0.0, 2.0]
        assert ps_mul(np.array(2.0), 3.0).tolist() == [6.0]
        assert ps_div(np.array(6.0), np.float64(3.0)).tolist() == [2.0]
        assert ps_pow(np.array(4.0), 0.5).tolist() == [2.0]
        assert ps_log(np.float64(1.0)).tolist() == [0.0]

    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_forms_equal_single_rows(self, name):
        # Equal-shape arrays, nested lists and, for the products and
        # quotients, a batch against one series give, bit for bit, the
        # series the helper gives one row at a time.
        rng = np.random.default_rng(11)
        for m in range(1, 6):
            a = _batch(rng, 7, m, True)
            b = _batch(rng, 7, m, False)
            b[:, 0] = rng.uniform(0.5, 3.0, 7)
            forms = [(a, b, list(zip(a, b))), (a.tolist(), b.tolist(), list(zip(a, b)))]
            if name in ("ps_mul", "ps_div"):
                forms += [(a, b[3], [(row, b[3]) for row in a]), (a[:1], b, [(a[0], row) for row in b])]
            for x, y, pairs in forms:
                want = np.array([HELPERS[name](ra, rb) for ra, rb in pairs])
                got = HELPERS[name](x, y)
                assert got.tobytes() == want.tobytes(), (name, m)


@st.composite
def _series_pairs(draw):
    # Two (N, m) batches, each real or complex; the second has a positive
    # real head so that every helper accepts it.
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    parts = hnp.arrays(float, (n, m), elements=st.floats(-2.0, 2.0, allow_subnormal=False))
    pair = []
    for _ in range(2):
        x = draw(parts)
        if draw(st.booleans()):
            x = x + 1j * draw(parts)
        pair.append(x)
    pair[1][:, 0] = draw(hnp.arrays(float, n, elements=st.floats(0.5, 3.0)))
    return pair


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_series_pairs())
def test_batched_helpers_match_their_rows(pair):
    for name in HELPERS:
        _rows_within_round_off(name, *pair)
