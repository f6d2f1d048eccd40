"""Public entry points refuse input they cannot compute with: each case raises
its class, with a message naming what is wrong."""

import io

import numpy as np
import pytest

from oscquad import Method, compute, radau_grid
from oscquad._series import poly_taylor
from oscquad.benchcli import run_command
from oscquad.baselines import cmf_composite, exponential_moments, gauss_legendre
from oscquad.cheb import barycentric_weights, lobatto_grid, radau_origin_weights_closed, radau_reference_nodes
from oscquad.errors import CapabilityError, DegenerateSystemError, InvalidOscillatorError, ParameterError
from oscquad.filon import build_hermite_data, build_moment_table, hermite_solve, moments_mu, quad_filon
from oscquad.levin import assemble_L, picard_iterate
from oscquad.numkernel import KernelDiag, Strategy, hyp2f2_equal, neg_iw_pow, upper_gamma_complex
from oscquad.problem import (
    Amplitude,
    Oscillator,
    ProblemSpec,
    SingKind,
    build_problem,
    builtin_problem,
    delta_alpha,
    f1_derivatives,
)

SPEC = builtin_problem("ex51", 0.5, 100.0)


def _problem(amplitude=(1.0,), kind=SingKind.ALGEBRAIC):
    return build_problem(amplitude=Amplitude.from_poly(list(amplitude)), oscillator=Oscillator.from_poly([0.0, 1.0]),
                         a=1.0, alpha=0.5, kind=kind, w=10.0)


def _on(oscillator):
    return build_problem(amplitude=Amplitude.from_poly([1.0]), oscillator=oscillator, a=1.0, alpha=0.5,
                         kind=SingKind.ALGEBRAIC, w=10.0)


def _spec_with_g(coeffs):
    # A problem with g as given, built without build_problem's checks.
    return ProblemSpec(Amplitude.from_poly([1.0]), Oscillator.from_poly(coeffs), 1.0, 0.5, SingKind.ALGEBRAIC, 10.0)


# Problems whose normalised g is not beta x: the two quadratic built-ins,
# x + 0.25 x^2, and g = 2x without a coefficient vector.
NOT_LINEAR = {
    "ex53a": builtin_problem("ex53a", 0.5, 100.0),
    "ex53b": builtin_problem("ex53b", 0.5, 100.0),
    "quadratic": _on(Oscillator.from_poly([0.0, 1.0, 0.25])),
    "non-polynomial-2x": _on(Oscillator(lambda x: 2.0 * np.asarray(x, dtype=float),
                                        lambda xs, m: poly_taylor([0.0, 2.0], xs, m))),
}
# A table of Hermite values of the right shape, (npts, s + 1) = (6, 2).
VALUES = np.ones((6, 2))
FILON_PIECES = {
    "compute": lambda spec: compute(spec, Method.FILON, 6, 1),
    "build_hermite_data": lambda spec: build_hermite_data(spec, 6, 1),
    "build_moment_table": lambda spec: build_moment_table(spec, 4),
    "hermite_solve": lambda spec: hermite_solve(VALUES, spec),
    "quad_filon": lambda spec: quad_filon(spec, VALUES),
}


@pytest.mark.parametrize("piece", FILON_PIECES)
@pytest.mark.parametrize("problem", NOT_LINEAR)
def test_filon_refuses_g_not_beta_x(problem, piece):
    with pytest.raises(CapabilityError, match=r"FILON supports g = beta x only .*use LEVIN_FREQ"):
        FILON_PIECES[piece](NOT_LINEAR[problem])


def test_filon_on_nonlinear_g_exits_3():
    err = io.StringIO()
    code = run_command(["eval", "--problem", "ex53a", "--alpha", "0.5", "--w", "100", "--n", "8", "--method", "filon"],
                       stdout=io.StringIO(), stderr=err)
    assert code == 3 and "FILON supports g = beta x only" in err.getvalue()


def _eval_exit(*args):
    # ``oscquad-bench eval`` with ``args``, its exit code and error output
    # raised as SystemExit("code: message").
    err = io.StringIO()
    code = run_command(["eval", *args], stdout=io.StringIO(), stderr=err)
    raise SystemExit(f"{code}: {err.getvalue()}")


# Polynomial g whose g' vanishes on [0, 1]: g' = (x - 0.7)^2, and
# g' = (x - 0.5)^2 - 1e-6, negative only on an interval narrower than the
# spacing 1/257 of the samples a non-polynomial g is checked on.
STATIONARY_G = {
    "double-zero": [0.0, 0.49, -0.7, 1.0 / 3.0],
    "narrow-dip": [0.0, 0.25 - 1e-6, -0.5, 1.0 / 3.0],
}


@pytest.mark.parametrize("g", STATIONARY_G)
def test_g_with_vanishing_slope_is_refused(g):
    with pytest.raises(InvalidOscillatorError, match="changes sign"):
        _on(Oscillator.from_poly(STATIONARY_G[g]))
    err = io.StringIO()
    code = run_command(["eval", "--f-poly", "1", "--g-poly", ",".join(map(repr, STATIONARY_G[g])), "--alpha", "0.5",
                        "--w", "100", "--n", "8"], stdout=io.StringIO(), stderr=err)
    assert code == 2 and "changes sign" in err.getvalue()


CASES = [
    pytest.param(lambda: poly_taylor([1.0, 2.0], 0.5, 0), ParameterError, "m must be at least 1", id="poly_taylor-m0"),
    pytest.param(lambda: exponential_moments(1.0, 0), ParameterError, "count must be at least 1", id="exponential_moments-count0"),
    pytest.param(lambda: cmf_composite(lambda x: x, 4, 4, 1.0, 1.0, 10.0), ParameterError, "need a < b", id="cmf_composite-a=b"),
    pytest.param(lambda: cmf_composite(np.cos, 4, 4, 0.0, np.inf, 10.0), ParameterError, "b must be finite, got inf", id="cmf_composite-b-inf"),
    pytest.param(lambda: cmf_composite(np.cos, 4, 4, np.nan, 1.0, 10.0), ParameterError, "a must be finite, got nan", id="cmf_composite-a-nan"),
    pytest.param(lambda: cmf_composite(np.cos, 4, 4, 0.0, 1.0, np.nan), ParameterError, "w must be finite, got nan", id="cmf_composite-w-nan"),
    pytest.param(lambda: gauss_legendre(np.cos, 0.0, np.inf, 4), ParameterError, "b must be finite, got inf", id="gauss_legendre-b-inf"),
    pytest.param(lambda: gauss_legendre(np.cos, -np.inf, 0.0, 4), ParameterError, "a must be finite, got -inf", id="gauss_legendre-a-inf"),
    pytest.param(lambda: barycentric_weights(np.array([0.5])), ParameterError, "need at least two nodes", id="barycentric_weights-one-node"),
    pytest.param(lambda: radau_reference_nodes(1), ParameterError, "n must be at least 2", id="radau_reference_nodes-1"),
    pytest.param(lambda: radau_origin_weights_closed(1), ParameterError, "n must be at least 2", id="radau_origin_weights_closed-1"),
    pytest.param(lambda: moments_mu(0.5, 10.0, 1.0, 0), ParameterError, "count must be at least 1", id="moments_mu-count0"),
    pytest.param(lambda: assemble_L(SPEC, lobatto_grid(8)), ParameterError, "requires a Radau grid", id="assemble_L-lobatto"),
    pytest.param(lambda: picard_iterate(SPEC, radau_grid(8), 0), ParameterError, "k must be at least 1", id="picard_iterate-k0"),
    pytest.param(lambda: picard_iterate(SPEC, lobatto_grid(8), 1), ParameterError, "requires a Radau grid", id="picard_iterate-lobatto"),
    pytest.param(lambda: neg_iw_pow(0.5, 0.0), ParameterError, "w must be nonzero", id="neg_iw_pow-w0"),
    pytest.param(lambda: upper_gamma_complex(0.5, -2 + 0j), ParameterError, "branch cut", id="upper_gamma_complex-branch-cut"),
    pytest.param(lambda: upper_gamma_complex(0.0, 2j), CapabilityError, "does not support a=0", id="upper_gamma_complex-a0"),
    pytest.param(lambda: hyp2f2_equal(0.0, 2j), ParameterError, "excluding 0, got 0.0", id="hyp2f2_equal-alpha0"),
    pytest.param(lambda: hyp2f2_equal(2.0, 2j), ParameterError, "excluding 0, got 2.0", id="hyp2f2_equal-alpha2"),
    pytest.param(lambda: hyp2f2_equal(0.5, 30 + 0j), CapabilityError, "purely imaginary z", id="hyp2f2_equal-real-z"),
    pytest.param(lambda: Amplitude.from_poly([1.0, 2.0]).series_at(0.5, 0), ParameterError, "m must be at least 1", id="Amplitude.series_at-m0"),
    pytest.param(lambda: Oscillator.from_poly([0.0, 1.0]).series_at(0.5, 0), ParameterError, "m must be at least 1", id="Oscillator.series_at-m0"),
    pytest.param(lambda: Amplitude.from_poly([1.0]).series_at(np.ones((2, 2)), 3), ParameterError, "scalar or a 1-D array", id="Amplitude.series_at-2d"),
    pytest.param(lambda: Oscillator.from_poly([0.0, 1.0]).series_at(np.ones((2, 2)), 3), ParameterError, "scalar or a 1-D array", id="Oscillator.series_at-2d"),
    pytest.param(lambda: Amplitude.from_poly([]), ParameterError, "empty coefficient list", id="Amplitude.from_poly-empty"),
    pytest.param(lambda: Oscillator.from_poly([]), ParameterError, "empty coefficient list", id="Oscillator.from_poly-empty"),
    pytest.param(lambda: _problem(kind="algebraic"), ParameterError, "kind must be a SingKind, got 'algebraic'", id="build_problem-str-kind"),
    pytest.param(lambda: _problem(amplitude=(float("nan"),)), ParameterError, "amplitude not finite", id="build_problem-nan-amplitude"),
    pytest.param(lambda: f1_derivatives(SPEC, 0.5, -1), ParameterError, "max_order must be nonnegative", id="f1_derivatives-order-1"),
    pytest.param(lambda: delta_alpha(1.0, 10.0), ParameterError, "0<|alpha|<1, got 1.0", id="delta_alpha-alpha1"),
    pytest.param(lambda: delta_alpha(0.5, 0.0), ParameterError, "w must be positive", id="delta_alpha-w0"),
    pytest.param(lambda: compute(SPEC, "levin", 8, 0), ParameterError, "unknown method: 'levin'", id="compute-unknown-method"),
    pytest.param(lambda: compute(_spec_with_g([0.0, -1.0, 3.0]), Method.LEVIN_FREQ, 8, 1), InvalidOscillatorError, "g'(0) must be positive", id="compute-levin-freq-slope-negative-at-0"),
    pytest.param(lambda: compute(_spec_with_g([0.0, 0.0, 1.0]), Method.LEVIN_FREQ, 8, 1), InvalidOscillatorError, "g'(0) must be positive", id="compute-levin-freq-slope-zero-at-0"),
    pytest.param(lambda: compute(_spec_with_g([0.0, -1.0, 3.0]), Method.LEVIN_PHYSICAL, 8, 0), InvalidOscillatorError, "g' must be positive at all collocation nodes", id="compute-levin-physical-slope-negative-at-0"),
    pytest.param(lambda: compute(_spec_with_g([0.0, 0.0, 1.0]), Method.LEVIN_PHYSICAL, 8, 0), InvalidOscillatorError, "g' must be positive at all collocation nodes", id="compute-levin-physical-slope-zero-at-0"),
    pytest.param(lambda: KernelDiag(Strategy.SERIES, 0, 0.0), ParameterError, "invalid kernel diagnostics", id="KernelDiag-terms0"),
    pytest.param(lambda: compute(SPEC, Method.FILON, 30, 5), DegenerateSystemError, "Hermite interpolation conditions violated", id="compute-filon-hermite-conditions-violated"),
    pytest.param(lambda: _eval_exit("--problem", "ex51", "--alpha", "0.5", "--w", "100", "--n", "30", "--s", "5", "--method", "filon"), SystemExit, "4: accuracy error: Hermite interpolation conditions violated", id="cli-filon-hermite-conditions-violated-exit-4"),
]


@pytest.mark.parametrize("call, error, fragment", CASES)
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
