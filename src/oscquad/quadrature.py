"""Top-level quadrature operators assembling solver output into values.

The two public rules are ``quad_alg`` and ``quad_log``; both take the node
count n and the asymptotic-order parameter s and dispatch on s: s = 0 runs
the derivative-free physical-space collocation, s >= 1 the frequency-space
Hermite path (the two coincide in value for linear oscillators).
``compute`` adds method selection on top, including the composite baseline
and the brute-force oracle.

The lower integration endpoint is handled analytically: every bracket term
of the antiderivative vanishes as x -> 0+ for alpha > -1, so only the
upper endpoint contributes (:mod:`oscquad.boundary`).  This avoids
evaluating g(x)^alpha at the singular point.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from ._result import Method, QuadratureResult
from .boundary import EndData, levin_value
from .errors import CapabilityError, ParameterError
from .filon import _filon, quad_freq
from .levin import LevinSolution, solve_alg, solve_log
from .problem import ProblemSpec, SingKind, _unit_interval

__all__ = [
    "Method",
    "QuadratureResult",
    "quad_alg",
    "quad_log",
    "compute",
]


def _end_data(sol: LevinSolution, a: float) -> EndData:
    # A solve on [0, 1] read at x = a: c0 times a, q1(a) at the last node,
    # and q1'(a) from the last row of the differentiation matrix over a.
    q1 = sol.q1_values
    row = sol.grid.diff[-1]
    return EndData(sol.c0 * a, complex(q1[-1]), complex(row @ q1) / a, float(np.abs(row) @ np.abs(q1)) / a, sol.rhs_end)


def _quad_physical(spec: ProblemSpec, n: int) -> QuadratureResult:
    # The s = 0 rule of either kind: the physical-space solves on [0, 1],
    # read off the bracket at x = a by boundary.levin_value.
    unit = _unit_interval(spec)
    sols = (solve_alg(unit, n),) if spec.kind is SingKind.ALGEBRAIC else solve_log(unit, n)
    first = sols[0]
    diagnostics = {
        "residual_norm": first.residual_norm,
        "smallest_sv": first.smallest_sv,
        "tsvd_truncated": first.tsvd_truncated,
    }
    if spec.kind is SingKind.ALGEBRAIC_LOG:
        diagnostics["residual_norm_second"] = sols[1].residual_norm
        diagnostics["residual_norm_f2"] = sols[2].residual_norm
    return QuadratureResult(
        value=levin_value(spec, *(_end_data(sol, spec.a) for sol in sols)),
        method=Method.LEVIN_PHYSICAL,
        s=0,
        n=n,
        diagnostics=diagnostics,
    )


def quad_alg(spec: ProblemSpec, n: int, s: int) -> QuadratureResult:
    """Quadrature for the algebraic kind.

    For s = 0 the physical-space solution (c0, q1) is assembled into

        [q(a) g(a)^alpha e^{iwg(a)} + c0 K(g(a))] phase_shift,
        K(g) = alpha [Gamma(alpha, -iwg) - Gamma(alpha)] / (-iw)^alpha,

    the antiderivative bracket ``g^{1+alpha} q1 + c0 (1 - e^{-iwg}) g^alpha
    + h`` at x = a times e^{iwg(a)}, with the lower limit contributing zero.
    At large w, ``q(a) = c0 + g(a) q1(a)`` is read off the collocated ODE
    at x = a instead of being summed from c0 and g(a) q1(a), which are
    each O(1/w) and nearly cancel (:func:`oscquad.boundary.upper_end_value`
    picks the form that rounds less).  For s >= 1
    the call routes to the frequency-space path, which produces the same
    value for linear oscillators and the Hermite-enhanced asymptotic order
    in general.
    """
    if spec.kind is not SingKind.ALGEBRAIC:
        raise ParameterError("quad_alg requires an algebraic-kind problem")
    if s < 0:
        raise ParameterError("s must be nonnegative")
    if s >= 1:
        return quad_freq(spec, n, s)
    return _quad_physical(spec, n)


def quad_log(spec: ProblemSpec, n: int, s: int) -> QuadratureResult:
    """Quadrature for the algebraic-logarithmic kind.

    For s = 0 the coupled physical-space solves produce (c0, q1) and
    (d0, l1); the value adds the boundary bracket with the logarithmic
    kernel (:func:`oscquad.boundary.levin_value`, from q(a) and l(a) of the
    two solves, as in :func:`quad_alg`) to the algebraic rule applied to the
    f2 amplitude, whose solve shares the operator of the other two (it
    differs from ``spec`` in the amplitude only).  For s >= 1 the
    frequency-space path performs the analogous assembly.
    """
    if spec.kind is not SingKind.ALGEBRAIC_LOG:
        raise ParameterError("quad_log requires a logarithmic-kind problem")
    if s < 0:
        raise ParameterError("s must be nonnegative")
    if s >= 1:
        return quad_freq(spec, n, s)
    return _quad_physical(spec, n)


def compute(spec: ProblemSpec, method: Method, n: int, s: int) -> QuadratureResult:
    """Evaluate the integral of ``spec`` with an explicitly chosen method.

    Parameters
    ----------
    spec : ProblemSpec
    method : Method
        LEVIN_PHYSICAL requires s = 0.  CMFP requires a linear oscillator
        (n is its number of geometric panels n1).  ORACLE requires
        |w| g(a) within the brute-force cap.
    n, s : int
        Node count / panel count and asymptotic-order parameter.

    Raises
    ------
    CapabilityError
        For (method, spec) pairs outside the supported scope.
    ParameterError
        When n or s is not an integer (bool included).
    AccuracyError
        When the computed value is not finite (for example the oracle near
        alpha = -1).
    """
    for name, value in (("n", n), ("s", s)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if method is Method.LEVIN_PHYSICAL:
        if s != 0:
            raise CapabilityError(
                "the physical-space solver is derivative-free: s must be 0 "
                "(use the frequency path for s >= 1)"
            )
        return _quad_physical(spec, n)
    if method is Method.LEVIN_FREQ:
        return quad_freq(spec, n, s)
    if method is Method.FILON:
        return _filon(spec, n, s)
    if method is Method.CMFP:
        from .baselines import cmfp, default_cmfp_params

        return cmfp(spec, default_cmfp_params(spec, n))
    if method is Method.ORACLE:
        from .baselines import reference_oracle

        value = reference_oracle(spec)
        return QuadratureResult(
            value=value,
            method=Method.ORACLE,
            s=0,
            n=0,
            diagnostics={"ref_kind": "oracle"},
        )
    raise ParameterError(f"unknown method: {method!r}")
