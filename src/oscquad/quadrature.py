"""The public quadrature rules.

``quad_alg`` and ``quad_log`` take the node count n and the
asymptotic-order parameter s and dispatch on s: s = 0 runs the
derivative-free physical-space collocation, s >= 1 the frequency-space
Hermite path (the two coincide in value for linear oscillators), both by
``compute``, which runs the one Levin pipeline of :mod:`oscquad.levin` on
the route's operator and also selects the Filon rule, the composite
baseline and the brute-force oracle.  Every rule refuses an n or
s that is not an integer.

The lower integration endpoint is handled analytically: every bracket term
of the antiderivative vanishes as x -> 0+ for alpha > -1, so only the
upper endpoint contributes (:mod:`oscquad.boundary`).  This avoids
evaluating g(x)^alpha at the singular point.
"""

from __future__ import annotations

from ._result import Method, QuadratureResult, check_counts
from .errors import CapabilityError, ParameterError
from .filon import _filon, _quad_freq
from .levin import _quad_physical
from .problem import ProblemSpec, SingKind

__all__ = [
    "Method",
    "QuadratureResult",
    "quad_alg",
    "quad_log",
    "compute",
]


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
    return compute(spec, Method.LEVIN_PHYSICAL if s == 0 else Method.LEVIN_FREQ, n, s)


def quad_log(spec: ProblemSpec, n: int, s: int) -> QuadratureResult:
    """Quadrature for the algebraic-logarithmic kind.

    For s = 0 two physical-space solves on one operator produce (c0, q1)
    from f1 and (d0, l1) from ``f21 - q1 g'``, which by linearity folds in
    the f2 amplitude's algebraic problem.  The value is the boundary
    bracket with the logarithmic kernel (:func:`oscquad.boundary.levin_value`),
    which reads ``q(a) log g(a) + l(a)`` as one end value, as in
    :func:`quad_alg`.  For s >= 1 the frequency-space path performs the
    analogous assembly.
    """
    if spec.kind is not SingKind.ALGEBRAIC_LOG:
        raise ParameterError("quad_log requires a logarithmic-kind problem")
    return compute(spec, Method.LEVIN_PHYSICAL if s == 0 else Method.LEVIN_FREQ, n, s)


def compute(spec: ProblemSpec, method: Method, n: int, s: int) -> QuadratureResult:
    """Evaluate the integral of ``spec`` with an explicitly chosen method.

    Parameters
    ----------
    spec : ProblemSpec
    method : Method
        LEVIN_PHYSICAL requires s = 0.  CMFP requires a linear oscillator
        on [0, 1] with |w| g'(0) >= 1 (n is its number of geometric panels
        n1).  ORACLE requires |w| g(a) within the brute-force cap.
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
    check_counts(n=n, s=s)
    if method is Method.LEVIN_PHYSICAL:
        if s != 0:
            raise CapabilityError(
                "the physical-space solver is derivative-free: s must be 0 "
                "(use the frequency path for s >= 1)"
            )
        return _quad_physical(spec, n)
    if method is Method.LEVIN_FREQ:
        return _quad_freq(spec, n, s)
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
