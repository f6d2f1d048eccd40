"""The antiderivative bracket at x = a, which is the whole integral.

:func:`levin_value` assembles either kind from the :class:`EndData` of
Levin solves.  A Levin call of either route (:func:`oscquad.levin._quad_levin`)
hands :func:`_levin_value` the same data as plain values: the end data of
the one solve whose q(a) is read, and for the logarithmic kind the first
solve's c0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import _end_k_alg, _end_k_log
from .problem import ProblemSpec

__all__ = ["EndData", "upper_end_value", "levin_value"]


@dataclass(frozen=True)
class EndData:
    """One solve's data at x = a.

    ``c0`` is the solve's constant, ``q1`` and ``dq1`` are q1(a) and
    q1'(a), ``dq1_size`` is the size of the terms summed into q1'(a), and
    ``rhs`` is the solve's right-hand side at x = a.
    """

    c0: complex
    q1: complex
    dq1: complex
    dq1_size: float
    rhs: complex


def upper_end_value(spec: ProblemSpec, end: EndData, g_a: float, gp_a: float) -> complex:
    """``q(a) = c0 + g(a) q1(a)``, in whichever of two equal forms rounds less.

    ``g_a`` and ``gp_a`` are g(a) and g'(a).  On the model ODE collocated
    at x = a, q(a) also equals

        Phi(a) = (rhs(a) - g(a) q1'(a) - (1+alpha) g'(a) q1(a)) / (iw g'(a)),

    the map of :func:`oscquad.levin.picard_iterate` at the upper endpoint,
    for the right-hand side ``rhs`` of either solve.  The sum loses about
    ``eps (|c0| + g(a) |q1(a)|)``: c0 and g(a) q1(a) are each O(1/w), and
    at large w they nearly cancel, the more so the smaller rhs(a) is.  Phi
    loses about ``eps (|rhs(a)| + g(a) dq1_size + (1+alpha) g'(a) |q1(a)|)
    / (|w| g'(a))``, where ``dq1_size`` is the size of the terms summed into
    q1'(a); it grows like n^2 |q1|, so at small w the sum is the better
    form.  The form with the smaller bound is returned.
    """
    return _upper_end(spec, (end.c0, end.q1, end.dq1, end.dq1_size, end.rhs), g_a, gp_a)


def _upper_end(spec: ProblemSpec, end: tuple, g_a: float, gp_a: float) -> complex:
    # upper_end_value of the fields of an EndData, in their order.
    c0, q1, dq1, dq1_size, rhs = end
    linear = (1.0 + spec.alpha) * gp_a * q1
    phi_size = (abs(rhs) + g_a * dq1_size + abs(linear)) / (abs(spec.w) * gp_a)
    if phi_size >= abs(c0) + g_a * abs(q1):
        return c0 + g_a * q1
    return (rhs - g_a * dq1 - linear) / (1j * spec.w * gp_a)


def levin_value(spec: ProblemSpec, g_a: float, first: EndData, second: EndData | None = None) -> complex:
    """The integral of ``spec`` from its Levin solves' data at x = a.

    ``g_a`` is g(a) by :meth:`ProblemSpec.g_end`.  Algebraic kind (``first``
    only): the bracket ``g^{1+alpha} q1 + c0 (1 - e^{-iwg}) g^alpha + h``
    at x = a reduces to ``q(a) g^alpha + c0 e^{-iwg} K`` with
    ``K = alpha [Gamma(alpha,-iwg) - Gamma(alpha)] / (-iw)^alpha``, so the
    value is

        q(a) g(a)^alpha e^{iwg(a)} + c0 K(g(a)).

    Logarithmic kind: from the first solve (c0, q) and the second (d0, l),
    of right-hand side ``f21 - q1 g'`` with f21 = f log(g(a) x/g) (x/g)^alpha
    (:func:`oscquad.problem._regularised`), the bracket reduces to

        l(a) g^alpha e^{iwg} + d0 K + c0 iw K_log(g),   g = g(a),

    with K_log of :func:`oscquad.numkernel.kernel_k_log`; l(a) is the q(a)
    of the second solve alone, so its O(1/w) parts cancel before rounding.

    q(a) comes from :func:`upper_end_value`, which avoids the cancellation
    between c0 and g(a) q1(a) at large w.  K and K_log are kept per
    (alpha, w, g(a)), so a second rule or node count on the same problem
    reads them.  The value is returned times the phase shift.
    """
    end = first if second is None else second
    return _levin_value(spec, g_a, (end.c0, end.q1, end.dq1, end.dq1_size, end.rhs),
                        None if second is None else first.c0)


def _levin_value(spec: ProblemSpec, g_a: float, end: tuple, first_c0: complex | None) -> complex:
    # levin_value from the fields of the EndData whose q(a) is read, in their
    # order, and the first solve's c0 (None for the algebraic kind).
    alpha, w = spec.alpha, spec.w
    # g'(a) a NumPy scalar: _upper_end divides by iw g'(a) in NumPy.
    gp_a = np.float64(spec.oscillator.deriv1(spec.a))
    c0 = end[0]
    value = _upper_end(spec, end, g_a, gp_a) * g_a**alpha * np.exp(1j * w * g_a)
    if c0 != 0:
        value += c0 * _end_k_alg(alpha, w, g_a)
    if first_c0 is not None and first_c0 != 0:
        value += first_c0 * (1j * w) * _end_k_log(alpha, w, g_a)
    return complex(value * spec.phase_shift)
