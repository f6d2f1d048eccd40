"""The antiderivative bracket at x = a, which is the whole integral.

:func:`levin_value` assembles either kind from plain values: the end data
of the one Levin solve whose q(a) is read, the tuple ``(c0, q1(a),
q1'(a), dq1_size, rhs(a))``, and for the logarithmic kind the first
solve's c0.  A Levin call of either route
(:func:`oscquad.levin._quad_levin`) hands it exactly these.
"""

from __future__ import annotations

import numpy as np

from .numkernel import _end_k_alg, _end_k_log
from .problem import ProblemSpec

__all__ = ["upper_end_value", "levin_value"]


def upper_end_value(spec: ProblemSpec, end: tuple, g_a: float, gp_a: float) -> complex:
    """``q(a) = c0 + g(a) q1(a)``, in whichever of two equal forms rounds less.

    ``end`` is one solve's data at x = a, ``(c0, q1, dq1, dq1_size, rhs)``:
    the solve's constant, q1(a) and q1'(a), the size of the terms summed
    into q1'(a), and the solve's right-hand side at x = a.  ``g_a`` and
    ``gp_a`` are g(a) and g'(a).  On the model ODE collocated
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
    c0, q1, dq1, dq1_size, rhs = end
    linear = (1.0 + spec.alpha) * gp_a * q1
    phi_size = (abs(rhs) + g_a * dq1_size + abs(linear)) / (abs(spec.w) * gp_a)
    if phi_size >= abs(c0) + g_a * abs(q1):
        return c0 + g_a * q1
    return (rhs - g_a * dq1 - linear) / (1j * spec.w * gp_a)


def levin_value(spec: ProblemSpec, g_a: float, end: tuple, first_c0: complex | None = None) -> complex:
    """The integral of ``spec`` from its Levin solves' data at x = a.

    ``g_a`` is g(a) by :meth:`ProblemSpec.g_end`, and ``end`` the end data
    of :func:`upper_end_value` of the solve whose q(a) is read.  Algebraic
    kind (``first_c0`` None, ``end`` of the one solve): the bracket
    ``g^{1+alpha} q1 + c0 (1 - e^{-iwg}) g^alpha + h`` at x = a reduces to
    ``q(a) g^alpha + c0 e^{-iwg} K`` with
    ``K = alpha [Gamma(alpha,-iwg) - Gamma(alpha)] / (-iw)^alpha``, so the
    value is

        q(a) g(a)^alpha e^{iwg(a)} + c0 K(g(a)).

    Logarithmic kind (``end`` of the second solve, ``first_c0`` the first
    solve's c0): from the first solve (c0, q) and the second (d0, l),
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
    alpha, w = spec.alpha, spec.w
    # g'(a) a NumPy scalar: upper_end_value divides by iw g'(a) in NumPy.
    gp_a = np.float64(spec.oscillator.deriv1(spec.a))
    c0 = end[0]
    value = upper_end_value(spec, end, g_a, gp_a) * g_a**alpha * np.exp(1j * w * g_a)
    if c0 != 0:
        value += c0 * _end_k_alg(alpha, w, g_a)
    if first_c0 is not None and first_c0 != 0:
        value += first_c0 * (1j * w) * _end_k_log(alpha, w, g_a)
    return complex(value * spec.phase_shift)
