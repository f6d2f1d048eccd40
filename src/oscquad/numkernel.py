"""Special-function kernels.

Provides the real gamma function, the upper incomplete gamma function with
complex argument, the equal-parameter generalized hypergeometric function
2F2(b,b;1+b,1+b;z), and the explicit boundary kernels h(x) that close the
singularity-separated Levin quadratures.

Evaluation strategies
---------------------
``upper_gamma_complex`` has two: a power series of the lower incomplete
gamma for small ``|z|`` and a Lentz-style continued fraction for large
``|z|``; a continued fraction that stalls raises :class:`AccuracyError`, as
a stalled series does.  ``hyp2f2_equal`` uses a compensated Maclaurin
series for small ``|z|`` and a rotated-path representation for large purely
imaginary ``z``, the regime the oscillatory kernels live in.  The rotated
path has a 32-node Gauss-Laguerre rule: its integrand along the ray is
smooth enough that 32 nodes reach round-off (``tests/test_numkernel.py``
pins it against 40-digit values).  Every result carries a
:class:`KernelDiag` describing what was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gamma as _gamma, psi as _psi, roots_laguerre

from ._kept import freeze, kept
from .errors import AccuracyError, CapabilityError, ParameterError

__all__ = [
    "Strategy",
    "KernelDiag",
    "gamma_real",
    "neg_iw_pow",
    "upper_gamma_complex",
    "hyp2f2_equal",
    "kernel_k_alg",
    "kernel_k_log",
    "kernel_h_alg",
    "kernel_h_log",
    "GAMMA_CROSSOVER",
    "HYP2F2_SERIES_MAX",
]

# Crossover radii between evaluation strategies.  Both are tuned so the
# strategies agree on the overlap annulus to ~1e-11; growing the series
# ranges loses digits to cancellation (the series terms grow like e^|z|).
# The continued fraction stays at full precision down to |z| ~ 1, so the
# gamma series is confined to the disc where it is exact to ~1e-14.
GAMMA_CROSSOVER = 1.0
HYP2F2_SERIES_MAX = 10.0

_EPS = np.finfo(float).eps
# Step caps of the two Gamma(a, z) routes and of the 2F2 series: past any
# of them, AccuracyError.
_GAMMA_SERIES_TERMS = 400
_GAMMA_CF_STEPS = 600
_HYP2F2_SERIES_TERMS = 400


class Strategy(Enum):
    """Which evaluation route produced a kernel value."""

    SERIES = "series"
    CONTINUED_FRACTION = "continued-fraction"
    ROTATED_PATH = "rotated-path-quadrature"


@dataclass(frozen=True)
class KernelDiag:
    """Diagnostics attached to a special-function evaluation.

    Attributes
    ----------
    strategy : Strategy
        Route that produced the value.
    terms_used : int
        Series terms or continued-fraction / quadrature nodes consumed.
    est_error : float
        Crude forward-error estimate (relative).
    """

    strategy: Strategy
    terms_used: int
    est_error: float

    def __post_init__(self):
        if self.terms_used < 1 or not self.est_error >= 0.0:
            raise ParameterError("invalid kernel diagnostics")


def gamma_real(a: float) -> float:
    """Gamma function of a real argument off the poles.

    Parameters
    ----------
    a : float
        Argument; must not be zero or a negative integer.

    Returns
    -------
    float
    """
    if a <= 0 and a == round(a):
        raise ParameterError(f"gamma pole at a={a}")
    return float(_gamma(a))


def neg_iw_pow(alpha: float, w: float) -> complex:
    """Principal-branch power (-iw)**alpha for real nonzero w.

    Uses (-iw)**alpha = exp(alpha*(log|w| - i*(pi/2)*sign(w))), the branch
    consistent with the integral representations behind the h kernels and
    the moment formulas.
    """
    if w == 0:
        raise ParameterError("w must be nonzero")
    return complex(np.exp(alpha * (math.log(abs(w)) - 1j * (math.pi / 2) * math.copysign(1.0, w))))


def _check_finite_z(z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"z must be finite, got {z!r}")


def _check_gamma_domain(a: float, z: complex) -> None:
    _check_finite_z(z)
    if not -1.0 < a < 2.0:
        raise ParameterError(f"upper_gamma_complex requires a in (-1,2), got {a}")
    if a == 0.0:
        raise CapabilityError("upper_gamma_complex does not support a=0")
    if z == 0 and a <= 0:
        raise ParameterError("z=0 requires a>0")
    if z.real < 0 and z.imag == 0:
        raise ParameterError("z on the negative real axis (branch cut)")


def _power(z: complex, a: float) -> complex:
    # z**a where Python's float or complex power raises OverflowError (|z|
    # near the ends of the float range): both Gamma(a, z) routes, the
    # moments' g(a)^(j+alpha) and kernel_k_log's gx^(1+alpha).
    try:
        return z**a
    except OverflowError:
        raise AccuracyError(f"z**a overflows at |z| = {abs(z):.3g}, a = {a:g}") from None


def _upper_gamma_series(a: float, z: complex):
    # Gamma(a,z) = Gamma(a) - gamma(a,z), lower gamma by the ascending series
    # gamma(a,z) = z^a e^{-z} sum_n z^n / (a(a+1)...(a+n)).
    term = 1.0 / a
    total = term
    for n in range(1, _GAMMA_SERIES_TERMS):
        term *= z / (a + n)
        total += term
        if abs(term) <= _EPS * abs(total):
            lower = _power(z, a) * np.exp(-z) * total
            return gamma_real(a) - lower, n + 1, abs(term) / max(abs(total), _EPS)
    raise AccuracyError(
        f"incomplete gamma series stalled at |z|={abs(z):.3g} "
        f"(est_error={abs(term) / max(abs(total), _EPS):.2e})"
    )


def _upper_gamma_cf(a: float, z: complex):
    # Modified Lentz evaluation of the continued fraction
    # Gamma(a,z) = e^{-z} z^a / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(...))).
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_CF_STEPS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 4 * _EPS:
            return _power(z, a) * np.exp(-z) * h, i, abs(delta - 1.0)
    raise AccuracyError(
        f"incomplete gamma continued fraction stalled at a={a!r}, z={z!r} "
        f"(last step {abs(delta - 1.0):.2e})"
    )


# The rule of hyp2f2_equal's rotated path.  Read by every rotated-path
# call, so frozen: no caller can alter it.
_HYP2F2_NODES, _HYP2F2_WEIGHTS = freeze(roots_laguerre(32))


def upper_gamma_complex(
    a: float,
    z: complex,
    crossover: float = GAMMA_CROSSOVER,
) -> tuple[complex, KernelDiag]:
    """Upper incomplete gamma function Gamma(a, z) for complex z.

    Parameters
    ----------
    a : float
        Order, restricted to (-1, 2) excluding 0.
    z : complex
        Argument off the negative real axis; z=0 allowed only for a>0.
        Outside the series disc (|z| > ``crossover``) a wedge around the
        negative real axis is refused with AccuracyError, where the
        continued fraction stalls: within about 40 degrees of the axis
        just above |z| = 1, 28 at |z| = 2, 11 at |z| = 10, under 1 at
        |z| = 40 and none from about |z| = 50 (a from -0.95 to 1.95).
    crossover : float, optional
        Radius up to which the lower-gamma power series is used; the
        continued fraction is used above it.

    Returns
    -------
    value : complex
    diag : KernelDiag

    Raises
    ------
    AccuracyError
        When ``z**a`` overflows: |z| near the top of the float range with
        a > 1, or near its bottom with a < 0.  When the continued fraction
        stalls (600 steps): near the negative real axis, within about 40
        degrees of it at |z| = 1, 11 at |z| = 10 and 1 at |z| = 40.

    Notes
    -----
    The series and continued-fraction routes agree to ~1e-11 on the
    crossover annulus.  On purely imaginary z with |z| > 1, the arguments
    of the package's kernels, the continued fraction converges in at most
    about 170 steps for every a in (-1, 2).
    """
    z = complex(z)
    _check_gamma_domain(a, z)
    if z == 0:
        return complex(gamma_real(a)), KernelDiag(Strategy.SERIES, 1, 0.0)
    if abs(z) <= crossover:
        value, terms, est = _upper_gamma_series(a, z)
        return complex(value), KernelDiag(Strategy.SERIES, terms, est)
    value, iters, est = _upper_gamma_cf(a, z)
    return complex(value), KernelDiag(Strategy.CONTINUED_FRACTION, iters, est)


def _hyp2f2_core_series(beta: float, z: complex):
    # F(beta,z) = sum_k z^k / (k! (k+beta)^2) with Kahan compensation;
    # 2F2(beta,beta;1+beta,1+beta;z) = beta^2 F(beta,z).
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    abssum = 0.0
    term = 1.0 + 0.0j
    for k in range(_HYP2F2_SERIES_TERMS):
        piece = term / (k + beta) ** 2
        abssum += abs(piece)
        y = piece - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term *= z / (k + 1)
        if abs(piece) <= _EPS * abs(total) and k > 2:
            cancel = abssum / max(abs(total), _EPS)
            return total, k + 1, cancel * _EPS
    raise AccuracyError("2F2 series did not converge")


def _hyp2f2_core_rotated(beta: float, z: complex):
    # F(beta, iY) for Y > 0 and beta in (0,2): rotate the defining integral
    # int_0^1 u^{beta-1} (-log u) e^{iYu} du onto the steepest-descent rays.
    Y = z.imag
    i0 = (
        1j
        * np.exp(1j * math.pi * (beta - 1.0) / 2.0)
        * gamma_real(beta)
        * Y ** (-beta)
        * (math.log(Y) - _psi(beta) - 1j * math.pi / 2.0)
    )
    v = 1.0 + 1j * _HYP2F2_NODES / Y
    gvals = v ** (beta - 1.0) * (-np.log(v))
    i1 = 1j * np.exp(1j * Y) * np.dot(_HYP2F2_WEIGHTS, gvals) / Y
    return i0 - i1


def hyp2f2_equal(
    alpha: float,
    z: complex,
    series_max: float = HYP2F2_SERIES_MAX,
) -> tuple[complex, KernelDiag]:
    """Equal-parameter hypergeometric 2F2(a,a;1+a,1+a;z).

    Parameters
    ----------
    alpha : float
        Parameter in (-1, 2) excluding 0 (the quadratures use 1+alpha, in
        :func:`kernel_k_log`).
    z : complex
        Argument.  Arbitrary for ``|z| <= series_max``; purely imaginary
        otherwise (the rotated-path representation assumes it).
    series_max : float, optional
        Crossover radius for the Maclaurin series.  Values much beyond 10
        lose digits to cancellation in double precision because the series
        terms grow like e^|z|.

    Returns
    -------
    value : complex
    diag : KernelDiag
    """
    if not -1.0 < alpha < 2.0 or alpha == 0.0:
        raise ParameterError(f"hyp2f2_equal requires alpha in (-1,2) excluding 0, got {alpha}")
    z = complex(z)
    _check_finite_z(z)
    if z == 0:
        return 1.0 + 0.0j, KernelDiag(Strategy.SERIES, 1, 0.0)
    if abs(z) <= series_max:
        core, terms, est = _hyp2f2_core_series(alpha, z)
        return alpha**2 * core, KernelDiag(Strategy.SERIES, terms, est)
    if abs(z.real) > 1e-8 * abs(z):
        raise CapabilityError(
            "hyp2f2_equal supports |z| <= series_max or purely imaginary z, "
            f"got z={z!r}"
        )
    conjugate = z.imag < 0
    zi = z.conjugate() if conjugate else z
    if alpha > 0:
        core = _hyp2f2_core_rotated(alpha, zi)
    else:
        # Reduce to beta+1 in (0,1): beta^2 F(beta,z) stays finite while the
        # pieces use Gamma(beta,-z) and F(beta+1,z).
        upper, _ = upper_gamma_complex(alpha, -zi)
        lower_combo = (-zi) ** (-alpha) * (gamma_real(alpha) - upper)
        core = (lower_combo - zi * _hyp2f2_core_rotated(alpha + 1.0, zi)) / alpha
    if conjugate:
        core = core.conjugate()
    return alpha**2 * core, KernelDiag(Strategy.ROTATED_PATH, _HYP2F2_NODES.size, 1e-12)


def _check_gx(gx: float) -> None:
    # The end point g(x) of every kernel's integral from 0: a gx that is
    # not positive and finite is refused before any arithmetic.
    if not (gx > 0 and math.isfinite(gx)):
        raise ParameterError(f"gx must be positive and finite, got {gx!r}")


def kernel_k_alg(alpha: float, w: float, gx: float) -> complex:
    """Gamma part of the algebraic boundary bracket.

    Evaluates ``K = alpha [Gamma(alpha,-iw gx) - Gamma(alpha)] / (-iw)^alpha``,
    which equals ``-alpha int_0^gx t^{alpha-1} e^{iwt} dt`` for alpha > 0 and
    continues it analytically to alpha in (-1, 0).  A ``gx`` that is not
    positive and finite raises ParameterError, as in every kernel here.
    """
    _check_gx(gx)
    upper, _ = upper_gamma_complex(alpha, -1j * w * gx)
    return alpha * (upper - gamma_real(alpha)) / neg_iw_pow(alpha, w)


def _bracket_alg(alpha: float, w: float, gx: float) -> complex:
    # bracket(X) = X^alpha + K(X) = alpha int_0^X (1 - e^{iwt}) t^{alpha-1} dt.
    return gx**alpha + kernel_k_alg(alpha, w, gx)


def kernel_h_alg(c0: complex, alpha: float, w: float, gx: float) -> complex:
    """Boundary kernel h(x) of the algebraic-singularity quadrature.

    Evaluates ``c0 * e^{-iw gx} * (gx^alpha + alpha [Gamma(alpha,-iw gx) -
    Gamma(alpha)] / (-iw)^alpha)`` at ``gx = g(x) > 0``.  The bracket equals
    ``alpha * int_0^gx (1-e^{iwt}) t^{alpha-1} dt``, so h vanishes as
    ``gx -> 0+``.
    """
    _check_gx(gx)
    if c0 == 0:
        return 0.0 + 0.0j
    return c0 * np.exp(-1j * w * gx) * _bracket_alg(alpha, w, gx)


def kernel_k_log(alpha: float, w: float, gx: float) -> complex:
    """``int_0^gx t^alpha log(t/gx) e^{iwt} dt``, the log kind's part of the
    end value and of nu_1, as ``-gx^{1+alpha} 2F2(1+alpha, 1+alpha; 2+alpha,
    2+alpha; iw gx) / (1+alpha)^2``: no 1/alpha, unlike the equal pair
    ``(K + gx^alpha 2F2(alpha, alpha; 1+alpha, 1+alpha; iw gx)) / (iw alpha)``.
    Raises AccuracyError where gx^(1+alpha) overflows."""
    _check_gx(gx)
    f22, _ = hyp2f2_equal(1.0 + alpha, 1j * w * gx)
    return -(_power(gx, 1.0 + alpha) / (1.0 + alpha) ** 2 * f22)


# K and K_log as the quadratures read them (boundary.levin_value and
# filon.moments_nu), kept per (alpha, w, gx): every rule and node count at
# one (alpha, w, g(a)) evaluates each once.  A call that raises, such as
# kernel_k_log's AccuracyError where gx^(1+alpha) overflows, raises on every
# call and is never kept.
_end_k_alg = kept(kernel_k_alg)
_end_k_log = kept(kernel_k_log)


def kernel_h_log(c0: complex, c1: complex, alpha: float, w: float, gx: float) -> complex:
    """Boundary kernel h(x) of the logarithmic-singularity quadrature: the
    algebraic bracket times ``c0 log gx + c1``, plus ``c0 iw``
    :func:`kernel_k_log`, all times ``e^{-iw gx}``."""
    _check_gx(gx)
    if c0 == 0 and c1 == 0:
        return 0.0 + 0.0j
    out = (c0 * np.log(gx) + c1) * _bracket_alg(alpha, w, gx)
    if c0 != 0:
        out += c0 * (1j * w) * kernel_k_log(alpha, w, gx)
    return np.exp(-1j * w * gx) * out
