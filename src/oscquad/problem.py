"""Problem definitions for singular oscillatory integrals on [0, a].

An integral instance is ``int_0^a f(x) s(x) e^{i w g(x)} dx`` with weight
``s(x) = x^alpha`` (algebraic kind) or ``s(x) = x^alpha log x``
(algebraic-logarithmic kind), ``0 < |alpha| < 1``, and a strictly increasing
oscillator ``g`` with ``g(0) = 0``.  Oscillators violating the normalization
are shifted (and flipped for decreasing ``g``) automatically; the resulting
unit factor is stored in ``phase_shift``.

The collocation methods consume local Taylor expansions of ``f`` and ``g``,
so :class:`Amplitude` and :class:`Oscillator` carry derivative data in one
of three forms: an exact series builder, a derivative-stack callable, or
Taylor coefficients at the origin.  A finite-difference fallback exists for
amplitudes supplied only as values; it is opt-in and its accuracy caveat is
documented on :meth:`Amplitude.with_fd`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._series import poly_taylor, ps_div, ps_log, ps_mul, ps_pow
from .errors import CapabilityError, InvalidOscillatorError, ParameterError

__all__ = [
    "SingKind",
    "Amplitude",
    "Oscillator",
    "ProblemSpec",
    "build_problem",
    "make_f1_f2",
    "f2_problem",
    "f1_derivatives",
    "delta_alpha",
    "builtin_problem",
    "integrand",
    "BUILTIN_IDS",
]

_MONOTONICITY_SAMPLES = 256


class SingKind(Enum):
    ALGEBRAIC = "algebraic"
    ALGEBRAIC_LOG = "algebraic-log"


def _factorials(m: int) -> np.ndarray:
    out = np.ones(m)
    for j in range(2, m):
        out[j] = out[j - 1] * j
    return out


@dataclass(frozen=True)
class Amplitude:
    """Smooth amplitude factor f with optional derivative data.

    Parameters
    ----------
    value : callable
        Vectorized map x -> complex on [0, a].
    derivs : callable, optional
        Map (x, j) -> j-th derivative at scalar x.
    taylor0 : ndarray, optional
        Taylor coefficients of f at 0.
    series_fn : callable, optional
        Exact local-series builder (x0, m) -> m Taylor coefficients at x0.
        Takes precedence over the other derivative sources.
    """

    value: Callable
    derivs: Optional[Callable] = None
    taylor0: Optional[np.ndarray] = None
    series_fn: Optional[Callable] = None

    @classmethod
    def from_poly(cls, coeffs: Sequence[complex]) -> "Amplitude":
        """Amplitude from polynomial coefficients in ascending order."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.size == 0:
            raise ParameterError("empty coefficient list")

        def value(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        def series(x0, m):
            return poly_taylor(coeffs.real, x0, m) + 1j * poly_taylor(coeffs.imag, x0, m)

        return cls(value=value, taylor0=coeffs, series_fn=series)

    @classmethod
    def with_fd(cls, value: Callable) -> "Amplitude":
        """Amplitude whose derivatives come from central finite differences.

        The order-j derivative uses the central stencil with step
        ``h = eps**(1/(j+2))``, which balances truncation against round-off
        at an overall accuracy of roughly ``eps**(2/(j+2))``.  This degrades
        quickly with j; prefer exact derivative data for Hermite (s >= 1)
        collocation.  ``value`` must be evaluable slightly outside [0, a].
        """

        def derivs(x, j):
            if j == 0:
                return complex(value(x))
            h = np.finfo(float).eps ** (1.0 / (j + 2))
            ks = np.arange(j + 1)
            signs = (-1.0) ** ks
            binom = np.array([math.comb(j, int(k)) for k in ks], dtype=float)
            pts = x + (j / 2.0 - ks) * h
            return complex(np.dot(signs * binom, np.asarray(value(pts), dtype=complex)) / h**j)

        return cls(value=value, derivs=derivs)

    def series_at(self, x0: float, m: int) -> np.ndarray:
        """Taylor coefficients of f at x0, length m."""
        if m < 1:
            raise ParameterError("m must be at least 1")
        if self.series_fn is not None:
            return np.asarray(self.series_fn(x0, m), dtype=complex)
        if x0 == 0.0 and self.taylor0 is not None:
            t0 = np.asarray(self.taylor0, dtype=complex)
            if t0.size >= m:
                return t0[:m].copy()
            if self.derivs is None:
                raise CapabilityError(
                    f"amplitude Taylor data at 0 stops at order {t0.size - 1}, "
                    f"order {t0.size} required"
                )
        if self.derivs is not None:
            fact = _factorials(m)
            return np.array([complex(self.derivs(x0, j)) / fact[j] for j in range(m)])
        if m == 1:
            return np.array([complex(self.value(x0))])
        raise CapabilityError("amplitude has no derivative data; order 1 unavailable")


@dataclass(frozen=True)
class Oscillator:
    """Strictly increasing phase function g with derivative data.

    Same derivative-source conventions as :class:`Amplitude`, but
    real-valued.  ``poly`` holds ascending polynomial coefficients when the
    oscillator is polynomial, enabling exact normalization and the
    identity-oscillator fast paths.
    """

    value: Callable
    derivs: Optional[Callable] = None
    taylor0: Optional[np.ndarray] = None
    series_fn: Optional[Callable] = None
    poly: Optional[np.ndarray] = None

    @classmethod
    def from_poly(cls, coeffs: Sequence[float]) -> "Oscillator":
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if coeffs.size == 0:
            raise ParameterError("empty coefficient list")

        def value(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        def derivs(x, j):
            cj = coeffs
            for _ in range(j):
                cj = np.polynomial.polynomial.polyder(cj) if cj.size > 1 else np.zeros(1)
            return float(np.polynomial.polynomial.polyval(x, cj))

        def series(x0, m):
            return poly_taylor(coeffs, x0, m)

        return cls(value=value, derivs=derivs, taylor0=coeffs, series_fn=series, poly=coeffs)

    @property
    def is_identity(self) -> bool:
        """True when g(x) = x exactly (polynomial representation)."""
        if self.poly is None:
            return False
        trimmed = np.trim_zeros(self.poly, "b")
        return trimmed.size == 2 and trimmed[0] == 0.0 and trimmed[1] == 1.0

    def series_at(self, x0: float, m: int) -> np.ndarray:
        """Taylor coefficients of g at x0, length m (real)."""
        if m < 1:
            raise ParameterError("m must be at least 1")
        if self.series_fn is not None:
            return np.asarray(self.series_fn(x0, m), dtype=float)
        if x0 == 0.0 and self.taylor0 is not None:
            t0 = np.asarray(self.taylor0, dtype=float)
            if t0.size >= m:
                return t0[:m].copy()
        if self.derivs is not None:
            fact = _factorials(m)
            return np.array([float(self.derivs(x0, j)) / fact[j] for j in range(m)])
        raise CapabilityError("oscillator has no derivative data; order 1 unavailable")

    def deriv1(self, x):
        """Vectorized g'(x)."""
        if self.poly is not None:
            d = np.polynomial.polynomial.polyder(self.poly) if self.poly.size > 1 else np.zeros(1)
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), d)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([self.series_at(float(xi), 2)[1] for xi in xs])
        return out if np.ndim(x) else out[0]


@dataclass(frozen=True)
class ProblemSpec:
    """A validated, normalized integral instance."""

    amplitude: Amplitude
    oscillator: Oscillator
    a: float
    alpha: float
    kind: SingKind
    w: float
    phase_shift: complex = 1.0 + 0.0j

    def g_end(self) -> float:
        return float(self.oscillator.value(self.a))


def _normalize_oscillator(osc: Oscillator, a: float, w: float):
    """Shift g so g(0)=0 and flip decreasing oscillators; return the new
    oscillator, the possibly negated frequency, and the phase factor."""
    g0 = float(osc.value(0.0))
    xs = np.linspace(0.0, a, _MONOTONICITY_SAMPLES + 2)
    gp = np.asarray(osc.deriv1(xs), dtype=float)
    if np.all(gp > 0):
        sign = 1.0
    elif np.all(gp < 0):
        sign = -1.0
    else:
        raise InvalidOscillatorError("g' changes sign (or vanishes) on the sampled grid")
    phase = cmath.exp(1j * w * g0)
    if sign == 1.0 and g0 == 0.0:
        return osc, w, phase
    if osc.poly is not None:
        coeffs = sign * osc.poly.copy()
        coeffs[0] = 0.0
        return Oscillator.from_poly(coeffs), sign * w, phase

    old = osc

    def value(x):
        return sign * (np.asarray(old.value(x)) - g0)

    derivs = None
    if old.derivs is not None:

        def derivs(x, j):
            base = old.derivs(x, j)
            return sign * (base - g0) if j == 0 else sign * base

    taylor0 = None
    if old.taylor0 is not None:
        taylor0 = sign * np.asarray(old.taylor0, dtype=float)
        taylor0[0] = 0.0

    series_fn = None
    if old.series_fn is not None:

        def series_fn(x0, m):
            s = sign * np.asarray(old.series_fn(x0, m), dtype=float)
            s[0] -= sign * g0
            return s

    return Oscillator(value, derivs, taylor0, series_fn, None), sign * w, phase


def build_problem(
    amplitude: Amplitude,
    oscillator: Oscillator,
    a: float,
    alpha: float,
    kind: SingKind,
    w: float,
) -> ProblemSpec:
    """Validate inputs, normalize the oscillator, and build a ProblemSpec.

    Parameters
    ----------
    amplitude : Amplitude
    oscillator : Oscillator
        May have g(0) != 0 or g decreasing; both are normalized here.
    a : float
        Positive interval end.
    alpha : float
        Exponent with 0 < |alpha| < 1.
    kind : SingKind
    w : float
        Nonzero frequency (sign flips together with a decreasing g).

    Raises
    ------
    ParameterError
        Out-of-range alpha, a, or w.
    InvalidOscillatorError
        Non-monotone g on the validation grid or g'(0) <= 0.
    """
    if not 0.0 < abs(alpha) < 1.0:
        raise ParameterError(f"alpha must satisfy 0<|alpha|<1, got {alpha}")
    if not a > 0:
        raise ParameterError("a must be positive")
    if w == 0:
        raise ParameterError("w must be nonzero")
    if not isinstance(kind, SingKind):
        raise ParameterError(f"kind must be a SingKind, got {kind!r}")
    osc, w_used, phase = _normalize_oscillator(oscillator, a, w)
    gp0 = osc.series_at(0.0, 2)[1]
    if not gp0 > 0:
        raise InvalidOscillatorError(f"g'(0) must be positive, got {gp0}")
    if abs(abs(phase) - 1.0) > 1e-15:
        raise ParameterError("phase shift lost unit modulus")
    if not np.isfinite(complex(amplitude.value(a / 2.0))):
        raise ParameterError("amplitude not finite on (0,a)")
    return ProblemSpec(
        amplitude=amplitude,
        oscillator=osc,
        a=float(a),
        alpha=float(alpha),
        kind=kind,
        w=float(w_used),
        phase_shift=phase,
    )


def _ratio_series(osc: Oscillator, x0: float, m: int) -> np.ndarray:
    """Taylor coefficients of x/g(x) at x0, including the limit 1/g'(0)."""
    if x0 == 0.0:
        gser = osc.series_at(0.0, m + 1)
        one = np.zeros(m)
        one[0] = 1.0
        return ps_div(one, gser[1:])
    gser = osc.series_at(x0, m)
    xser = np.zeros(m)
    xser[0] = x0
    if m > 1:
        xser[1] = 1.0
    return ps_div(xser, gser)


def make_f1_f2(spec: ProblemSpec):
    """Regularized amplitudes of the separated singularities.

    Returns
    -------
    f1 : Amplitude
        ``f1(x) = f(x) (x/g(x))^alpha`` with ``f1(0) = f(0)/g'(0)^alpha``.
    f2 : Amplitude or None
        ``f2(x) = f(x) log(x/g(x))`` with ``f2(0) = f(0) log(1/g'(0))``;
        None for the algebraic kind.

    Notes
    -----
    For the identity oscillator, ``f1 = f`` and ``f2 = 0`` exactly.
    """
    alpha = spec.alpha
    f = spec.amplitude
    osc = spec.oscillator
    gp0 = float(osc.series_at(0.0, 2)[1])
    if not gp0 > 0:
        raise InvalidOscillatorError("g'(0) must be positive")

    if osc.is_identity:
        f1 = f
        f2 = None
        if spec.kind is SingKind.ALGEBRAIC_LOG:
            zero = np.zeros(1, dtype=complex)
            f2 = Amplitude(
                value=lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex),
                series_fn=lambda x0, m: np.zeros(m, dtype=complex),
                taylor0=zero,
            )
        return f1, f2

    def ratio_pow(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.shape, dtype=float)
        pos = xs > 0
        out[pos] = (xs[pos] / np.asarray(osc.value(xs[pos]), dtype=float)) ** alpha
        out[~pos] = gp0 ** (-alpha)
        return out if np.ndim(x) else out[0]

    def f1_value(x):
        return np.asarray(f.value(x)) * ratio_pow(x)

    def f1_series(x0, m):
        return ps_mul(f.series_at(x0, m), ps_pow(_ratio_series(osc, x0, m), alpha))

    f1 = Amplitude(value=f1_value, series_fn=f1_series)

    if spec.kind is not SingKind.ALGEBRAIC_LOG:
        return f1, None

    def log_ratio(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.shape, dtype=float)
        pos = xs > 0
        out[pos] = np.log(xs[pos] / np.asarray(osc.value(xs[pos]), dtype=float))
        out[~pos] = -math.log(gp0)
        return out if np.ndim(x) else out[0]

    def f2_value(x):
        return np.asarray(f.value(x)) * log_ratio(x)

    def f2_series(x0, m):
        return ps_mul(f.series_at(x0, m), ps_log(_ratio_series(osc, x0, m)))

    return f1, Amplitude(value=f2_value, series_fn=f2_series)


def f2_problem(spec: ProblemSpec) -> ProblemSpec:
    """Algebraic-kind sub-problem of a logarithmic-kind problem's f2 amplitude.

    Singularity separation leaves ``int_0^a f2(x) x^alpha e^{iwg(x)} dx``,
    with ``f2 = f log(x/g)`` from :func:`make_f1_f2`, to be added to the
    logarithmic bracket.  The sub-problem shares g, a, alpha and w with
    ``spec``, and so every collocation operator; only the amplitude differs.
    """
    if spec.kind is not SingKind.ALGEBRAIC_LOG:
        raise ParameterError("f2_problem requires a logarithmic-kind problem")
    f2 = make_f1_f2(spec)[1]
    return replace(spec, amplitude=f2, kind=SingKind.ALGEBRAIC, phase_shift=1.0 + 0.0j)


def f1_derivatives(spec: ProblemSpec, x: float, max_order: int) -> np.ndarray:
    """Derivatives f1^(j)(x), j = 0..max_order.

    Computed from the truncated power series of ``f (x/g)^alpha`` at x,
    which handles the removable singularity at x=0 exactly.
    """
    if max_order < 0:
        raise ParameterError("max_order must be nonnegative")
    f1, _ = make_f1_f2(spec)
    coeffs = f1.series_at(float(x), max_order + 1)
    return coeffs * _factorials(max_order + 1)


def delta_alpha(alpha: float, w: float) -> float:
    """Logarithmic error-model correction: 1+|ln w| for alpha<=0, else 1."""
    if not 0.0 < abs(alpha) < 1.0:
        raise ParameterError(f"alpha must satisfy 0<|alpha|<1, got {alpha}")
    if not w > 0:
        raise ParameterError("w must be positive")
    return 1.0 + abs(math.log(w)) if alpha <= 0 else 1.0


def _rational_inv_one_plus_x2() -> Amplitude:
    den = np.array([1.0, 0.0, 1.0])

    def value(x):
        x = np.asarray(x, dtype=float)
        return (1.0 / (1.0 + x * x)).astype(complex)

    def series(x0, m):
        one = np.zeros(m, dtype=complex)
        one[0] = 1.0
        return ps_div(one, poly_taylor(den, x0, m).astype(complex))

    return Amplitude(value=value, series_fn=series, taylor0=None)


def _ex51_amplitude(alpha: float, w_user: float) -> Amplitude:
    const = cmath.exp(1j * w_user)

    def value(x):
        x = np.asarray(x, dtype=float)
        return const * (1.0 - x) * (2.0 - x) ** alpha

    def series(x0, m):
        lin = poly_taylor(np.array([1.0, -1.0]), x0, m).astype(complex)
        pw = ps_pow(poly_taylor(np.array([2.0, -1.0]), x0, m), alpha).astype(complex)
        return const * ps_mul(lin, pw)

    return Amplitude(value=value, series_fn=series)


BUILTIN_IDS = ("ex51", "ex52", "ex53a", "ex53b", "ex54")


def builtin_problem(problem_id: str, alpha: float, w: float) -> ProblemSpec:
    """Construct a built-in benchmark problem.

    Parameters
    ----------
    problem_id : str
        One of ``ex51`` (algebraic, e^{-iwx} oscillator, so the internal
        frequency is -w), ``ex52`` (logarithmic, g=x), ``ex53a``/``ex53b``
        (algebraic/logarithmic with g = x^2+x+1, which normalizes to
        x^2+x with a unit phase factor), ``ex54`` (alias of ex51 used for
        the composite-baseline comparison).
    alpha : float
        Singularity exponent, 0 < |alpha| < 1.
    w : float
        Frequency as printed in the defining integral (positive in the
        benchmark sweeps).
    """
    if problem_id in ("ex51", "ex54"):
        return build_problem(
            _ex51_amplitude(alpha, w),
            Oscillator.from_poly([0.0, 1.0]),
            a=1.0,
            alpha=alpha,
            kind=SingKind.ALGEBRAIC,
            w=-w,
        )
    if problem_id == "ex52":
        return build_problem(
            _rational_inv_one_plus_x2(),
            Oscillator.from_poly([0.0, 1.0]),
            a=1.0,
            alpha=alpha,
            kind=SingKind.ALGEBRAIC_LOG,
            w=w,
        )
    if problem_id in ("ex53a", "ex53b"):
        kind = SingKind.ALGEBRAIC if problem_id == "ex53a" else SingKind.ALGEBRAIC_LOG
        return build_problem(
            _rational_inv_one_plus_x2(),
            Oscillator.from_poly([1.0, 1.0, 1.0]),
            a=1.0,
            alpha=alpha,
            kind=kind,
            w=w,
        )
    raise ParameterError(f"unknown problem id {problem_id!r}; known: {', '.join(BUILTIN_IDS)}")


def integrand(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Full singular integrand f(x) s(x) e^{iwg(x)} on x > 0 (vectorized).

    Uses the normalized oscillator; multiply the integral by
    ``spec.phase_shift`` to recover the raw-oscillator value.
    """
    x = np.asarray(x, dtype=float)
    weight = x**spec.alpha
    if spec.kind is SingKind.ALGEBRAIC_LOG:
        weight = weight * np.log(x)
    gx = np.asarray(spec.oscillator.value(x), dtype=float)
    return np.asarray(spec.amplitude.value(x)) * weight * np.exp(1j * spec.w * gx)
