"""Problem definitions for singular oscillatory integrals on [0, a].

An integral instance is ``int_0^a f(x) s(x) e^{i w g(x)} dx`` with weight
``s(x) = x^alpha`` (algebraic kind) or ``s(x) = x^alpha log x``
(algebraic-logarithmic kind), ``0 < |alpha| < 1``, and a strictly increasing
oscillator ``g`` with ``g(0) = 0``.  Oscillators violating the normalization
are shifted (and flipped for decreasing ``g``) automatically; the resulting
unit factor is stored in ``phase_shift``.

The collocation methods consume local Taylor expansions of ``f`` and ``g``
at all their nodes at once, so :class:`Amplitude` and :class:`Oscillator`
carry derivative data in one form: a series builder ``series_fn(xs, m)``
that returns one row of Taylor coefficients per point.  A finite-difference
builder exists for amplitudes supplied only as values; it is opt-in and its
accuracy caveat is documented on :meth:`Amplitude.with_fd`.

Tables that depend on a polynomial g alone, such as the series of x/g at a
set of nodes, are kept per g by :func:`oscquad._kept.kept` and reused for
every w and alpha; f's series at a set of nodes is kept in the same way per
amplitude that has a key (:class:`Amplitude`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._kept import freeze, kept
from ._result import check_counts
from ._series import poly_taylor, ps_div, ps_log, ps_mul, ps_pow
from .errors import CapabilityError, InvalidOscillatorError, ParameterError

__all__ = [
    "SingKind",
    "Amplitude",
    "Oscillator",
    "ProblemSpec",
    "build_problem",
    "make_f1_f2",
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


def _horner(coeffs: np.ndarray, x):
    # numpy.polynomial.polynomial.polyval(x, coeffs) for 1-D coeffs and an
    # array x, in its operation order, so the values are the same bits.  A
    # 0-d real x with real coeffs runs the same operations in Python floats,
    # which round as NumPy's float64 does, about 5 times faster.
    if x.ndim == 0 and x.dtype.kind == "f" and coeffs.dtype.kind == "f":
        return np.float64(_horner_py(coeffs.tolist(), float(x)))
    return _horner_py(coeffs, x)


def _horner_py(coeffs, x):
    # _horner's operations on any coefficient sequence and point: on a list
    # of Python floats and a Python float or complex x, the bits of NumPy's.
    # NumPy starts from c_d + x 0, which for a finite x is c_d; a constant
    # keeps that form, as it broadcasts c_0 to the shape of x.
    out = coeffs[0] + x * 0 if len(coeffs) == 1 else coeffs[-2] + coeffs[-1] * x
    for c in coeffs[-3::-1]:
        out = c + out * x
    return out


def _poly_deriv(p: np.ndarray) -> np.ndarray:
    # polyder's coefficients j c_j, without its argument handling.
    return np.arange(1.0, p.size) * p[1:] if p.size > 1 else p * 0


def _unit_poly(poly: np.ndarray, a: float) -> np.ndarray:
    # The coefficients c_0 and c_k a^(k-1) of g(a t)/a for those c_k of a
    # polynomial g on [0, a]: Horner's rule at t on them is g mapped onto
    # [0, 1], the oscillator of _unit_interval.
    return np.concatenate((poly[:1], poly[1:] * a ** np.arange(poly.size - 1.0)))


def _series_rows(series_fn, x0, m: int, dtype, what: str, value=None) -> np.ndarray:
    # The one derivative-data form: series_fn(xs, m) gives a (len(xs), m)
    # array for a 1-D float array xs.  A scalar x0 gets its row alone.
    if m < 1:
        raise ParameterError("m must be at least 1")
    xs = np.asarray(x0, dtype=float)
    scalar = xs.ndim == 0
    if scalar:
        xs = xs[None]
    elif xs.ndim != 1:
        raise ParameterError("series points must be a scalar or a 1-D array")
    if series_fn is not None:
        rows = np.asarray(series_fn(xs, m), dtype=dtype)
    elif m == 1 and value is not None:
        rows = np.asarray(value(xs), dtype=dtype)[..., None]
    else:
        raise CapabilityError(f"{what} has no series data; order 1 unavailable")
    if rows.shape != (xs.size, m):
        raise ParameterError(
            f"{what} series_fn returned shape {rows.shape}, expected {(xs.size, m)}"
        )
    return rows[0] if scalar else rows


@dataclass(frozen=True)
class Amplitude:
    """Smooth amplitude factor f with its local Taylor series.

    Parameters
    ----------
    value : callable
        Vectorized map x -> complex on [0, a].
    series_fn : callable, optional
        Local-series builder ``(xs, m) -> (len(xs), m)`` array whose row i
        holds the Taylor coefficients of f at ``xs[i]`` (a 1-D float array)
        up to order m - 1.  Without it only order 0, the value, is known.
    complex_value : callable, optional
        Vectorized map z -> complex of f's analytic continuation off the
        real axis, for methods that integrate along complex paths
        (:func:`oscquad.baselines.reference_nsd`).  Without it f is known on
        [0, a] only.
    singular_points : tuple of complex
        Where the continuation is not analytic (poles and branch points,
        with principal-branch cuts running away from [0, a]); empty for an
        entire f.  Read only together with ``complex_value``.

    Notes
    -----
    f's Taylor rows at a route's nodes are kept per amplitude, nodes and
    length (:func:`oscquad._kept.kept`) where the amplitude has a key: the
    bytes of its coefficients for :meth:`from_poly` (which keeps its own
    copy of them), so two amplitudes one ulp apart in one coefficient have
    separate entries, and a fixed key or the (alpha, w) of the built-in
    amplitudes of :func:`builtin_problem`.  Any other amplitude, a plain
    one, one of :meth:`with_fd`, or one derived from another, has no key,
    and its series are formed on every call.
    """

    value: Callable
    series_fn: Optional[Callable] = None
    complex_value: Optional[Callable] = None
    singular_points: tuple = ()
    # What identifies f to the memo of kept tables, as Oscillator._key does
    # g: None, so nothing of f is kept, unless set by _keyed.
    _key = None

    def _keyed(self, key) -> "Amplitude":
        # This amplitude, with ``key``: for a constructor whose data fix f.
        object.__setattr__(self, "_key", key)
        return self

    @classmethod
    def from_poly(cls, coeffs: Sequence[complex]) -> "Amplitude":
        """Amplitude from polynomial coefficients in ascending order."""
        coeffs = np.array(coeffs, dtype=complex, ndmin=1)
        if coeffs.size == 0:
            raise ParameterError("empty coefficient list")

        def value(x):
            return _horner(coeffs, np.asarray(x, dtype=float))

        def series(xs, m):
            return poly_taylor(coeffs.real, xs, m) + 1j * poly_taylor(coeffs.imag, xs, m)

        def complex_value(z):
            return _horner(coeffs, np.asarray(z, dtype=complex))

        return cls(value=value, series_fn=series, complex_value=complex_value)._keyed(coeffs.tobytes())

    @classmethod
    def with_fd(cls, value: Callable) -> "Amplitude":
        """Amplitude whose derivatives come from central finite differences.

        The order-j derivative uses the central stencil with step
        ``h = eps**(1/(j+2))``, which balances truncation against round-off
        at an overall accuracy of roughly ``eps**(2/(j+2))``.  This degrades
        quickly with j; prefer exact derivative data for Hermite (s >= 1)
        collocation.  ``value`` must be evaluable slightly outside [0, a].
        """

        def series(xs, m):
            out = np.empty((xs.size, m), dtype=complex)
            out[:, 0] = value(xs)
            for j in range(1, m):
                h = np.finfo(float).eps ** (1.0 / (j + 2))
                ks = np.arange(j + 1)
                stencil = (-1.0) ** ks * np.array([math.comb(j, int(k)) for k in ks], dtype=float)
                pts = xs[:, None] + (j / 2.0 - ks) * h
                vals = np.asarray(value(pts.ravel()), dtype=complex).reshape(pts.shape)
                out[:, j] = vals @ stencil / h**j / math.factorial(j)
            return out

        return cls(value=value, series_fn=series)

    def series_at(self, x0, m: int) -> np.ndarray:
        """Taylor coefficients of f at x0, length m; one row per point when
        x0 is a 1-D array of points."""
        return _series_rows(self.series_fn, x0, m, complex, "amplitude", self.value)


@dataclass(frozen=True)
class Oscillator:
    """Strictly increasing phase function g with its local Taylor series.

    Same ``series_fn`` contract as :class:`Amplitude`, but real-valued.
    ``poly`` holds ascending polynomial coefficients when the oscillator is
    polynomial, enabling exact normalization and the identity-oscillator
    fast paths; ``value`` and ``series_fn`` must then compute the g that
    ``poly`` describes.  The oscillator holds a read-only float copy of
    ``poly``, taken at construction, so the caller's array may change
    afterwards: :meth:`deriv1` uses derivative coefficients formed once
    from that copy, and the tables that depend on g alone are kept per
    its coefficient vector (:func:`oscquad._kept.kept`).
    """

    value: Callable
    series_fn: Optional[Callable] = None
    poly: Optional[np.ndarray] = None

    def __post_init__(self):
        key = beta = None
        if self.poly is not None:
            p = freeze(np.array(self.poly, dtype=float, ndmin=1, copy=None))
            if p.size == 0:
                raise ParameterError("empty coefficient list")
            object.__setattr__(self, "poly", p)
            object.__setattr__(self, "_dpoly", _poly_deriv(p))
            key = p.tobytes()
            beta = float(p[1]) if p.size >= 2 and p[0] == 0.0 and p[1] > 0.0 and not p[2:].any() else None
        # What identifies g to the memo of kept tables: its coefficient
        # bytes, or None where g is not a polynomial.
        object.__setattr__(self, "_key", key)
        # beta where g = beta x with beta > 0, else None: the one test of a
        # linear g, which FILON, the composite baseline and is_identity read.
        object.__setattr__(self, "_beta", beta)

    @classmethod
    def from_poly(cls, coeffs: Sequence[float]) -> "Oscillator":
        # g from the oscillator's own copy of the coefficients, held apart
        # from the oscillator so that it and its functions form no cycle.
        own = []

        def value(x):
            return _horner(own[0], np.asarray(x, dtype=float))

        def series(xs, m):
            return poly_taylor(own[0], xs, m)

        osc = cls(value=value, series_fn=series, poly=coeffs)
        own.append(osc.poly)
        return osc

    @property
    def is_identity(self) -> bool:
        """True when g(x) = x exactly (polynomial representation)."""
        return self._beta == 1.0

    def series_at(self, x0, m: int) -> np.ndarray:
        """Taylor coefficients of g at x0, length m (real); one row per
        point when x0 is a 1-D array of points."""
        return _series_rows(self.series_fn, x0, m, float, "oscillator")

    def deriv1(self, x):
        """Vectorized g'(x)."""
        if self.poly is not None:
            return _horner(self._dpoly, np.asarray(x, dtype=float))
        xs = np.asarray(x, dtype=float)
        return self.series_at(xs.ravel(), 2)[:, 1].reshape(xs.shape)[()]


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


@kept
def _normalization(osc: Oscillator, a: float) -> tuple:
    """The part of the normalization that depends on g and a alone: g(0),
    the sign of g' on [0, a] and the shifted (and, for a decreasing g,
    flipped) oscillator, None where g needs neither.  Kept per polynomial g
    and a; a g whose g' is not of one sign on [0, a] (:func:`_slope_points`),
    or whose normalized g'(0) is not positive, raises, so is never kept."""
    g0 = float(osc.value(0.0))
    xs, slack = _slope_points(osc, a)
    gp = np.asarray(osc.deriv1(xs), dtype=float)
    # An infinite g' has its sign, whatever its rounding bound.
    decided = (np.abs(gp) > slack) | np.isinf(gp)
    if np.all(decided & (gp > 0)):
        sign = 1.0
    elif np.all(decided & (gp < 0)):
        sign = -1.0
    else:
        raise InvalidOscillatorError(f"g' changes sign (or vanishes) on [0, {a!r}]")
    if sign == 1.0 and g0 == 0.0:
        shifted = None
    elif osc.poly is not None:
        coeffs = sign * osc.poly.copy()
        coeffs[0] = 0.0
        shifted = Oscillator.from_poly(coeffs)
    else:
        old = osc

        def value(x):
            return sign * (np.asarray(old.value(x)) - g0)

        def series_fn(xs, m):
            s = sign * old.series_at(xs, m)
            s[:, 0] -= sign * g0
            return s

        shifted = Oscillator(value, series_fn)
    gp0 = (osc if shifted is None else shifted).deriv1(0.0)
    if not gp0 > 0:
        raise InvalidOscillatorError(f"g'(0) must be positive, got {gp0}")
    return g0, sign, shifted


def _slope_points(osc: Oscillator, a: float) -> tuple:
    # The points at which g' decides its sign on [0, a], and the rounding
    # bound of the computed g' at each.  For a polynomial g: the ends and
    # the real parts in (0, a) of the roots of g'', among which g' takes its
    # least and its largest value on [0, a]; the bound is Horner's, d eps
    # times the sum of |k c_k x^(k-1)| for g' of degree d (Higham, Accuracy
    # and Stability of Numerical Algorithms, ch. 5), so a computed g'
    # within it of zero may be that of a g' that vanishes there.  Any other
    # g, and a g'' whose roots NumPy cannot form (a coefficient that is not
    # finite, or ratios of them that overflow): _MONOTONICITY_SAMPLES + 2
    # evenly spaced samples, with bound 0.
    samples = np.linspace(0.0, a, _MONOTONICITY_SAMPLES + 2), 0.0
    if osc.poly is None:
        return samples
    d1 = osc._dpoly
    try:
        with np.errstate(all="ignore"):
            roots = np.roots((np.arange(1.0, d1.size) * d1[1:])[::-1])
    except np.linalg.LinAlgError:
        return samples
    inner = roots.real[(roots.real > 0.0) & (roots.real < a)]
    xs = np.concatenate(([0.0, float(a)], inner))
    return xs, (d1.size - 1) * np.finfo(float).eps * _horner(np.abs(d1), xs)


def _normalize_oscillator(osc: Oscillator, a: float, w: float):
    """Shift g so g(0)=0 and flip decreasing oscillators; return the new
    oscillator, the possibly negated frequency, and the phase factor."""
    g0, sign, shifted = _normalization(osc, a)
    phase = cmath.exp(1j * w * g0)
    if shifted is None:
        return osc, w, phase
    return shifted, sign * w, phase


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
        May have g(0) != 0 or g decreasing; both are normalized here.  g'
        must have one sign on [0, a].  For a polynomial g that is decided
        at 0, at a and at the real part of each root of g'' in (0, a),
        where g' takes its least and largest values: at each, the computed
        g' must exceed in modulus d eps sum_k |k c_k x^(k-1)| (g' of degree
        d), its Horner rounding bound, so a g' that vanishes anywhere on
        [0, a] is refused.  Any other g is checked on 258 evenly spaced
        samples of [0, a], where g' must be nonzero and of one sign.
    a : float
        Positive, finite interval end.
    alpha : float
        Exponent with 0 < |alpha| < 1.
    kind : SingKind
    w : float
        Nonzero, finite frequency (sign flips together with a decreasing g).

    Raises
    ------
    ParameterError
        Out-of-range alpha, a, or w.
    InvalidOscillatorError
        A g' that is not of one sign on [0, a] by the rule above, or a
        normalized g'(0) <= 0.
    """
    if not 0.0 < abs(alpha) < 1.0:
        raise ParameterError(f"alpha must satisfy 0<|alpha|<1, got {alpha}")
    if not (a > 0 and math.isfinite(a)):
        raise ParameterError(f"a must be positive and finite, got {a!r}")
    if not (w != 0 and math.isfinite(w)):
        raise ParameterError(f"w must be nonzero and finite, got {w!r}")
    if not isinstance(kind, SingKind):
        raise ParameterError(f"kind must be a SingKind, got {kind!r}")
    osc, w_used, phase = _normalize_oscillator(oscillator, a, w)
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


@kept
def _amplitude_series(f: Amplitude, xs: np.ndarray, m: int) -> np.ndarray:
    """f's Taylor rows of length m at the points xs, kept per amplitude
    key (:class:`Amplitude`), points and m."""
    return f.series_at(xs, m)


@kept
def _ratio_series(osc: Oscillator, xs: np.ndarray, m: int, c: float) -> tuple:
    """Taylor coefficients of x/g(x), and for c > 0 also of log(c x/g(x))
    (the log of the quotient (c x)/g(x)), one row per point of xs; the row
    of x = 0 is that of the limit 1/(g(x)/x), with head 1/g'(0)."""
    gser = osc.series_at(xs, m + 1)
    origin = xs == 0.0
    num = np.zeros((xs.size, m))
    num[:, 0] = np.where(origin, 1.0, xs)
    if m > 1:
        num[~origin, 1] = 1.0
    den = np.where(origin[:, None], gser[:, 1:], gser[:, :m])
    ratio = ps_div(num, den)
    return (ratio, ps_log(ps_div(c * num, den))) if c else (ratio,)


def _separated(spec: ProblemSpec, f2_power: bool, c: float) -> Callable:
    """The function ``at(xs, m)``: the list of the data of f1 and, for the
    logarithmic kind, of f log(c x/g), times (x/g)^alpha too with
    ``f2_power``, at the points xs: values for m = 0, series of length m
    otherwise.

    Each factor takes its limit at x = 0 (g'(0)^-alpha, log(c/g'(0))).  One
    call forms f, x/g, log(c x/g) and (x/g)^alpha once on its points (the
    series of x/g and of log(c x/g) kept per polynomial g, nodes, length and
    c by _ratio_series, and f's per keyed amplitude, nodes and length by
    _amplitude_series) and both amplitudes from them.  For g = beta x the
    factors are beta^-alpha and log(c/beta) exactly, and no series of g is
    read: for the identity oscillator f1 is f itself and the second
    amplitude is f log c.  :func:`_node_values` forms the same values on a
    grid whose first point is the origin, without masks.
    """
    f, osc, alpha = spec.amplitude, spec.oscillator, spec.alpha
    log_kind = spec.kind is SingKind.ALGEBRAIC_LOG
    if osc._beta is not None:
        power = osc._beta**-alpha
        log_c = math.log(c / osc._beta) * (power if f2_power else 1.0)

        def exact(x, m):
            out = np.asarray(_amplitude_series(f, x, m) if m else f.value(x))
            f1 = out if power == 1.0 else power * out
            return [f1, log_c * np.asarray(out, dtype=complex)] if log_kind else [f1]

        return exact
    gp0 = float(osc.deriv1(0.0))
    if not gp0 > 0:
        raise InvalidOscillatorError("g'(0) must be positive")

    def factor(xs, pos, away, origin):
        # ``away`` at the points xs > 0 and the limit ``origin`` at x = 0.
        out = np.full(xs.shape, origin)
        out[pos] = away
        return out

    def at(x, m):
        if m:
            mul = ps_mul
            out = _amplitude_series(f, x, m)
            ratio = _ratio_series(osc, x, m, c if log_kind else 0.0)
            log = ratio[1] if log_kind else None
            power = ps_pow(ratio[0], alpha)
        else:
            mul = np.multiply
            xs = np.asarray(x, dtype=float)
            pos = xs > 0
            away = xs[pos]
            gx = np.asarray(osc.value(away), dtype=float) if away.size else away
            out = np.asarray(f.value(x))
            log = factor(xs, pos, np.log(c * away / gx), math.log(c) - math.log(gp0)) if log_kind else None
            power = factor(xs, pos, (away / gx) ** alpha, gp0 ** (-alpha))
        data = [mul(out, power)]
        if log_kind:
            out = mul(out, log)
            data.append(mul(out, power) if f2_power else out)
        return data

    return at


def _node_values(spec: ProblemSpec, c: float, nodes: np.ndarray, gx: np.ndarray, ratio: np.ndarray,
                 gp0: float) -> list:
    """``_regularised(_unit_interval(spec), c)(nodes, 0)`` on a grid of
    [0, 1] whose node 0 is the origin and whose other nodes are positive,
    with g(a t)/a there ``gx``, t over it ``ratio`` and its slope at 0
    ``gp0``: f is read at a t, and each factor is placed in its slots,
    index 0 the origin limit, the rest from the ratio, with no mask.  For
    g = beta x the factors are constants, formed as _separated forms them."""
    if spec.oscillator._beta is not None:
        return _separated(spec, True, c)(spec.a * nodes, 0)
    out = np.asarray(spec.amplitude.value(spec.a * nodes))
    power = np.empty(nodes.size)
    power[0] = gp0 ** (-spec.alpha)
    power[1:] = ratio**spec.alpha
    data = [out * power]
    if spec.kind is SingKind.ALGEBRAIC_LOG:
        log = np.empty(nodes.size)
        log[0] = math.log(c) - math.log(gp0)
        log[1:] = np.log(c * nodes[1:] / gx)
        data.append(out * log * power)
    return data


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
    at = _separated(spec, False, 1.0)

    def amplitude(i: int) -> Amplitude:
        return Amplitude(value=lambda x: at(x, 0)[i], series_fn=lambda xs, m: at(xs, m)[i])

    f1 = spec.amplitude if spec.oscillator.is_identity else amplitude(0)
    return f1, amplitude(1) if spec.kind is SingKind.ALGEBRAIC_LOG else None


def _regularised(spec: ProblemSpec, c: float = 1.0) -> Callable:
    """The amplitudes the Levin and Filon rules need, f1 and f21, as the
    ``at`` function of :func:`_separated`, which forms the data of both on
    a route's nodes at once.

    f1 is that of :func:`make_f1_f2`, and ``f21 = f log(c x/g) (x/g)^alpha``
    (absent for the algebraic kind).  With c = 1, f21 is, bit for bit, the
    f1 of the f2 sub-problem ``int_0^a f2(x) x^alpha e^{iwg(x)} dx`` (f2 of
    :func:`make_f1_f2`; the g, a, alpha and w of ``spec``).  The Levin rule
    takes c = g(a) of the problem on [0, a], adding log g(a) f1, so that its
    second solve holds the whole log part: for a = 1 and a polynomial g,
    f21(1) = 0 exactly.
    """
    return _separated(spec, True, c)


def _unit_interval(spec: ProblemSpec) -> ProblemSpec:
    """``spec`` on [0, 1] by x = a t: amplitude f(a t), oscillator g(a t)/a,
    frequency w a.  f1, f2, g'(0) and w g keep their values, so a Levin
    solve gives the q1 of ``spec`` and its c0 (and d0) divided by a.  The
    frequency route maps a problem so, once ``levin._quad_levin`` has
    refused a w a that overflows; the physical route reads the mapped g
    from a table kept per (g, a, n) (:func:`_unit_values`) and places
    f(a t) and w a itself."""
    a, f = spec.a, spec.amplitude
    if a == 1.0:
        return spec
    # Taylor coefficient k in t is a^k times that in x.
    amplitude = Amplitude(lambda t: f.value(a * t), lambda ts, m: f.series_at(a * ts, m) * a ** np.arange(m))
    return replace(spec, amplitude=amplitude, oscillator=_unit_oscillator(spec.oscillator, a), a=1.0, w=spec.w * a)


def _unit_oscillator(g: Oscillator, a: float) -> Oscillator:
    # g(a t)/a, the oscillator of _unit_interval: a polynomial g has the
    # coefficients of _unit_poly; any other g is evaluated at a t and
    # divided by a.
    if g.poly is not None:
        return Oscillator.from_poly(_unit_poly(g.poly, a))
    return Oscillator(lambda t: g.value(a * t) / a, lambda ts, m: g.series_at(a * ts, m) * a ** np.arange(m) / a)


def _unit_values(g: Oscillator, a: float, xs: np.ndarray, nodes: np.ndarray) -> tuple:
    # g(a t)/a at the points xs, and its slope at ``nodes`` and at 0: the
    # bits the methods of g (a = 1) or of _unit_oscillator(g, a) give, for
    # a polynomial g and a != 1 by Horner's rule on _unit_poly and its
    # derivative, without building that oscillator.
    if g.poly is None or a == 1.0:
        unit = g if a == 1.0 else _unit_oscillator(g, a)
        return unit.value(xs), unit.deriv1(nodes), unit.deriv1(0.0)
    coeffs = _unit_poly(g.poly, a)
    slope = _poly_deriv(coeffs)
    return _horner(coeffs, xs), _horner(slope, nodes), _horner(slope, np.asarray(0.0))


def f1_derivatives(spec: ProblemSpec, x: float, max_order: int) -> np.ndarray:
    """Derivatives f1^(j)(x), j = 0..max_order.

    Computed from the truncated power series of ``f (x/g)^alpha`` at x,
    which handles the removable singularity at x=0 exactly.
    """
    check_counts(max_order=max_order)
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

    def series(xs, m):
        one = np.zeros((xs.size, m), dtype=complex)
        one[:, 0] = 1.0
        return ps_div(one, poly_taylor(den, xs, m).astype(complex))

    def complex_value(z):
        z = np.asarray(z, dtype=complex)
        return 1.0 / (1.0 + z * z)

    return Amplitude(value=value, series_fn=series, complex_value=complex_value,
                     singular_points=(1j, -1j))._keyed("1/(1+x^2)")


def _ex51_amplitude(alpha: float, w_user: float) -> Amplitude:
    # In floats, so that equal keys give equal bits.
    alpha, w_user = float(alpha), float(w_user)
    const = cmath.exp(1j * w_user)

    def value(x):
        x = np.asarray(x, dtype=float)
        return const * (1.0 - x) * (2.0 - x) ** alpha

    def series(xs, m):
        lin = poly_taylor(np.array([1.0, -1.0]), xs, m).astype(complex)
        pw = ps_pow(poly_taylor(np.array([2.0, -1.0]), xs, m), alpha).astype(complex)
        return const * ps_mul(lin, pw)

    def complex_value(z):
        # The principal power's cut, 2 - z <= 0, is the ray z >= 2.
        z = np.asarray(z, dtype=complex)
        return const * (1.0 - z) * (2.0 - z) ** alpha

    return Amplitude(value=value, series_fn=series, complex_value=complex_value,
                     singular_points=(2.0 + 0j,))._keyed(("ex51", alpha, w_user))


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
    gx = np.asarray(spec.oscillator.value(x), dtype=float)
    return _weighted(spec, x) * np.exp(1j * spec.w * gx)


def _weighted(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    # f(x) x^alpha [log x] on x > 0, the non-oscillatory part of integrand.
    x = np.asarray(x, dtype=float)
    weight = x**spec.alpha
    if spec.kind is SingKind.ALGEBRAIC_LOG:
        weight = weight * np.log(x)
    return np.asarray(spec.amplitude.value(x)) * weight
