"""Comparison methods and the brute-force reference oracle.

The composite moment-free Filon-type quadrature (CMFP) is implemented for
linear oscillators on [0, 1] with |w| g'(0) >= 1 and a singular endpoint of
order r = 0, the exact configuration used by the benchmark comparison.  It
combines a graded Gauss-Legendre part near the singularity with a composite
moment-free Filon part on a geometric mesh reaching the outer endpoint.

The reference oracle integrates the full singular integrand by brute
force on a geometric mesh (ratio 1/2) with oscillation-capped
Gauss-Legendre panels; for a polynomial g of degree <= 2 it does so in the
phase variable u = g(x), where the oscillation is e^{iwu} and one complex
exponential per sub-panel carries it.  It refuses frequencies whose total
phase range exceeds a cap, beyond which its cost defeats its purpose.

The numerical steepest-descent reference (:func:`reference_nsd`) moves the
integral onto one complex path from each endpoint, on which the oscillation
turns into exponential decay; its cost does not grow with the frequency.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dsterf, dtbtrs
from scipy.special import digamma, eval_genlaguerre, gamma, roots_legendre

from ._kept import kept
from ._result import Method, QuadratureResult, check_counts
from .errors import AccuracyError, CapabilityError, ParameterError
from .problem import ProblemSpec, SingKind, _horner_py, _weighted, integrand

__all__ = [
    "default_cmfp_params",
    "gauss_legendre",
    "exponential_moments",
    "cmf_composite",
    "cmfp",
    "graded_integral",
    "reference_oracle",
    "reference_nsd",
    "ORACLE_PHASE_CAP",
]

ORACLE_PHASE_CAP = 2.0e4
# The largest |w| the package documents; cmfp refuses a mesh finer than
# this frequency needs at the given n.
_CMFP_MAX_W = 1e14

# Nodes per path of reference_nsd.  The log kind's product weights lose
# digits as the order grows (2e-15 at 30, 3.5e-15 at 40 for alpha = -0.5);
# at 22 the values stay within 2e-15 of 40-digit ones.
_NSD_ORDER = 22
# reference_nsd refuses when a singularity's estimated effect (_rule_error)
# on a Gauss rule or on the log kind's product rule exceeds these.  Against
# 40-digit values of the four built-ins (alpha = +-0.5, +-0.9, |w| g(a) from
# 10 to 1e4) the Gauss estimate runs up to 40 times below the error and the
# product estimate about 20 times above it; both bounds keep every accepted
# value within 2e-15 relative.
_NSD_GAUSS_TOL = 1e-17
_NSD_PRODUCT_TOL = 1e-14
# Slope Re/Im of g along the tilted ray from 0 (see reference_nsd).  The
# tilt leaves a factor e^{i tilt r} in the integrand, which the product rule
# (exact to degree _NSD_ORDER - 1 only) resolves to round-off for tilt <= 0.1.
_NSD_TILT = 0.1

# Sub-panels per evaluation block of graded_integral (24 nodes each at the
# default order): 3072 nodes, 49 KB per complex temporary, which stay in
# cache.  Over 200 random built-in oracle calls, 128 to 512 were level and
# the fastest of the powers of two from 64 to 2048; 2048 took 15-40% longer
# above |w| g(a) = 300.  Every power of two tried gave the same bits.
_BLOCK_SUBPANELS = 128


@kept
def _legendre_rule(m: int):
    # Gauss-Legendre nodes and weights of order m on [-1, 1], kept per order.
    return roots_legendre(m)


def _check_limits(a: float, b: float) -> None:
    # Finite limits with a < b, naming the one that is not finite.
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if not a < b:
        raise ParameterError("need a < b")


def gauss_legendre(f, a: float, b: float, m: int) -> complex:
    """m-point Gauss-Legendre value of ``int_a^b f``.

    Exact for polynomials of degree <= 2m - 1.  A non-finite ``a`` or ``b``,
    or ``a >= b``, raises ParameterError.
    """
    check_counts(m=m)
    if m < 1:
        raise ParameterError("m must be at least 1")
    _check_limits(a, b)
    xg, wg = _legendre_rule(m)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * xg), dtype=complex)
    return complex(half * np.dot(wg, vals))


@kept
def _moment_rule(count: int):
    # The nodes xi_j and the matrix w_j xi_j^k, k < count, of the Gauss-
    # Legendre rule that exponential_moments uses below its switch, kept per
    # count.  Worst error against 40-digit values over count 1-30 below the
    # switch, relative to max(|m_k|, 1): 5.8e-10 with count + 4 nodes,
    # 4.6e-14 with count + 6, 7.6e-15 with count + 8.  NumPy's leggauss, as
    # scipy's roots_legendre (_legendre_rule) reads 1.4e-14 at count + 8.
    xi, wq = leggauss(count + 8)
    return xi, wq[:, None] * xi[:, None] ** np.arange(count)


def exponential_moments(theta, count: int) -> np.ndarray:
    """Moments ``m_k = int_{-1}^{1} xi^k e^{i theta xi} d xi``, k < count.

    Vectorized over ``theta``.  The forward recurrence amplifies round-off
    by roughly k/|theta| per step, so it is used only where |theta|
    dominates the highest index, |theta| >= max(0.5, 0.6 count); below
    that the integral is taken by one Gauss-Legendre rule of count + 8
    nodes for every theta and k at once.  A ``count`` that is not an
    integer of at least 1, and a non-finite ``theta``, raise ParameterError.
    """
    check_counts(count=count)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if count < 1:
        raise ParameterError("count must be at least 1")
    if not np.isfinite(theta).all():
        raise ParameterError("theta must be finite")
    out = np.empty((theta.size, count), dtype=complex)
    big = np.abs(theta) >= max(0.5, 0.6 * count)
    if big.any():
        t = theta[big]
        it = 1j * t
        ep = np.exp(it)
        em = np.exp(-it)
        mk = (ep - em) / it
        out[big, 0] = mk
        for k in range(1, count):
            sign = -1.0 if k % 2 else 1.0
            mk = (ep - sign * em) / it - (k / it) * mk
            out[big, k] = mk
    small = ~big
    if small.any():
        xi, weighted_powers = _moment_rule(count)
        # In place: this phase matrix is the largest array of a long mesh.
        phase = 1j * theta[small, None] * xi
        out[small] = np.exp(phase, out=phase) @ weighted_powers
    return out


@kept
def _cheb_interp_setup(m: int):
    # Chebyshev-Gauss reference points and the inverse Vandermonde mapping
    # point values to monomial coefficients on [-1, 1], kept per m.
    i = np.arange(1, m + 1)
    xi = np.sort(np.cos((2 * i - 1) * np.pi / (2 * m)))
    vinv = np.linalg.inv(np.vander(xi, m, increasing=True))
    return xi, vinv.T.copy()


def _cmf_panels(amp, w_eff: float, edges: np.ndarray, m: int) -> np.ndarray:
    # Moment-free Filon values on consecutive panels: interpolate the
    # non-oscillatory amplitude (one call on every panel's m + 1 mapped
    # Chebyshev points) and integrate the degree-m interpolant against
    # e^{i w_eff x} exactly via the exponential moments of all panels.
    xi, vinv_t = _cheb_interp_setup(m + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * xi[None, :]
    vals = np.asarray(amp(pts.ravel()), dtype=complex).reshape(pts.shape)
    coeffs = vals @ vinv_t
    mom = exponential_moments(w_eff * half, m + 1)
    return half * np.exp(1j * w_eff * mid) * np.sum(coeffs * mom, axis=1)


def cmf_composite(target, n: int, m: int, a: float, b: float, w: float) -> complex:
    """Composite moment-free Filon rule for ``int_a^b target(x) e^{i w x} dx``
    with n equal panels; ``target`` is a non-oscillatory callable on numpy
    arrays, interpolated on each panel by a polynomial of degree m."""
    check_counts(n=n, m=m)
    if n < 1 or m < 1:
        raise ParameterError("n and m must be at least 1")
    _check_limits(a, b)
    if not math.isfinite(w):
        raise ParameterError(f"w must be finite, got {w!r}")
    return complex(np.sum(_cmf_panels(target, float(w), np.linspace(a, b, n + 1), m)))


def cmfp_applies(spec: ProblemSpec) -> bool:
    """Whether :func:`cmfp` takes ``spec``: g = beta x with beta > 0 on
    [0, 1] and |w| beta >= 1, so that its geometric mesh [1/(|w| beta), 1]
    lies in the interval."""
    return spec.a == 1.0 and spec.oscillator._beta is not None and abs(spec.w) * spec.oscillator._beta >= 1.0


def default_cmfp_params(spec: ProblemSpec, n1: int) -> tuple:
    """The benchmark configuration of :func:`cmfp` at ``n1`` geometric
    panels, ``(n, s, m1, m2, p)``: n = s = n1 geometric and graded panels,
    m1 = m2 = 4 points per panel and the grading exponent
    p = (2 m1 + 1)/(1 + alpha)."""
    check_counts(n1=n1)
    if n1 < 1:
        raise ParameterError("n1 must be at least 1")
    m1 = 4
    return n1, n1, m1, 4, (2.0 * m1 + 1.0) / (1.0 + spec.alpha)


def _sub_panels(w_r: float, n: int, m2: int) -> float:
    # N_j = ceil(q^{m2/(m2-1)}), q = w_r^{1/n}, the same for every panel;
    # inf where it does not fit a float.
    try:
        return math.ceil((w_r ** (1.0 / n)) ** (m2 / (m2 - 1.0)))
    except OverflowError:
        return math.inf


def cmfp(spec: ProblemSpec, n1: int) -> QuadratureResult:
    """Composite moment-free Filon-type quadrature for linear oscillators,
    at the configuration :func:`default_cmfp_params` gives for ``n1``: n
    geometric panels of m2 points per sub-panel, s graded panels of m1
    points and the grading exponent p.

    The value is the graded Gauss-Legendre part

        lambda_r sum_{j=1}^{s-1} GL_{m1}[F(lambda_r .); x_j, x_{j+1}],
        x_j = (j/s)^p

    (the innermost panel is truncated, its contribution vanishing with the
    grading) plus the composite moment-free Filon part on the geometric
    mesh y_j = w_r^{(j-n)/n} covering [1/w_r, 1].  Each geometric panel is
    refined into N_j equal moment-free sub-panels of m2 points, whose edges
    are formed at once with ``np.linspace``'s arithmetic; the Filon part
    interpolates f x^alpha [log x], ``integrand`` without its oscillator.
    Each panel is resolved against its own width ratio,
    N_j = ceil(q^{m2/(m2-1)}) with q = y_j / y_{j-1} = w_r^{1/n}; the
    defining formula's per-panel count is stated in terms of an
    inverse-oscillator ratio that degenerates for a linear oscillator.
    Here w_r = |w g'(0)| and lambda_r = 1/w_r (stationary order r = 0).
    An ``n1`` that is not an integer of at least 1 raises ParameterError.
    A problem outside :func:`cmfp_applies` (at a != 1, or at w_r < 1, where
    [1/w_r, 1] is inverted and reaches past a), and a count above what
    |w| = 1e14 needs at this n (inf where it overflows a float), are
    refused with :class:`CapabilityError` before the mesh is built.
    """
    n, s, m1, m2, p = default_cmfp_params(spec, n1)
    if not cmfp_applies(spec):
        raise CapabilityError("the composite baseline supports g = beta x, beta > 0, on [0, 1] with |w| beta >= 1")
    beta = spec.oscillator._beta
    w_eff = spec.w * beta
    w_r = abs(w_eff)
    n_sub = _sub_panels(w_r, n, m2)
    if n_sub > _sub_panels(_CMFP_MAX_W * beta, n, m2):
        raise CapabilityError(
            f"the composite baseline needs {n_sub:.3g} sub-panels per panel at n = {n}, "
            f"more than |w| = {_CMFP_MAX_W:.0e} needs; raise n"
        )
    lam = 1.0 / w_r
    gl_part = 0.0 + 0.0j
    points = 0
    if s >= 2:
        xg, wgl = _legendre_rule(m1)
        grading = (np.arange(s + 1, dtype=float) / s) ** p
        lo = grading[1:-1]
        hi = grading[2:]
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * xg[None, :]
        vals = integrand(spec, lam * pts.ravel()).reshape(pts.shape)
        per_panel = half * (vals @ wgl)
        gl_part = lam * np.sum(per_panel)
        points += pts.size
    yedges = w_r ** ((np.arange(n + 1, dtype=float) - n) / n)
    # Sub-panel edge j of panel i is j step_i + y_i, step_i = (y_{i+1} - y_i)
    # / n_sub: the arithmetic of np.linspace, so the same bits.
    sub = yedges[:-1, None] + np.arange(n_sub) * (np.diff(yedges) / n_sub)[:, None]
    edges = np.append(sub.ravel(), yedges[-1])
    cmf_vals = _cmf_panels(lambda x: _weighted(spec, x), w_eff, edges, m2)
    cmf_part = np.sum(cmf_vals)
    points += n * n_sub * m2
    value = (gl_part + cmf_part) * spec.phase_shift
    # The result's s is the asymptotic-order parameter, which the
    # composite rule does not have; the configuration's s counts graded
    # panels.
    return QuadratureResult(
        value=complex(value),
        method=Method.CMFP,
        s=0,
        n=n,
        diagnostics={
            "points": points,
            "w_r": w_r,
            "graded_panels": s,
        },
    )


def _geometric_depth(top: float, name: str) -> tuple:
    # The number of halvings of the geometric panels below ``top`` (120) and
    # the halvings k from the tail's first sample, top 2^-depth, to its
    # second (64); fewer where a sample would leave the normal floats.
    # ``name`` names ``top`` in the refusal.
    minexp = np.finfo(float).minexp
    depth = min(120, max(0, math.floor(math.log2(top)) - minexp - 64))
    k = min(64, math.frexp(top * 0.5**depth)[1] - minexp - 1)
    if k < 1:
        raise ParameterError(f"{name} = {top!r} leaves no normal float below it for the tail fit")
    return depth, k


def _closed_tail(func, eps: float, k: int, alpha: float):
    # int_0^eps func for func ~ x^alpha (A + B log x), fitted at eps and
    # eps 2^-k: eps^p (A/p + B (log eps/p - 1/p^2)), p = 1 + alpha.
    p = 1.0 + alpha
    x = np.array([eps, eps * 0.5**k])
    u = np.asarray(func(x), dtype=complex) / x**alpha
    log_x = np.log(x)
    B = (u[0] - u[1]) / (log_x[0] - log_x[1])
    A = u[0] - B * log_x[0]
    return eps**p * (A / p + B * (log_x[0] / p - 1.0 / p**2))


def graded_integral(
    func,
    a: float,
    alpha: float,
    osc_rate: float = 0.0,
    gl_order: int = 24,
    cap_factor: float = 0.25,
) -> complex:
    """Brute-force ``int_0^a func`` for an endpoint-singular integrand.

    Geometric panels [a 2^{-k-1}, a 2^{-k}] for k below a depth of 120,
    each split further so no sub-panel spans more than ``cap_factor`` of an
    oscillation period of rate ``osc_rate``, then Gauss-Legendre of order
    ``gl_order`` per sub-panel.  The sub-panel edges of all panels are built
    at once with ``np.linspace``'s arithmetic, so the nodes are those of a
    per-panel ``linspace``; ``func`` is then evaluated on consecutive blocks
    of at most ``_BLOCK_SUBPANELS`` sub-panels, which bounds the memory of
    one call.

    The innermost [0, eps], eps = a 2^{-depth}, is integrated in closed
    form: with p = 1 + alpha and ``func ~ x^alpha (A + B log x)`` fitted at
    eps and eps 2^{-k} (one last call of ``func``), it is
    ``eps^p (A/p + B (log eps/p - 1/p^2))``, whose neglected terms are
    O(eps) relative.  Both samples stay normal floats: below a ~ 1e-252 the
    depth is smaller, and below a ~ 4e-289 (depth 0) k falls from 64 to
    what keeps eps 2^{-k} normal.  The sub-panel values and
    the tail are summed exactly (``math.fsum``), so their order does not
    matter.

    ``func`` must accept numpy arrays.  ``osc_rate = 0`` disables the
    oscillation cap, which also makes w = 0 integrands usable.
    """
    check_counts(gl_order=gl_order)
    if not (a > 0 and math.isfinite(a)):
        raise ParameterError(f"a must be positive and finite, got {a!r}")
    if not alpha > -1:
        raise ParameterError("alpha must exceed -1 for an integrable endpoint")
    if gl_order < 1:
        raise ParameterError(f"gl_order must be at least 1, got {gl_order!r}")
    if not 0 <= osc_rate < math.inf:
        raise ParameterError(f"osc_rate must be nonnegative and finite, got {osc_rate!r}")
    if not 0 < cap_factor < math.inf:
        raise ParameterError(f"cap_factor must be positive and finite, got {cap_factor!r}")
    depth, k = _geometric_depth(a, "a")
    eps = a * 0.5**depth
    xg, wgl = _legendre_rule(gl_order)
    cap = np.inf if osc_rate == 0 else cap_factor * 2.0 * np.pi / osc_rate
    hi = a * 0.5 ** np.arange(depth, dtype=float)
    lo = 0.5 * hi
    delta = hi - lo
    nsub = np.maximum(1, np.ceil(delta / cap)).astype(np.intp)
    # Edge j of panel k is linspace(lo, hi, nsub + 1)[j]: j step + lo with
    # step = delta / nsub, and the last edge is hi itself.  linspace's other
    # form for a step that underflows to 0, j / nsub delta + lo, gives the
    # same edges here: nsub > 1 only where delta > cap, so the step
    # underflows only for delta = 0, where both forms give lo.
    counts = nsub + 1
    first = np.cumsum(counts) - counts
    last = first + nsub
    panel = np.repeat(np.arange(depth), counts)
    j = np.arange(panel.size) - first[panel]
    edges = j * (delta / nsub)[panel] + lo[panel]
    edges[last] = hi
    left, right = np.delete(edges, last), np.delete(edges, first)
    mid = 0.5 * (right + left)
    half = 0.5 * (right - left)
    vals = np.empty(mid.size, dtype=complex)
    for b in range(0, mid.size, _BLOCK_SUBPANELS):
        blk = slice(b, b + _BLOCK_SUBPANELS)
        pts = mid[blk, None] + half[blk, None] * xg[None, :]
        fv = np.asarray(func(pts.ravel()), dtype=complex).reshape(pts.shape)
        vals[blk] = half[blk] * (fv @ wgl)
    vals = np.append(vals, _closed_tail(func, eps, k, alpha))
    # Exact (compensated) summation: the oracle floor is set by per-panel
    # rounding, not by the running sum.
    return complex(math.fsum(vals.real) + 1j * math.fsum(vals.imag))


def _two_product(a: float, b: np.ndarray) -> tuple:
    # fl(a b) and its rounding error a b - fl(a b), exactly (Dekker, Numer.
    # Math. 18, 1971; NumPy has no fused multiply-add), for |a|, |b| below
    # 2^996: each factor is split into 26- and 27-bit halves (Veltkamp).
    c = 134217729.0 * a  # 2^27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    prod = a * b
    return prod, ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _pairwise_sum(x: np.ndarray) -> float:
    # The sum of x: adjacent pairs are added with their exact rounding
    # errors (Knuth's two-sum) until at most 512 partial sums remain, which
    # math.fsum adds exactly together with the plain sums of each level's
    # errors.  Those errors are below half an ulp of their partial sums, so
    # the result is within half an ulp plus about eps^2 sum |x| per level,
    # at a fraction of math.fsum's cost on a long x.
    parts = []
    while x.size > 512:
        if x.size % 2:
            x = np.append(x, 0.0)
        a, b = x[0::2], x[1::2]
        x = a + b
        b_virtual = x - a
        parts.append(float(np.sum((a - (x - b_virtual)) + (b - b_virtual))))
    return math.fsum(x.tolist() + parts)


def _four_bits(x):
    # x rounded down to 4 significant bits.
    m, e = np.frexp(x)
    return np.ldexp(np.floor(16.0 * m) / 16.0, e)


def _unit_phases(phase: np.ndarray) -> np.ndarray:
    # e^{i phase}; below |phase| = 2^-27, where cos rounds to 1 and sin to
    # the phase, without the exponential.
    out = 1.0 + 1j * phase
    big = np.abs(phase) >= 2.0**-27
    out[big] = np.exp(1j * phase[big])
    return out


def _phase_integral(spec: ProblemSpec, g1: float, g2: float) -> complex:
    # reference_oracle's rule in u = g(x) for g = g1 x + g2 x^2 with g' > 0
    # on [0, a]: graded_integral's at its defaults (24 nodes, a quarter
    # period per sub-panel, 120 halvings, the closed-form tail) on the
    # panels [2^E, g(a)] and [2^(e-1), 2^e] below it.  A panel's sub-panels
    # are h = min(h_cap, width) wide, h_cap a quarter period rounded down to
    # 4 significant bits, and the last one takes the exact remainder, so
    # every edge lo + i h is an exact float.  A sub-panel's value is
    # (h/2) e^{iw left} sum_j [w_j e^{iw (h/2)(1 + xi_j)}] F(u_j), whose
    # bracket is one row for all h_cap-wide sub-panels; w left is the exact
    # sum p + e of a two-product, so e^{iw left} = e^{ip} (1 + ie) carries
    # no rounding of the phase.
    w = spec.w
    top = spec.g_end()
    depth, k = _geometric_depth(top, "g(a)")
    xg, wgl = _legendre_rule(24)
    one_xi = 1.0 + xg
    mant, e = math.frexp(top)
    e_top = e - 1 - (mant == 0.5)  # 2^e_top < top <= 2^(e_top + 1)
    lo = np.ldexp(1.0, e_top - np.arange(depth))
    width = np.append(top, lo[:-1]) - lo
    h_cap = _four_bits(0.25 * 2.0 * np.pi / abs(w))
    h = np.minimum(h_cap, _four_bits(width))
    count = np.floor(width / h)
    count -= count * h > width
    rest = width - count * h
    count = count.astype(np.intp)
    panel = np.repeat(np.arange(depth), count)
    j = np.arange(panel.size) - np.repeat(np.cumsum(count) - count, count)
    short = rest > 0.0
    left = np.concatenate((lo[panel] + j * h[panel], (lo + count * h)[short]))
    half = 0.5 * np.concatenate((h[panel], rest[short]))
    # The h_cap-wide sub-panels first, which share one row; the short and
    # deep ones after them, with a row each.
    shared = half == 0.5 * h_cap
    n_shared = int(np.count_nonzero(shared))
    left = np.concatenate((left[shared], left[~shared]))
    half = np.concatenate((half[shared], half[~shared]))
    row = wgl * np.exp(1j * w * (0.5 * h_cap * one_xi))
    own_rows = wgl * _unit_phases(w * (half[n_shared:, None] * one_xi))
    # For a linear g, x(u) and g'(x(u)) are the same at every node.
    slope, root = _path_slope(0.0, g1, g2) if g2 == 0.0 else (None, None)

    def amplitude(u):
        s, r = (slope, root) if g2 == 0.0 else _path_slope(u, g1, g2)
        return _weighted(spec, u * s) / r

    # sum_j row_j F(u_j) per sub-panel, on blocks of at most
    # _BLOCK_SUBPANELS sub-panels.
    weighted = np.empty(left.size, dtype=complex)
    for b in range(0, left.size, _BLOCK_SUBPANELS):
        blk = slice(b, b + _BLOCK_SUBPANELS)
        u = left[blk, None] + half[blk, None] * one_xi
        fv = amplitude(u.ravel()).reshape(u.shape)
        weighted[blk] = fv @ row
        own = max(b, n_shared)  # the block's first sub-panel with a row of its own
        if own < blk.stop:
            rows = own_rows[own - n_shared:blk.stop - n_shared]
            weighted[own:blk.stop] = np.einsum("ij,ij->i", fv[own - b:], rows)
    # w left as w 2^e_top times left 2^-e_top: the same product, with both
    # factors in the range of the split.
    phase, err = _two_product(math.ldexp(w, e_top), np.ldexp(left, -e_top))
    vals = half * _unit_phases(phase) * (1.0 + 1j * err) * weighted
    eps = math.ldexp(1.0, e_top - depth + 1) if depth else top
    tail = _closed_tail(lambda u: amplitude(u) * np.exp(1j * w * u), eps, k, spec.alpha)
    vals = np.append(vals, tail)
    return complex(_pairwise_sum(vals.real), _pairwise_sum(vals.imag))


def reference_oracle(spec: ProblemSpec) -> complex:
    """Ground-truth value by graded brute force, for moderate frequencies.

    For a polynomial g of degree <= 2 (every built-in g, and every
    ``--g-poly`` of that degree) the integral is taken in u = g(x), as
    int_0^{g(a)} F(u) e^{iwu} du with F = f x^alpha [log x] / g'(x) and
    x(u), g'(x(u)) in closed form: 24-node Gauss-Legendre on sub-panels a
    quarter period wide, within panels [2^(e-1), 2^e] halving 120 times
    toward u = 0, and the rest in closed form.  Each sub-panel's
    oscillation is one exact phase at its left edge times one row of node
    phases shared by all equal sub-panels, so no rounding of w g(x)
    enters.  Against the 40-digit tables of
    ``tests/data`` (232 values with |w| g(a) <= the cap) its relative error
    is 3.8e-15 on ex51 at alpha = 0.5 and w = 100, 1.9e-14 at 1e3 and
    3.6e-13 at 1e4, 8.6e-15 on ex53a at w = 1e4 (|w| g(a) = 2e4, the cap)
    and at most 1.6e-12 over the tables, on ex53b at alpha = 0.99 and
    w = 1e4.  The rounding of some 1.3e4 float64 sub-panel values keeps
    the absolute error near 1e-18 times the integral of |F|, so the
    relative error grows where the value lies far below that integral:
    six decades there, and 3.9e-11 against NSD on ex51 at alpha = 0.9,
    w = 2e4.

    Any other g takes :func:`graded_integral` of the integrand in x, with
    sub-panels capped by the largest |w g'| on 257 samples of [0, a]; its
    rounding of the phase w g(x) grows with w (4.7e-10 on ex51 at w = 1e4).
    Refuses |w| g(a) beyond the phase cap, where the panel count grows
    further.
    """
    phase_range = abs(spec.w) * spec.g_end()
    if phase_range > ORACLE_PHASE_CAP:
        raise CapabilityError(
            f"oracle refuses |w| g(a) = {phase_range:.3g} > {ORACLE_PHASE_CAP:.3g}; "
            "use reference_nsd instead"
        )
    poly = spec.oscillator.poly
    c = [] if poly is None else poly.tolist() + [0.0, 0.0]
    if c and c[0] == 0.0 and not any(c[3:]) and c[1] > 0.0 and c[1] + 2.0 * c[2] * spec.a > 0.0:
        value = _phase_integral(spec, c[1], c[2])
    else:
        sample = np.linspace(0.0, spec.a, 257)
        gp_max = float(np.max(np.abs(spec.oscillator.deriv1(sample))))
        value = graded_integral(
            lambda x: integrand(spec, x),
            spec.a,
            spec.alpha,
            osc_rate=abs(spec.w) * gp_max,
        )
    return complex(value * spec.phase_shift)


@kept
def _laguerre_rule(alpha: float):
    # Generalised Gauss-Laguerre nodes and weights for p^alpha e^{-p} on
    # (0, inf), m = _NSD_ORDER, kept per alpha.  These are the steps of
    # scipy.special.roots_genlaguerre, without its wrapper, so the same
    # bits: the eigenvalues of the Jacobi matrix (diagonal 2k + alpha + 1,
    # off-diagonal sqrt(k (k + alpha))) by LAPACK dsterf, one Newton step
    # on L_m, and weights 1 / (L_{m-1} L_m') log-normalised and scaled to
    # Gamma(alpha + 1) (Golub & Welsch, Math. Comp. 23, 1969).
    m = _NSD_ORDER
    k = np.arange(m, dtype=float)
    nodes, info = dsterf(2 * k + alpha + 1, np.sqrt(k[1:] * (k[1:] + alpha)))
    if info:
        raise AccuracyError(f"the Laguerre rule's eigenvalues did not converge at alpha = {alpha!r}")
    lag = eval_genlaguerre(m, alpha, nodes)
    dlag = (m * lag - (m + alpha) * eval_genlaguerre(m - 1, alpha, nodes)) / nodes
    nodes -= lag / dlag
    prev = eval_genlaguerre(m - 1, alpha, nodes)
    log_prev = np.log(np.abs(prev))
    log_dlag = np.log(np.abs(dlag))
    prev /= np.exp((log_prev.max() + log_prev.min()) / 2.0)
    dlag /= np.exp((log_dlag.max() + log_dlag.min()) / 2.0)
    weights = 1.0 / (prev * dlag)
    weights *= gamma(alpha + 1) / weights.sum()
    return nodes, weights


@kept
def _laguerre_log_weights(alpha: float):
    # The product weights of p^alpha log(p) e^{-p} on _laguerre_rule's
    # nodes: log p expanded in L_j^{(alpha)}, j < m, whose coefficients are
    # closed form, int p^alpha log(p) L_j e^{-p} dp / int p^alpha L_j^2 e^{-p} dp
    # = -Gamma(alpha+1) j! / (j Gamma(j+alpha+1)) for j >= 1 and psi(alpha+1)
    # for j = 0; m = _NSD_ORDER.  Every L_j at every node comes from one
    # banded solve, the three-term recurrence (j+1) L_{j+1} - (2j+1+alpha-p)
    # L_j + (j+alpha) L_{j-1} = 0 from L_0 = 1 as a lower-triangular system
    # of bandwidth 2, one block of m rows per node.  It keeps the log
    # moments within 1.6e-14 relative at alpha = 0, +-0.05, +-0.5, +-0.9,
    # +-0.999; eval_genlaguerre on the (j, node) grid is off by up to
    # 2.5e-12 there.  Kept per alpha; only the log kind builds it.
    m = _NSD_ORDER
    nodes, weights = _laguerre_rule(alpha)
    j = np.arange(m)
    band = np.zeros((3, nodes.size, m))
    band[0] = np.maximum(j, 1)
    band[1, :, :-1] = nodes[:, None] - (2 * j[:-1] + 1 + alpha)
    band[2, :, :-2] = j[:-2] + 1 + alpha
    rhs = np.ones((nodes.size, 1)) * (j == 0)  # L_0 = 1 in each block's first row
    lag = dtbtrs(band.reshape(3, -1), rhs.reshape(-1, 1), uplo="L")[0].reshape(nodes.size, m)
    coeffs = np.concatenate(([digamma(alpha + 1.0)], -np.cumprod(j[1:] / (j[1:] + alpha)) / j[1:]))
    return weights * (lag @ coeffs)


def _path_slope(t, g1: float, g2: float, sqrt=np.sqrt):
    # y / t for the root y of g(c + y) - g(c) = g1 y + g2 y^2 = t that is 0
    # at t = 0, without cancellation, and the root's sqrt = g'(c + y); on
    # arrays with NumPy, on a Python complex with ``sqrt=cmath.sqrt``.
    root = sqrt(g1 * g1 + 4.0 * g2 * t)
    return 2.0 / (g1 + root), root


def _rule_error(t, w: float, turn: complex, alpha: float, product: bool = False) -> float:
    # Estimated relative error that singularities at g(x) - g(c) = t (a
    # sequence of Python numbers) cause in the m-point Laguerre rule in r,
    # m = _NSD_ORDER, where p = turn r and g(x) = g(c) + i p / w.  A
    # singularity at z in the r-plane costs a Gauss rule about
    # e^{-Re z} e^{-2 sqrt(nu) Re sqrt(-z)}, nu = 4m + 2 alpha + 2 (Perron's
    # asymptotics of the rule's error kernel); the first factor is dropped
    # for Re z < 0, where it holds only for |z| much smaller than nu.  A
    # product rule on the same nodes is exact to degree m - 1 only, not
    # 2m - 1, and converges at half that rate.  A z beyond the float range
    # has no effect on the rule.
    to_r = -1j * w
    decay = 2.0 * math.sqrt(4.0 * _NSD_ORDER + 2.0 * alpha + 2.0)
    exponent = -math.inf
    for ti in t:
        z = to_r * ti / turn
        if cmath.isfinite(z):
            e = (-z.real if z.real > 0.0 else 0.0) - decay * cmath.sqrt(-z).real
            if e > exponent:
                exponent = e
    return math.exp(exponent / (2.0 if product else 1.0))


def _nsd_tilt(spec: ProblemSpec, coeffs: list, slopes: tuple, g_a: float) -> float:
    # The scope gate of reference_nsd, in Python scalars: the tilt of the ray
    # from 0 (0 or _NSD_TILT) for the g of ``coeffs`` (Python floats, degree
    # <= 2, without trailing zeros), with g'(0), g'(a) = ``slopes`` and g(a)
    # = ``g_a``, or CapabilityError.
    w, alpha = spec.w, spec.alpha
    log_kind = spec.kind is SingKind.ALGEBRAIC_LOG
    sign = 1.0 if w > 0 else -1.0
    g2 = coeffs[2] if len(coeffs) > 2 else 0.0
    sing = [complex(z) for z in spec.amplitude.singular_points]
    u = [_horner_py(coeffs, z) for z in sing]  # g at the singular points
    # Where g' = 0 the path inverse branches; in t = g - g(c) that is at
    # -g'(c)^2 / (4 g2) (none for linear g, nor beyond the float range).
    branch = []
    for slope in slopes:
        t_branch = -slope * slope / (4.0 * g2) if g2 else math.inf
        branch.append([t_branch] if math.isfinite(t_branch) else [])
    t_end = [ui - g_a for ui in u] + branch[1] + [-g_a]  # x = 0 is singular on the path from a
    if _rule_error(t_end, w, 1.0, 0.0) > _NSD_GAUSS_TOL:
        raise CapabilityError("a singularity lies too close to the nodes of the path from a")
    t_zero = u + branch[0]
    # The log kind's product rule is the slower of its two rules from 0.
    tol_zero = _NSD_PRODUCT_TOL if log_kind else _NSD_GAUSS_TOL
    # g maps the swept region onto the strip between the ray of g from 0 and
    # the vertical ray from g(a), on the side sign(w) Im g >= 0; a singular
    # point is inside when g takes it there on the branch of the inverse
    # that is continuous from [0, a].  ``above`` holds (Re g, sign(w) Im g)
    # of the points on that side and branch.
    above = []
    for ui, z in zip(u, sing):
        height = sign * ui.imag
        if height >= 0 and abs(ui * _path_slope(ui, slopes[0], g2, cmath.sqrt)[0] - z) <= 1e-9 * (1.0 + abs(z)):
            above.append((ui.real, height))
    for tilt in (0.0, _NSD_TILT):
        inside = any(min(tilt * height, g_a) <= real <= max(tilt * height, g_a) for real, height in above)
        turn = 1.0 - 1j * sign * tilt
        if not inside and _rule_error(t_zero, w, turn, alpha, log_kind) <= tol_zero:
            return tilt
    raise CapabilityError(
        "a singularity of the amplitude or of the path from 0 lies in the swept "
        "region or too close to the rule's nodes"
    )


def reference_nsd(spec: ProblemSpec) -> complex:
    """Reference value by numerical steepest descent, for large |w| g(a).

    The integral over [0, a] is the difference of two path integrals, one
    from each endpoint c, on which ``g(x) = g(c) + i sign(w) p / |w|`` for
    p >= 0, so that ``e^{iwg(x)} = e^{iwg(c)} e^{-p}`` (Huybrechs &
    Vandewalle, SIAM J. Numer. Anal. 44, 2006; Deano & Huybrechs, Numer.
    Math. 112, 2009).  For a polynomial g of degree <= 2 each path is
    inverted in closed form, ``x = c + 2t / (g'(c) + sqrt(g'(c)^2 + 4 g2 t))``
    with ``t = g(x) - g(c)``.  The path from 0 carries ``x^alpha`` as the
    weight ``p^alpha e^{-p}`` of a 22-point generalised Gauss-Laguerre rule
    (the log kind adds the product rule of ``p^alpha log(p) e^{-p}`` on the
    same nodes); the path from a uses the plain Gauss-Laguerre rule.  The cost
    does not depend on w.

    The amplitude must carry its continuation off the real axis
    (``Amplitude.complex_value``) and its singular points.  When one of them
    lies in or on the region swept between [0, a] and the paths, or too close
    to the nodes of the path from 0 (ex52's pole at x = i lies on that path,
    at p = w), the ray from 0 is tilted toward a, ``p = (1 - i sign(w) tilt) r``
    with r on the rule's nodes, which leaves a factor ``e^{i sign(w) tilt r}``
    in the integrand.

    Raises
    ------
    CapabilityError
        When g is not a polynomial of degree <= 2, f has no continuation, a
        singular point of f lies in or on the swept region for both rays
        from 0, or a singularity in the p-plane (those of f, the branch point
        of the path where g' = 0, and x = 0 on the path from a) lies so close
        to a rule's nodes that the rule's estimated error exceeds its bound
        (``_NSD_GAUSS_TOL``, ``_NSD_PRODUCT_TOL``).
    AccuracyError
        When the value is not finite.
    """
    log_kind = spec.kind is SingKind.ALGEBRAIC_LOG
    amp = spec.amplitude
    if amp.complex_value is None:
        raise CapabilityError("NSD needs the amplitude's complex-argument evaluator")
    poly = spec.oscillator.poly
    coeffs = None if poly is None else np.asarray(poly, dtype=float).tolist()
    if coeffs is None or any(coeffs[3:]):
        raise CapabilityError("NSD inverts polynomial oscillators of degree <= 2 only")
    g2 = coeffs[2] if len(coeffs) >= 3 else 0.0
    coeffs = coeffs[:3] if g2 else coeffs[:2]  # without trailing zeros
    a, w, alpha = spec.a, spec.w, spec.alpha
    sign = 1.0 if w > 0 else -1.0
    g_a = _horner_py(coeffs, a)  # for a g of Oscillator.from_poly, the bits of spec.g_end()
    slopes = (coeffs[1], coeffs[1] + 2.0 * g2 * a)  # g'(0), g'(a)
    tilt = _nsd_tilt(spec, coeffs, slopes, g_a)
    turn = 1.0 - 1j * sign * tilt

    r0, w0 = _laguerre_rule(alpha)
    slope0, root0 = _path_slope(1j * turn * r0 / w, slopes[0], g2)
    x_over_r = 1j * turn / w * slope0
    x0 = r0 * x_over_r
    h0 = amp.complex_value(x0) * x_over_r**alpha * (1j * turn / w / root0)
    if tilt:
        h0 = h0 * np.exp(1j * sign * tilt * r0)
    if log_kind:
        # x^alpha log x = r^alpha (x/r)^alpha (log r + log(x/r))
        from_zero = _laguerre_log_weights(alpha) @ h0 + w0 @ (h0 * np.log(x_over_r))
    else:
        from_zero = w0 @ h0

    ra, wa = _laguerre_rule(0.0)
    t_a = 1j * ra / w
    slope_a, root_a = _path_slope(t_a, slopes[1], g2)
    y = t_a * slope_a
    xa = a + y
    ha = amp.complex_value(xa) * xa**alpha / root_a
    if log_kind:
        # x = a (1 + u), |u| ~ 1/w: NumPy's complex log and log1p round |x| to a.
        u = y / a
        ha = ha * (math.log(a) + 0.5 * np.log1p(2.0 * u.real + u.real**2 + u.imag**2)
                   + 1j * np.arctan2(u.imag, 1.0 + u.real))
    from_a = cmath.exp(1j * w * g_a) * (wa @ ha) * (1j / w)
    value = complex((from_zero - from_a) * spec.phase_shift)
    if not cmath.isfinite(value):
        raise AccuracyError("NSD value is not finite")
    return value
