"""Frequency-space collocation: Hermite Filon rules and the Levin operator.

These are the methods that support endpoint multiplicities s >= 1.  Both
collocate on ``npts`` modified Chebyshev-Lobatto points with multiplicities
(s+1, 1, ..., 1, s+1); the table parameter "n" of the benchmark equals
``npts``.

The Filon route is a rule for linear oscillators g = beta x alone, and
refuses any other g with CapabilityError (LEVIN_FREQ is the route for a
nonlinear g).  It interpolates the regularized amplitude f1 in the basis
Psi = {g', g' g, g' g^2, ...}, which on g = beta x is beta (x/a)^k up
to the column scales g(a)^-k, and integrates exactly against the
generalized moments mu_j (and nu_j for the logarithmic weight); the
logarithmic kind interpolates f1 and the f2 sub-problem's amplitude f21
with one Hermite matrix, built from the series of t = x/a and read from no
series of g.  The Levin route expands q1 in the Chebyshev
polynomials T_k(2t - 1) on [0, 1] and collocates the model ODE; all
derivative conditions are generated by truncated power series arithmetic,
which stays stable at degrees where naive Chebyshev-to-monomial
conversion does not; the operator rows are array products over the whole
basis and all nodes.  The route is only the arrays it builds, that
operator and its node data, row scale, g' data and end rows
(:func:`_freq_operator`, which reads a problem on [0, a] at x = a t as
the physical route does): :func:`quad_freq` and ``compute`` run them
through the Levin pipeline of :mod:`oscquad.levin`, which the
physical-space route shares; its node data are the collocation
conditions (Taylor coefficient j times j!), and q1 g' is q1's
coefficients times the kept g' T_k there.
Everything of both rules that alpha and w leave alone is kept
(:func:`oscquad._kept.kept`): the collocation layout of (npts, s) that
both share, the Levin route's Chebyshev Taylor table on its nodes, and,
per polynomial g, a and (npts, s), the layout beside g' and the Levin
image terms at its conditions, or beside FILON's Hermite matrix on [0, a].  A
call reads one kept table and only combines it with alpha,
w and f, whose series at the nodes is kept per keyed amplitude
(``problem._amplitude_series``).  The closed forms that start the moment
recurrences, mu_1 and K_log, are kept per (alpha, w, g(a)), as the Levin
rules' end kernels are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kept import kept
from ._result import Method, QuadratureResult, check_counts
from ._series import poly_taylor, ps_mul
from .cheb import lobatto_grid
from .errors import AccuracyError, CapabilityError, DegenerateSystemError, ParameterError
from .levin import _problem_solves, _quad_levin, _w_a
from .numkernel import _end_k_log, _power, gamma_real, neg_iw_pow, upper_gamma_complex
from .problem import Oscillator, ProblemSpec, SingKind, _factorials, _regularised

__all__ = [
    "moments_mu",
    "moments_nu",
    "build_moment_table",
    "build_hermite_data",
    "hermite_solve",
    "quad_filon",
    "solve_freq",
    "quad_freq",
    "MAX_BASIS_SIZE",
]

MAX_BASIS_SIZE = 40


def _moment_scale(alpha: float, w: float) -> complex:
    # (-iw)^{1+alpha}, the divisor of the closed forms of mu_1 and nu_1.
    scale = neg_iw_pow(1.0 + alpha, w)
    if scale == 0:
        raise AccuracyError(f"(-iw)^(1+alpha) underflows to 0 at w = {w!r}")
    return scale


def _recurrence_amplifies(alpha: float, w: float, g_a: float, count: int) -> bool:
    # The forward recurrences multiply an error in moment j by
    # (j+alpha)/(|w| g_a); True where the product over the table,
    # Gamma(count+alpha) / (Gamma(1+alpha) (|w| g_a)^(count-1)), exceeds 1.
    log_phase = math.log(abs(w)) + math.log(g_a)
    return math.lgamma(count + alpha) - math.lgamma(1.0 + alpha) > (count - 1) * log_phase


def _moment_series(alpha: float, w: float, g_a: float, count: int, log: bool) -> np.ndarray:
    # mu_j, or nu_j with ``log``, from the power series of e^{iwu}: the sum
    # over k of (iw)^k g_a^p / (k! p), p = j + alpha + k + 1, each term times
    # (log g_a - 1/p) for nu_j.  Summed until k exceeds |w| g_a and
    # (iw g_a)^k / k! is below round-off.  (-iw)^{1+alpha} underflowing
    # marks a w below any the closed forms represent, refused on both routes.
    _moment_scale(alpha, w)
    z = 1j * w * g_a
    p = np.arange(count) + alpha + 1.0
    head = g_a**p
    out = np.zeros(count, dtype=complex)
    term, k = 1.0 + 0.0j, 0
    while k <= abs(z) or abs(term) > 1e-17:
        out += term * head / (p + k) * ((np.log(g_a) - 1.0 / (p + k)) if log else 1.0)
        k += 1
        term *= z / k
    return out


def _check_moment_args(w: float, g_a: float, count: int, too_few: str) -> None:
    # The arguments both moment tables refuse: a zero or non-finite w, a
    # g_a that is not positive and finite, and a table of no moments.
    if not (w != 0 and math.isfinite(w)):
        raise ParameterError(f"w must be nonzero and finite, got {w!r}")
    if not (g_a > 0 and math.isfinite(g_a)):
        raise ParameterError(f"g_a must be positive and finite, got {g_a!r}")
    if count < 1:
        raise ParameterError(too_few)


@kept
def _mu_1(alpha: float, w: float, g_a: float) -> complex:
    # mu_1's closed form, kept per (alpha, w, g_a) as the end kernels are;
    # an underflowing (-iw)^(1+alpha) raises on every call.
    upper, _ = upper_gamma_complex(1.0 + alpha, -1j * w * g_a)
    return (gamma_real(1.0 + alpha) - upper) / _moment_scale(alpha, w)


def moments_mu(alpha: float, w: float, g_a: float, count: int) -> np.ndarray:
    """Moments mu_1..mu_count by closed form plus forward recurrence.

    ``mu_1 = (Gamma(1+alpha) - Gamma(1+alpha, -iw g_a)) / (-iw)^{1+alpha}``
    and ``mu_{j+1} = -((j+alpha)/(iw)) mu_j + g_a^{j+alpha} e^{iw g_a}/(iw)``.
    Where the recurrence would amplify errors (the product of
    (j+alpha)/(|w| g_a) over the table exceeds 1, as at small |w| g_a),
    every moment comes from the power series of e^{iwu} instead.  mu_1 is
    kept per (alpha, w, g_a).
    """
    check_counts(count=count)
    _check_moment_args(w, g_a, count, "count must be at least 1")
    if _recurrence_amplifies(alpha, w, g_a, count):
        return _moment_series(alpha, w, g_a, count, False)
    mu = np.zeros(count, dtype=complex)
    mu[0] = _mu_1(alpha, w, g_a)
    phase_end = np.exp(1j * w * g_a)
    for j in range(1, count):
        mu[j] = -((j + alpha) / (1j * w)) * mu[j - 1] + _power(g_a, j + alpha) * phase_end / (1j * w)
    return mu


def moments_nu(
    alpha: float,
    w: float,
    g_a: float,
    mu: np.ndarray,
) -> np.ndarray:
    """Logarithmic moments nu_1..nu_count, one for each entry of ``mu``.

    ``nu_1 = log(g_a) mu_1 + int_0^{g_a} u^alpha log(u/g_a) e^{iwu} du``, the
    last term by :func:`oscquad.numkernel.kernel_k_log`, kept per (alpha, w,
    g_a) and shared with the Levin rules' end values; the recurrence adds
    a ``-mu_j/(iw)`` coupling.  Where it would amplify errors, the power
    series replaces both, as in :func:`moments_mu`.
    """
    mu = np.asarray(mu, dtype=complex)
    count = mu.size
    _check_moment_args(w, g_a, count, "mu must hold at least one moment")
    if _recurrence_amplifies(alpha, w, g_a, count):
        return _moment_series(alpha, w, g_a, count, True)
    nu = np.zeros(count, dtype=complex)
    nu[0] = np.log(g_a) * mu[0] + _end_k_log(alpha, w, g_a)
    log_end = np.log(g_a) * np.exp(1j * w * g_a)
    for j in range(1, count):
        nu[j] = (
            -((j + alpha) / (1j * w)) * nu[j - 1]
            - mu[j - 1] / (1j * w)
            + _power(g_a, j + alpha) * log_end / (1j * w)
        )
    return nu


def build_moment_table(spec: ProblemSpec, count: int) -> tuple:
    """The moments ``(mu, nu)`` of a problem for j = 0..count-1.

    ``mu[j]`` is ``int_0^a g' g^{j+alpha} e^{iwg} dx = int_0^{g_a}
    u^{j+alpha} e^{iwu} du`` (:func:`moments_mu`) and ``nu[j]`` the same
    with an extra ``log u`` factor (:func:`moments_nu`) for the
    logarithmic kind, None for the algebraic kind.  As every FILON piece,
    it refuses a g that is not beta x with CapabilityError.
    """
    g_a = _g_end(spec.oscillator, spec.a)
    mu = moments_mu(spec.alpha, spec.w, g_a, count)
    if spec.kind is SingKind.ALGEBRAIC_LOG:
        return mu, moments_nu(spec.alpha, spec.w, g_a, mu)
    return mu, None


def build_hermite_data(spec: ProblemSpec, npts: int, s: int) -> np.ndarray:
    """Hermite interpolation data of f1: the ``(npts, s + 1)`` array whose
    ``values[l, j]`` is the j-th derivative of f1 at node l.

    The nodes are the ``npts`` Chebyshev-Lobatto points on [0, a], with
    multiplicities s + 1 at the ends and 1 inside; the conditions are the
    entries with j below the node's multiplicity, the other entries are
    not read.  Derivatives come from f1's exact local series.  A g that
    is not beta x, then the basis cap of the Hermite matrix, is refused
    here.
    """
    check_counts(npts=npts, s=s)
    layout, nodes = _hermite_matrix(spec.oscillator, spec.a, npts, s)[:2]
    return _regularised(spec)(nodes, s + 1)[0] * layout.fact


def _hermite_table(values, spec: ProblemSpec) -> tuple:
    # The Hermite ``values`` of build_hermite_data as an array, the (npts,
    # s) of their shape and the _hermite_matrix of spec there.
    values = np.asarray(values)
    if values.ndim != 2:
        raise ParameterError(f"values must be a 2-D (npts, s + 1) array, got shape {values.shape}")
    npts, width = values.shape
    return values, npts, width - 1, _hermite_matrix(spec.oscillator, spec.a, npts, width - 1)


def hermite_solve(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Interpolation coefficients in the basis phi_k = g' g^{k-1} of the
    Hermite ``values`` of :func:`build_hermite_data`, whose shape gives
    (npts, s).

    g must be beta x (any other g raises CapabilityError; use LEVIN_FREQ).
    The generalized Vandermonde system is column-scaled by g(a)^{1-k}, so
    that column k is beta (x/a)^{k-1}, and the interpolation conditions
    are re-checked a posteriori; failure raises DegenerateSystemError
    (reduce the basis size).
    """
    values, *_, table = _hermite_table(values, spec)
    return _hermite_solve(table, values)[0]


def _g_end(osc: Oscillator, a: float) -> float:
    # g(a) = beta a where g = beta x, the one g the FILON rule takes: any
    # other g, polynomial or not, is refused before anything is built, then
    # a g(a) that is not finite.  beta a is g.value(a), bit for bit.
    if osc._beta is None:
        raise CapabilityError("FILON supports g = beta x only (after normalisation); use LEVIN_FREQ for this g")
    g_a = osc._beta * a
    if not math.isfinite(g_a):
        raise ParameterError(f"g(a) = {g_a!r} is not finite at a = {a!r}")
    return g_a


@kept
def _hermite_matrix(osc: Oscillator, a: float, npts: int, s: int) -> tuple:
    # The layout of (npts, s), its nodes on [0, a], the Hermite matrix of
    # hermite_solve there for its interpolation conditions, column-scaled,
    # and the column scales g(a)^{1-k}.  A g that is not beta x, a
    # non-finite g(a), a bad (npts, s), a basis over the cap, or a
    # g(a)^(M1 - 1) or g(a)^(1 - M1) that overflows raises, in that order,
    # so is never kept.  The two powers are the largest moment
    # g(a)^(j + alpha) of the basis and its largest column scale (a tiny
    # g(a)); both are refused with the AccuracyError of the moments before
    # the recurrence runs.
    g_a = _g_end(osc, a)
    M1 = npts + 2 * s
    _check_basis(npts, s, M1)
    layout = _layout(npts, s)
    _power(g_a, M1 - 1.0)
    _power(g_a, 1.0 - M1)
    # Column k + 1, phi_{k+1} = g' g^k times g(a)^{-k}, is beta t^k with
    # t = x/a: cols[k][l] is the series in t of t^k at node l, one ps_mul
    # per basis function after the first for all nodes, and the condition
    # of order j, a derivative in x, takes the row factor beta / a^j (0
    # where it underflows, which leaves the system singular).
    t = poly_taylor([0.0, 1.0], layout.nodes, s + 1)
    cols = [poly_taylor([1.0], layout.nodes, s + 1)]
    for _ in range(1, M1):
        cols.append(ps_mul(cols[-1], t))
    rows = layout.fact[layout.order] * osc._beta * (1.0 / a) ** layout.order
    A = rows[:, None] * np.array(cols)[:, layout.node, layout.order].T
    return layout, a * layout.nodes, A, g_a ** (1.0 - np.arange(1, M1 + 1))


def _hermite_solve(table: tuple, *values: np.ndarray) -> list:
    # hermite_solve for each table of ``values`` (Hermite values at the
    # nodes of a _hermite_matrix ``table``), with its one Hermite matrix.
    layout, _, A, scale = table
    # One right-hand-side column per table, so A is factorised once.
    b = np.stack([v[layout.node, layout.order] for v in values], axis=1)
    try:
        y = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(f"singular Hermite system: {exc}") from exc
    for resid, bound in zip(np.abs(A @ y - b).max(axis=0), 1e-9 * np.maximum(1.0, np.abs(b).max(axis=0))):
        if resid > bound:
            raise DegenerateSystemError(
                f"Hermite interpolation conditions violated ({resid:.2e}); reduce the basis size"
            )
    return list((y * scale[:, None]).T)


def quad_filon(spec: ProblemSpec, values: np.ndarray) -> QuadratureResult:
    """Filon-type quadrature from the Hermite ``values`` of f1 that
    :func:`build_hermite_data` gives, whose shape gives (npts, s).

    Algebraic kind: ``sum_j p_j mu_j`` times the phase shift.  Logarithmic
    kind: the algebraic rule applied to the regularized f2 amplitude plus
    ``sum_j p_j nu_j``.
    """
    values, npts, s, table = _hermite_table(values, spec)
    f21 = _regularised(spec)(table[1], s + 1)[1:]
    return _filon_rule(spec, npts, s, table, values, [series * table[0].fact for series in f21])


def _filon(spec: ProblemSpec, npts: int, s: int) -> QuadratureResult:
    # compute(FILON): the series of f1 and f21 from one _regularised, as the
    # Levin rules, formed together on the nodes of the one table read.
    table = _hermite_matrix(spec.oscillator, spec.a, npts, s)
    layout, nodes = table[:2]
    f1, *f21 = (series * layout.fact for series in _regularised(spec)(nodes, s + 1))
    return _filon_rule(spec, npts, s, table, f1, f21)


def _filon_rule(spec: ProblemSpec, npts: int, s: int, table: tuple, f1: np.ndarray, f21: list) -> QuadratureResult:
    # quad_filon given the Hermite values of f1 and of the f1 of the f2
    # sub-problem of a logarithmic-kind spec (an empty list for the
    # algebraic kind) at the nodes of the _hermite_matrix ``table`` of
    # (npts, s).  Both interpolate on those nodes, so its one Hermite matrix
    # serves them.
    p, *p2 = _hermite_solve(table, f1, *f21)
    mu, nu = build_moment_table(spec, p.size)
    value = np.dot(p, mu)
    diagnostics = {"basis_size": int(p.size)}
    if p2:
        value = np.dot(p2[0], mu) + np.dot(p, nu)
        diagnostics["basis_size_f2"] = int(p2[0].size)
    return QuadratureResult(
        value=complex(value * spec.phase_shift),
        method=Method.FILON,
        s=s,
        n=npts,
        diagnostics=diagnostics,
    )


@kept
def _cheb_series_table(nodes: np.ndarray, m: int, count: int) -> np.ndarray:
    # Taylor series (length m) of T_0..T_{count-1}(2t - 1) at the points
    # ``nodes`` of [0, 1]: out[k, l] is that of T_k at nodes[l].  The
    # three-term recurrence is carried out in series space, for all nodes
    # at once; stable at degrees where conversion to the monomial basis is
    # not.  It depends on the grid alone, so every g's _freq_table on one
    # (npts, s) shares it.
    u = np.zeros((nodes.size, m))
    u[:, 0] = 2.0 * nodes - 1.0
    if m > 1:
        u[:, 1] = 2.0
    out = np.zeros((count, nodes.size, m))
    out[0, :, 0] = 1.0
    if count >= 2:
        out[1] = u
    for k in range(2, count):
        out[k] = 2.0 * ps_mul(u, out[k - 1]) - out[k - 2]
    return out


@dataclass(frozen=True)
class _Layout:
    """The collocation layout of (npts, s) on [0, 1], which both rules
    share: the Lobatto ``nodes``, the ``node`` and ``order`` of every
    condition, node by node, the factorials ``fact`` 0! .. s!, and the
    ``end_rows`` that take the Levin route's Chebyshev coefficients to
    q1(1) and q1'(1)."""

    nodes: np.ndarray
    node: np.ndarray
    order: np.ndarray
    fact: np.ndarray
    end_rows: tuple


def _check_basis(npts: int, s: int, size: int = 0) -> None:
    # Refuses a bad (npts, s), then a basis of ``size`` functions over the
    # cap.  Each rule runs it before it reads the layout of (npts, s); the
    # cap refuses every s >= 20, long before the layout's factorials 0! ..
    # s! would overflow (s >= 171).
    if npts < 3:
        raise ParameterError("need at least 3 collocation points")
    if s < 0:
        raise ParameterError("s must be nonnegative")
    if size > MAX_BASIS_SIZE:
        raise CapabilityError(f"basis size {size} exceeds the supported cap {MAX_BASIS_SIZE}")


@kept
def _layout(npts: int, s: int) -> _Layout:
    # A bad (npts, s) raises, so is never kept.  At t = 1, T_k(2t - 1) is 1
    # and its t-derivative 2 k^2.
    _check_basis(npts, s)
    nodes = lobatto_grid(npts - 1).nodes
    mults = np.ones(npts, dtype=int)
    mults[[0, -1]] = s + 1
    node, order = np.nonzero(np.arange(s + 1) < mults[:, None])
    k = np.arange(npts - 1 + 2 * s)
    return _Layout(nodes, node, order, _factorials(s + 1), (np.ones(k.size), 2.0 * k**2))


@kept
def _freq_table(osc: Oscillator, a: float, npts: int, s: int) -> tuple:
    # The layout of (npts, s) and the parts of _freq_operator that depend
    # on g and a alone, at its conditions (node l, order j), each times j!:
    # g' and the three terms of the Levin images of the M = npts - 1 + 2s
    # basis functions T_0 .. T_{M-1}(2t - 1), sum_i g_i P'_{j-i},
    # g'_i P_{j-i} and (g g')_i P_{j-i}, one row per condition, for g read
    # at x = a t, g(a t)/a, whose Taylor coefficient k in t is g's at a t
    # times a^(k-1).  P is the Taylor series of T_k at the nodes, kept per
    # grid and read once the cap has passed, and each term one ps_mul over
    # the whole basis (orders j > 0 of interior nodes are formed and
    # dropped).  j! is a power of two for s <= 2, so there the product
    # keeps the bits of the term.  A bad (npts, s), then a basis over the
    # cap, raises, so is never kept.
    M = npts - 1 + 2 * s
    _check_basis(npts, s, M)
    layout = _layout(npts, s)
    node, order = layout.node, layout.order
    cheb = _cheb_series_table(layout.nodes, s + 2, M)
    gser = osc.series_at(a * layout.nodes, s + 2) * a ** (np.arange(s + 2) - 1.0)
    gg = gser[:, : s + 1]
    gprime = np.arange(1, s + 2) * gser[:, 1:]
    P = cheb[:, :, : s + 1]
    dP = np.arange(1, s + 2) * cheb[:, :, 1:]
    fact = layout.fact[order]
    terms = np.stack([ps_mul(gg, dP), ps_mul(gprime, P), ps_mul(ps_mul(gg, gprime), P)])[:, :, node, order]
    return layout, fact * gprime[node, order], (fact * terms).transpose(0, 2, 1)


def _freq_operator(spec: ProblemSpec, c: float, npts: int, s: int) -> tuple:
    # The route's part of a Levin call (see levin._quad_levin) at (g, a,
    # alpha, w, npts, s), as arrays, for ``spec`` on [0, a] read at x = a t
    # on [0, 1], at frequency w a.  Rows: the model ODE and its first
    # (mult - 1) derivatives at each node, applied to the unknowns (c0, q1
    # coefficients); column k + 1 holds the Levin image
    # g q' + (1+alpha) g' q + iw g g' q of q = T_k, for the whole basis: the
    # terms of _freq_table, kept per g and a, combined with alpha and w a.
    # Node data are the conditions of the amplitudes of
    # problem._regularised(spec, c, a=spec.a), their Taylor series in t of
    # length s+1 at the nodes times factorials, formed once per amplitude;
    # those of q1 g' are the product of q1's coefficients with the kept
    # g' T_k term, (that term, None) in levin._solves.  Row j grows like
    # k^{2j}: each row of the matrix, and of every right-hand side, is
    # divided by the power of two just above its largest entry, the row
    # scale.  The end rows are the layout's, and the value at t = 1 is the
    # order-0 condition of the last node, s + 1 from the end.
    layout, gprime, (t1, t2, t3) = _freq_table(spec.oscillator, spec.a, npts, s)
    w = _w_a(spec)
    A = np.empty((gprime.size, t1.shape[1] + 1), dtype=complex)
    A[:, 0] = 1j * w * gprime
    A[:, 1:] = t1 + (1.0 + spec.alpha) * t2 + 1j * w * t3
    row_scale = np.ldexp(1.0, np.frexp(np.abs(A).max(axis=1))[1])
    conditions = layout.node, layout.order
    data = [(layout.fact * np.asarray(series, dtype=complex))[conditions]
            for series in _regularised(spec, c, a=spec.a)(layout.nodes, s + 1)]
    return A / row_scale[:, None], data, row_scale, (t2, None), (*layout.end_rows, -(s + 1))


def solve_freq(spec: ProblemSpec, npts: int, s: int):
    """Frequency-space Levin collocation for (c0, q1).

    q1 is expanded in the ``M = npts - 1 + 2s`` Chebyshev polynomials
    T_k(2t - 1) on [0, 1], x = a t; the model ODE and its
    first s derivatives are collocated at the endpoints (interior nodes
    carry single conditions), with the regularized amplitude f1 of
    ``spec`` on the right-hand side.  Returns ``(c0, coeffs, diagnostics)``
    where ``coeffs`` are the q1 expansion coefficients and ``diagnostics``
    those of :func:`oscquad.levin.tsvd_solve`, ``residual_norm`` that of
    the row-equilibrated system.

    Parameters
    ----------
    spec : ProblemSpec
    npts : int
        Number of Lobatto collocation points (the tables' n).
    s : int
        Endpoint multiplicity parameter.
    """
    check_counts(npts=npts, s=s)
    L, data, scale, gprime, _ = _freq_operator(spec, 1.0, npts, s)
    return _problem_solves(L, data[:1], scale, gprime, spec.a)[0]


def quad_freq(spec: ProblemSpec, npts: int, s: int) -> QuadratureResult:
    """Frequency-space Levin quadrature (algebraic or logarithmic kind).

    The Levin rule of :func:`oscquad.levin._quad_levin` on the operator of
    this route: the f1 solve, and for the logarithmic kind the coupled
    solve with right-hand side ``f21 - q1 g'``, both against one
    factorised operator.
    """
    check_counts(npts=npts, s=s)
    return _quad_levin(spec, _freq_operator, Method.LEVIN_FREQ, npts, s)
