"""The Levin pipeline of both routes, and physical-space collocation.

Both Levin rules (:func:`_quad_levin`) collocate the problem on [0, a]
in t on [0, 1], x = a t, form the node data of f1 and, for the
logarithmic kind, of the amplitude f21 = f log(g(a) x/g) (x/g)^alpha
once each, solve for f1 and f21 - q1 g' on one factorised operator, and
read the bracket at x = a (:func:`oscquad.boundary.levin_value`).  Both
routes take the problem as given and read f and g at x = a t: the
oscillator in t is g(a t)/a, with slope g'(a t), the frequency w a, and a
Taylor coefficient j in t is a^j times that in x (and g's is also
divided by a).  No route builds a mapped amplitude, oscillator or spec.
A route is only the arrays it hands that one pass: its matrix, the node
data of the amplitudes (values, or collocation conditions on the
frequency route), the row scale that divides node data into a
right-hand side (None for none), the g' data that take q1 to the node
data of q1 g', and the end rows (:func:`_physical_operator` here, or
``filon._freq_operator``), which ``compute`` hands to that pass itself.
A call goes from there to the value on plain arrays and scalars: the
LAPACK factor and its diagnostics, each solve's solution and residual,
and the end data of the one solve whose q(a) the bracket reads, with the
first solve's c0 for the logarithmic kind.  The public :func:`tsvd_solve`,
:func:`solve_alg`, :func:`solve_log` and ``filon.solve_freq`` run the
same factorisation and solves and return plain values:
``(x, diagnostics)`` for a matrix and right-hand side, and
``(c0, q1, diagnostics)`` for each solve of a problem, where
``diagnostics`` holds the solve's ``residual_norm`` and the factor's
``factor``, ``cond`` and ``tsvd_truncated``, the keys of a Levin result.

In physical space the unknowns are the constant c0 and the
non-oscillatory factor q1 of the ansatz p = q g^alpha + h (with
q = c0 (1 - e^{-iwg}) g^{-alpha}... folded into the explicit kernel)
satisfying

    iw g'(x) c0 + g(x) q1'(x) + [1 + alpha + iw g(x)] g'(x) q1(x) = f1(x).

Collocation runs on the modified Gauss-Radau nodes, which exclude the
origin; the condition at x=0 replaces q1(0) by the extrapolation r^T q1
through the grid's origin weights.  The resulting
square system is factorised once per operator by :func:`_factorise`: LU
with partial pivoting where its condition estimate stays moderate, truncated SVD
where the operator is near-singular, since exactly one near-null
direction appears at large n and small w (the discrete trace of the
continuous one-parameter solution family).  The operator depends on
(g, a, alpha, w, n) only.  Everything of it that depends on g and a alone
is kept per polynomial g, a and n (:func:`oscquad._kept.kept`) in one
``_physical_table`` entry, read at x = a t: g(a t)/a at the interior
nodes, g'(a t) at all nodes and the complex matrix without its alpha and
w terms, g D in the interior block and zeros elsewhere, and for the node
data t over g(a t)/a at the interior nodes and g'(0); at n = 32 that is
256 + 264 + 17424 + 256 = 18200 bytes.  A call copies the matrix and
writes the real (1+alpha) g' and imaginary w a g', w a g g' terms into
it, and places the values of both amplitudes at all nodes, origin first,
which is the order of the unknowns
(:func:`oscquad.problem._node_values`): the origin limits
g'(0)^-alpha and log c - log g'(0) at index 0, and (x/g)^alpha and
log(c x/g) from the table's t/g, which is x/g, and g at the others,
with no mask.  The log kind's q1 g' is q1 extended to the origin by the
origin weights times g', and q1(1) is q1's last entry.  Beyond the table
a warm call evaluates g only at g(a) and g'(a), each a Horner sum in
Python floats.

The successive-approximation iterates of the underlying existence proof are
implemented in :func:`picard_iterate`; they converge to the collocation
solution at the rate O(w^{-k-1}) and serve as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from ._kept import kept
from ._result import Method, QuadratureResult, check_counts
from .boundary import levin_value
from .cheb import ChebGrid, GridFamily, _radau_grid, radau_grid
from .errors import DegenerateSystemError, InvalidOscillatorError, ParameterError
from .problem import Oscillator, ProblemSpec, _node_values

__all__ = [
    "assemble_L",
    "tsvd_solve",
    "solve_alg",
    "solve_log",
    "picard_iterate",
    "TSVD_THRESHOLD",
    "RCOND_THRESHOLD",
]

# Relative drop tolerance of every truncated-SVD solve, on both Levin routes.
# Their conditions grow with the node count: the physical-space systems reach
# conditions near 1/TSVD_THRESHOLD by n ~ 36, and in frequency space a loose
# threshold silently discards resolved directions.  The tight tolerance keeps
# the convergence floor at round-off level instead of freezing it at a
# least-squares regularization.
TSVD_THRESHOLD = 1e-13

# zgecon reciprocal condition estimate above which :func:`_factorise` keeps
# the LU factor without taking the SVD.  Over 1320 operators of both routes
# on the built-ins (w from 1e-3 to 1e8), the 418 that truncate at
# TSVD_THRESHOLD all estimate below 1.2e-13, 80 times under this bound.
RCOND_THRESHOLD = 1e-11


@kept
def _physical_table(osc: Oscillator, a: float, n: int) -> tuple:
    # The parts of the physical operator on the Radau grid of n nodes that
    # depend on g and a alone, in t on [0, 1], x = a t, where the oscillator
    # is g(a t)/a and its slope g'(a t): g(a t)/a at the interior nodes,
    # g'(a t) at all nodes, origin first, and the operator's matrix without
    # its alpha and w terms, g D in the interior block (added to zeros, as
    # the element-wise assembly did) and zeros elsewhere; and those the
    # node data read, t over g(a t)/a at the interior nodes and g'(0) as a
    # float.  A g with g' <= 0 at a node raises, so is never kept.
    grid = _radau_grid(n)
    gx = np.asarray(osc.value(a * grid.interior), dtype=float) / a
    gp = np.asarray(osc.deriv1(a * grid.nodes), dtype=float)
    if (gp <= 0).any():
        raise InvalidOscillatorError("g' must be positive at all collocation nodes")
    base = np.zeros((n + 1, n + 1), dtype=complex)
    base[1:, 1:] += gx[:, None] * grid.diff
    return gx, gp, base, grid.interior / gx, float(osc.deriv1(0.0))


def _w_a(spec: ProblemSpec) -> float:
    if not math.isfinite(spec.w * spec.a):
        raise ParameterError(f"w a = {spec.w!r} * {spec.a!r} overflows")
    return spec.w * spec.a


def assemble_L(spec: ProblemSpec, grid: ChebGrid):
    """Collocation matrix and right-hand side on a Radau grid in t, x = a t.

    Row 0 collocates the ODE at the excluded origin,
    ``iw g'(0) c0 + (1+alpha) g'(0) (r^T q1) = f1(0)``; row i collocates at
    the interior node x_i.  Unknown ordering is (c0, q1(x_1), ..., q1(x_n)).

    Returns
    -------
    L : ndarray, shape (n+1, n+1)
    rhs : ndarray, shape (n+1,)
    """
    if grid.family is not GridFamily.RADAU_MODIFIED:
        raise ParameterError("physical-space solver requires a Radau grid")
    L, (f1, *_) = _physical_operator(spec, 1.0, grid.n)[:2]
    return L, np.asarray(f1, dtype=complex)


def tsvd_solve(L: np.ndarray, rhs: np.ndarray):
    """Solve ``L x = rhs`` on the factor a Levin call takes of ``L``.

    LU with partial pivoting where the factor is finite and nonsingular,
    unless its reciprocal condition estimate is at most ``RCOND_THRESHOLD``
    and the SVD drops singular values below ``TSVD_THRESHOLD * s_max``:
    there the minimum-norm solution over the kept singular directions.
    Where the SVD would drop nothing, the refined LU solve is the more
    accurate of the two.

    Returns
    -------
    x : ndarray
    diagnostics : dict
        ``residual_norm``, the largest entry of ``L x - rhs`` in modulus,
        and the factor's ``factor`` (``"lu"`` or ``"tsvd"``), ``cond``
        (1/rcond of LAPACK zgecon on the LU factor, taken on both paths)
        and ``tsvd_truncated`` (dropped singular directions, 0 on the LU
        path).

    Raises
    ------
    ParameterError
        If ``L`` is not a square matrix or ``rhs`` not a vector of its
        size.
    DegenerateSystemError
        If the SVD is needed and every singular value falls below the
        threshold, or it does not converge (as for a matrix with
        non-finite entries).
    """
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ParameterError(f"the Levin factorisation expects a square matrix, got shape {L.shape}")
    if np.shape(rhs) != L.shape[:1]:
        raise ParameterError(f"rhs must be a vector of {L.shape[0]} entries, got shape {np.shape(rhs)}")
    fact, keys = _factorise(L)
    x, residual, _ = _solution(L, fact, rhs, None)
    return x, {"residual_norm": residual, **keys}


def _tsvd(L: np.ndarray) -> tuple:
    # The SVD L = U diag(S) Vh and the mask ``keep`` of its singular values
    # from TSVD_THRESHOLD * s_max up, as (U, S, Vh, keep).
    try:
        U, S, Vh = np.linalg.svd(L)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(f"SVD of the collocation system failed: {exc}") from exc
    keep = S >= TSVD_THRESHOLD * S[0]
    if S[0] == 0.0 or not keep.any():
        raise DegenerateSystemError("all singular values below TSVD threshold")
    return U, S, Vh, keep


def _factorise(L: np.ndarray) -> tuple:
    # The factor of tsvd_solve as ((lu, piv, svd), keys): zgetrf's factor
    # and pivots, the _tsvd where the truncated SVD solves and None where
    # LU does, and the factor's diagnostics, the one place they are formed.
    lu, piv, info = zgetrf(L)
    # zgecon's estimate of the 1-norm reciprocal condition; 0 for an exactly
    # singular factor.
    rcond = zgecon(lu, np.abs(L).sum(axis=0).max())[0] if info == 0 else 0.0
    lu_ok = info == 0 and np.isfinite(lu).all()
    if lu_ok and rcond > RCOND_THRESHOLD:
        return (lu, piv, None), {"factor": "lu", "cond": 1.0 / rcond, "tsvd_truncated": 0}
    svd = _tsvd(L)
    cond = 1.0 / rcond if rcond > 0 else np.inf
    dropped = int((~svd[3]).sum())
    if lu_ok and not dropped:
        return (lu, piv, None), {"factor": "lu", "cond": cond, "tsvd_truncated": 0}
    return (lu, piv, svd), {"factor": "tsvd", "cond": cond, "tsvd_truncated": dropped}


def _solve(L: np.ndarray, fact: tuple, rhs: np.ndarray) -> np.ndarray:
    # L x = rhs on the factor ``fact`` of _factorise: the minimum-norm
    # solution over the truncated SVD's kept directions, or zgetrs and one
    # step of iterative refinement on its residual.
    lu, piv, svd = fact
    if svd is not None:
        U, S, Vh, keep = svd
        return Vh.conj().T[:, keep] @ ((U.conj().T @ rhs)[keep] / S[keep])
    x = zgetrs(lu, piv, rhs)[0]
    return x + zgetrs(lu, piv, rhs - L @ x)[0]


def _physical_operator(spec: ProblemSpec, c: float, n: int, s: int = 0) -> tuple:
    # The route's part of a Levin call (see _quad_levin) on the Radau grid
    # of n nodes, for ``spec`` on [0, a] read at x = a t, as arrays: the
    # matrix of assemble_L; the node data of
    # problem._regularised(spec, c, a=spec.a), values at grid.nodes, origin
    # first, the order of the rows and of the unknowns, placed from the
    # kept table (problem._node_values); no row scale; g' at all nodes
    # beside the origin weights, so that q1 g' is q1, extended to the
    # origin, times g'; and the end rows: None, as q1(1) is the last
    # unknown, q1'(1) the last row of the differentiation matrix applied to
    # q1, and the index of the value at t = 1.  The endpoint order s of a
    # route's signature is not read: the physical route is derivative-free.
    # The matrix is a copy of the table's with the alpha and w terms written
    # into row 0, column 0 and the diagonal, real and imaginary parts apart.
    # Each part is what the complex element-wise assembly rounds it to (its
    # other terms are exact zeros), so the bits are the same.  On [0, a]
    # the frequency is w a.
    grid = radau_grid(n)
    gx, gp, base, ratio, gp0 = _physical_table(spec.oscillator, spec.a, grid.n)
    alpha, w = spec.alpha, _w_a(spec)
    L = base.copy()
    L.real[0, 1:] = (1.0 + alpha) * gp[0] * grid.origin_weights
    L.imag[:, 0] = w * gp
    diag = L.reshape(-1)[gx.size + 2 :: gx.size + 2]
    diag.real += (1.0 + alpha) * gp[1:]
    diag.imag += w * gx * gp[1:]
    data = _node_values(spec, c, grid.nodes, gx, ratio, gp0)
    return L, data, None, (gp, grid.origin_weights), (None, grid.diff[-1], -1)


def _solution(L: np.ndarray, fact: tuple, values: np.ndarray, scale) -> tuple:
    # The solve on ``fact`` for node data ``values`` as (x, residual,
    # values): the right-hand side is the values, divided by the row scale
    # ``scale`` unless it is None, and the residual the max of |L x - b|
    # over all rows of the system as factorised.
    b = np.asarray(values, dtype=complex) if scale is None else values / scale
    x = _solve(L, fact, b)
    return x, float(np.abs(L @ x - b).max()), values


def _solves(L: np.ndarray, fact: tuple, data: list, scale, gprime) -> list:
    # The solves on ``fact``, the _factorise of L, as [(x, residual,
    # values)] for the node data of problem._regularised's f1 and, for the
    # logarithmic kind, of f21 - q1 g', from ``data``, the node data of f1
    # and f21.  ``gprime`` is a route's (matrix, None), q1 g' = matrix q1
    # at its conditions, or (g' at the nodes, origin weights), q1 g' = q1
    # extended to the origin times g'.
    f1, *f21 = data
    sols = [_solution(L, fact, f1, scale)]
    rows, origin = gprime
    for values in f21:
        q1 = sols[0][0][1:]
        q1_gprime = rows.dot(q1) if origin is None else np.concatenate(([np.dot(origin, q1)], q1)) * rows
        sols.append(_solution(L, fact, values - q1_gprime, scale))
    return sols


def _problem_solves(L: np.ndarray, data: list, scale, gprime, a: float) -> list:
    # The (c0, q1, diagnostics) of each of the _solves on one _factorise of
    # L, c0 scaled back by a as _quad_levin scales it.
    fact, keys = _factorise(L)
    return [(complex(x[0]) * a, x[1:], {"residual_norm": residual, **keys})
            for x, residual, _ in _solves(L, fact, data, scale, gprime)]


def _quad_levin(spec: ProblemSpec, route, method: Method, n: int, s: int) -> QuadratureResult:
    # The Levin rule of either route, in one pass from operator to value.
    # ``route(spec, c, n, s)`` gives, for ``spec`` read at x = a t on [0, 1]
    # and the amplitudes of problem._regularised(spec, c, a=spec.a), the
    # arrays (L, data, scale, gprime, end rows): the matrix, the node data
    # of the amplitudes, the row scale of the right-hand sides (None for
    # none), the g' data of _solves, and the rows that take q1 to q1(1)
    # (None: its last entry) and q1'(1) beside the index of the value at
    # t = 1 in node data.  The solves give the q1 of ``spec`` and its c0,
    # d0 divided by a, which are scaled back here.  Only the solve whose
    # q(a) the bracket reads has its end data formed; of the logarithmic
    # kind's first solve it reads c0 alone.  f21 carries log g(a).
    g_a = spec.g_end()
    L, data, scale, gprime, (q1_row, slope, at_end) = route(spec, g_a, n, s)
    fact, keys = _factorise(L)
    sols = _solves(L, fact, data, scale, gprime)
    diagnostics = {"residual_norm": sols[0][1], **keys}
    x, residual, values = sols[-1]
    q1, a = x[1:], spec.a
    c0, dq1, dq1_size = complex(x[0]) * a, complex(slope @ q1) / a, float(np.abs(slope) @ np.abs(q1)) / a
    first_c0 = None
    if len(sols) == 2:
        diagnostics["residual_norm_second"] = residual
        first_c0 = complex(sols[0][0][0]) * a
    q1_end = q1[-1] if q1_row is None else q1_row @ q1
    end = (c0, complex(q1_end), dq1, dq1_size, complex(values[at_end]))
    return QuadratureResult(levin_value(spec, g_a, end, first_c0), method, s, n, diagnostics)


def solve_alg(spec: ProblemSpec, n: int):
    """Solve the collocation system for the regularized amplitude f1.

    Parameters
    ----------
    spec : ProblemSpec
        Any kind; the algebraic sub-operator is also the inner engine of
        the logarithmic path.
    n : int
        Number of Radau nodes.

    Returns
    -------
    (c0, q1, diagnostics)
        The constant c0, q1 at the grid's interior nodes t (x = a t), and
        the diagnostics of :func:`tsvd_solve`; ``residual_norm`` is the
        collocation residual, origin row included.
    """
    L, data, scale, gprime, _ = _physical_operator(spec, 1.0, n)
    return _problem_solves(L, data[:1], scale, gprime, spec.a)[0]


def solve_log(spec: ProblemSpec, n: int):
    """The two solves of the logarithmic kind, on one factorised operator.

    The first solve is :func:`solve_alg` on f1.  The second uses the same
    operator with right-hand side ``f21(x) - q1(x) g'(x)`` (q1(0)
    extrapolated), where ``f21 = f log(g(a) x/g) (x/g)^alpha`` is the
    amplitude a Levin call takes (:func:`oscquad.problem._regularised`):
    by linearity the sum of the coupled solve (d0, l1) for ``-q1 g'``, the
    solve of the f1 of the algebraic-kind sub-problem of the f2 amplitude
    of :func:`problem.make_f1_f2`, and log g(a) times the first solve.  So
    :func:`oscquad.boundary.levin_value` on the two solves' end data is the
    value of ``compute``.

    Returns
    -------
    ((c0, q1, diagnostics), (d0, l1, diagnostics))
        As :func:`solve_alg`, each with its own ``residual_norm``.
    """
    L, data, scale, gprime, _ = _physical_operator(spec, spec.g_end(), n)
    return tuple(_problem_solves(L, data, scale, gprime, spec.a))


def picard_iterate(spec: ProblemSpec, grid: ChebGrid, k: int):
    """Successive approximations to (c0, q1) on a Radau grid.

    Starting from q1^[0] = 0, each step evaluates

        Phi^[k] = (f1 - g D q1^[k-1] - (1+alpha) g' q1^[k-1]) / (iw g'),
        c0^[k]  = Phi^[k](0),
        q1^[k]  = (Phi^[k] - c0^[k]) / g,

    where D is the grid's spectral differentiation and Phi(0) comes from
    collocating the recursion at the origin (q1(0) by extrapolation), on
    :func:`assemble_L`'s system in t at frequency w a; c0 comes times a.

    Parameters
    ----------
    spec : ProblemSpec
    grid : ChebGrid
        Radau family; each iterate costs smoothness, so k <= n/2.
    k : int
        Number of iterates to produce.

    Returns
    -------
    list of (complex, ndarray)
        [(c0^[1], q1^[1]), ..., (c0^[k], q1^[k])] at the interior nodes.
    """
    check_counts(k=k)
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > grid.interior.size / 2:
        raise ParameterError(f"k={k} too large for an n={grid.interior.size} grid")
    _, f1 = assemble_L(spec, grid)
    gx, gp = _physical_table(spec.oscillator, spec.a, grid.n)[:2]
    gp0, gpx = gp[0], gp[1:]
    alpha = spec.alpha
    w = _w_a(spec)
    f10, f1x = f1[0], f1[1:]
    r = grid.origin_weights
    q1 = np.zeros(gx.size, dtype=complex)
    out = []
    for _ in range(k):
        phi = (f1x - gx * (grid.diff @ q1) - (1.0 + alpha) * gpx * q1) / (1j * w * gpx)
        c0 = (f10 - (1.0 + alpha) * gp0 * complex(np.dot(r, q1))) / (1j * w * gp0)
        q1 = (phi - c0) / gx
        out.append((complex(c0) * spec.a, q1.copy()))
    return out
