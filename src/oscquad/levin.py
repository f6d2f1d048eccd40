"""The Levin pipeline of both routes, and physical-space collocation.

Both Levin rules (:func:`_quad_levin`) map the problem onto [0, 1], build
f1 and, for the logarithmic kind, the amplitude f21 = f log(g(a) x/g)
(x/g)^alpha once (:func:`oscquad.problem._regularised`), solve for f1 and
f21 - q1 g' on one factorised operator, and read the bracket at x = a
(:func:`oscquad.boundary.levin_value`).  A route is only how it builds
its :class:`_Operator`: :func:`_physical_operator` here, or
``filon._freq_operator``.

In physical space the unknowns are the constant c0 and the
non-oscillatory factor q1 of the ansatz p = q g^alpha + h (with
q = c0 (1 - e^{-iwg}) g^{-alpha}... folded into the explicit kernel)
satisfying

    iw g'(x) c0 + g(x) q1'(x) + [1 + alpha + iw g(x)] g'(x) q1(x) = f1(x).

Collocation runs on the modified Gauss-Radau nodes, which exclude the
origin; the condition at x=0 replaces q1(0) by the extrapolation
r^T q1 through the grid's origin weights; a problem with a != 1 is
refused (the rules map it onto [0, 1] first).  The resulting square
system is factorised once per operator by :func:`factor`: LU with partial
pivoting where its condition estimate stays moderate, truncated SVD where
the operator is near-singular, since exactly one near-null direction
appears at large n and small w (the discrete trace of the continuous
one-parameter solution family).  The operator depends on (g, alpha, w, n)
only.  Everything of it that depends on g alone is kept per polynomial g and
n (:func:`oscquad._kept.kept`) in one ``_physical_table`` entry: g at the
interior nodes, g' at all nodes and the complex matrix without its alpha and
w terms, g D in the interior block and zeros elsewhere; at n = 32 that is
256 + 264 + 17424 = 17944 bytes.  A call copies the matrix and writes the
real (1+alpha) g' and imaginary w g', w g g' terms into it, and evaluates
both amplitudes together, once, at all nodes, origin first, which is the
order of the unknowns, with g at the nodes from the table.  Beyond the
table a warm call evaluates g only at g(a), g'(a) and g'(0), each a Horner
sum in Python floats.

The successive-approximation iterates of the underlying existence proof are
implemented in :func:`picard_iterate`; they converge to the collocation
solution at the rate O(w^{-k-1}) and serve as an independent cross-check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from ._kept import kept
from ._result import Method, QuadratureResult
from .boundary import EndData, levin_value
from .cheb import ChebGrid, GridFamily, _radau_grid, radau_grid
from .errors import DegenerateSystemError, InvalidOscillatorError, ParameterError
from .problem import Oscillator, ProblemSpec, _regularised, _Separated, _unit_interval

__all__ = [
    "LevinSolution",
    "FactorDiag",
    "TsvdFactor",
    "assemble_L",
    "factor",
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

# zgecon reciprocal condition estimate above which :func:`factor` keeps the
# LU factor without taking the SVD.  Over 1320 operators of both routes on
# the built-ins (w from 1e-3 to 1e8), the 418 that truncate at
# TSVD_THRESHOLD all estimate below 1.2e-13, 80 times under this bound.
RCOND_THRESHOLD = 1e-11


@dataclass(frozen=True)
class FactorDiag:
    """Diagnostics of a factorised operator: ``factor`` is ``"lu"`` or
    ``"tsvd"``, ``cond`` the 1-norm condition estimate 1/rcond of LAPACK
    zgecon on the LU factor (taken on both paths), ``truncated`` the
    number of dropped singular directions (0 on the LU path)."""

    factor: str
    cond: float
    truncated: int

    def diagnostics(self) -> dict:
        """The factor's keys in the diagnostics of a Levin result."""
        return {"factor": self.factor, "cond": self.cond, "tsvd_truncated": self.truncated}


@dataclass(frozen=True)
class _LuFactor:
    """LU factor with partial pivoting (zgetrf) of a square operator ``L``,
    and its diagnostics."""

    L: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    diag: FactorDiag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """zgetrs, then one step of iterative refinement on its residual."""
        x = zgetrs(self.lu, self.piv, rhs)[0]
        return x + zgetrs(self.lu, self.piv, rhs - self.L @ x)[0]


@dataclass(frozen=True)
class TsvdFactor:
    """SVD ``L = U diag(S) Vh`` of a square operator and its kept directions."""

    U: np.ndarray
    S: np.ndarray
    Vh: np.ndarray
    keep: np.ndarray
    cond: float

    @property
    def diag(self) -> FactorDiag:
        return FactorDiag("tsvd", self.cond, int((~self.keep).sum()))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm solution over the kept singular directions."""
        keep = self.keep
        coeff = (self.U.conj().T @ rhs)[keep] / self.S[keep]
        return self.Vh.conj().T[:, keep] @ coeff


@dataclass(frozen=True)
class LevinSolution:
    """One Levin solve on either route: the constant c0 and the unknowns of q1.

    ``q1`` holds q1 at the Radau grid's interior nodes on the physical
    route and its coefficients in T_k(2t - 1) on the frequency route.
    ``residual_norm`` is the max residual |L x - b| over all rows of the
    system as factorised: the collocation residual, origin row included,
    on the physical route, that of the row-equilibrated system on the
    frequency route.  ``diag`` describes the factor, ``rhs_end`` is the
    right-hand side at t = 1.
    """

    c0: complex
    q1: np.ndarray
    residual_norm: float
    diag: FactorDiag
    rhs_end: complex


@kept
def _physical_table(osc: Oscillator, n: int) -> tuple:
    # The parts of the physical operator on the Radau grid of n nodes that
    # depend on g alone: g at the interior nodes, g' at all nodes, origin
    # first, and the operator's matrix without its alpha and w terms, g D in
    # the interior block (added to zeros, as the element-wise assembly did)
    # and zeros elsewhere.  A g with g' <= 0 at a node raises, so is never
    # kept.
    grid = _radau_grid(n)
    gx = np.asarray(osc.value(grid.interior), dtype=float)
    gp = np.asarray(osc.deriv1(grid.nodes), dtype=float)
    if np.any(gp <= 0):
        raise InvalidOscillatorError("g' must be positive at all collocation nodes")
    base = np.zeros((n + 1, n + 1), dtype=complex)
    base[1:, 1:] += gx[:, None] * grid.diff
    return gx, gp, base


def _node_data(spec: ProblemSpec, grid: ChebGrid):
    # The _physical_table of spec's g on the Radau grid ``grid``.
    if grid.family is not GridFamily.RADAU_MODIFIED:
        raise ParameterError("physical-space solver requires a Radau grid")
    if spec.a != 1.0:
        raise ParameterError(f"the collocation solvers work on [0, 1], got a = {spec.a!r}")
    return _physical_table(spec.oscillator, grid.n)


def assemble_L(spec: ProblemSpec, grid: ChebGrid):
    """Collocation matrix and right-hand side on a Radau grid.

    Row 0 collocates the ODE at the excluded origin,
    ``iw g'(0) c0 + (1+alpha) g'(0) (r^T q1) = f1(0)``; row i collocates at
    the interior node x_i.  Unknown ordering is (c0, q1(x_1), ..., q1(x_n)).

    Returns
    -------
    L : ndarray, shape (n+1, n+1)
    rhs : ndarray, shape (n+1,)
    """
    L, _ = _operator(spec, grid)
    return L, np.asarray(_regularised(spec).f1.value(grid.nodes), dtype=complex)


def _operator(spec: ProblemSpec, grid: ChebGrid):
    # The matrix of assemble_L, which every right-hand side shares, and the
    # _physical_table it is written from: a copy of the table's matrix with
    # the alpha and w terms written into row 0, column 0 and the diagonal,
    # real and imaginary parts apart.  Each part is what the complex
    # element-wise assembly rounds it to (its other terms are exact zeros),
    # so the bits are the same.
    table = _node_data(spec, grid)
    gx, gp, base = table
    alpha, w = spec.alpha, spec.w
    L = base.copy()
    L.real[0, 1:] = (1.0 + alpha) * gp[0] * grid.origin_weights
    L.imag[:, 0] = w * gp
    diag = L.reshape(-1)[gx.size + 2 :: gx.size + 2]
    diag.real += (1.0 + alpha) * gp[1:]
    diag.imag += w * gx * gp[1:]
    return L, table


def tsvd_solve(L: np.ndarray, rhs: np.ndarray):
    """Solve with singular values below ``TSVD_THRESHOLD * s_max`` dropped.

    :func:`factor` followed by its ``solve``: the minimum-norm truncated-SVD
    solution where ``L`` is near-singular, the LU solution elsewhere.

    Returns
    -------
    x : ndarray
    diag : FactorDiag
    """
    f = factor(L)
    return f.solve(rhs), f.diag


def _tsvd(L: np.ndarray, rcond: float) -> TsvdFactor:
    try:
        U, S, Vh = np.linalg.svd(L)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(f"SVD of the collocation system failed: {exc}") from exc
    keep = S >= TSVD_THRESHOLD * S[0]
    if S[0] == 0.0 or not keep.any():
        raise DegenerateSystemError("all singular values below TSVD threshold")
    return TsvdFactor(U=U, S=S, Vh=Vh, keep=keep, cond=1.0 / rcond if rcond > 0 else np.inf)


def factor(L: np.ndarray):
    """The factor of ``L`` that every right-hand side sharing it is solved against.

    LU with partial pivoting where the factor is finite and nonsingular,
    unless its reciprocal condition estimate is at most ``RCOND_THRESHOLD``
    and the SVD drops singular values below ``TSVD_THRESHOLD * s_max``:
    there the truncated SVD.  Where the SVD would drop nothing, the refined
    LU solve is the more accurate of the two.  Either has ``solve(rhs)`` and
    ``diag`` (:class:`FactorDiag`).

    Raises
    ------
    DegenerateSystemError
        If the SVD is needed and every singular value falls below the
        threshold, or it does not converge (as for a matrix with
        non-finite entries).
    """
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ParameterError("the Levin factorisation expects a square system")
    lu, piv, info = zgetrf(L)
    # zgecon's estimate of the 1-norm reciprocal condition; 0 for an exactly
    # singular factor.
    rcond = zgecon(lu, np.abs(L).sum(axis=0).max())[0] if info == 0 else 0.0
    lu_ok = info == 0 and np.isfinite(lu).all()
    if lu_ok and rcond > RCOND_THRESHOLD:
        return _LuFactor(L, lu, piv, FactorDiag("lu", 1.0 / rcond, 0))
    svd = _tsvd(L, rcond)
    if lu_ok and svd.keep.all():
        return _LuFactor(L, lu, piv, FactorDiag("lu", svd.cond, 0))
    return svd


@dataclass(frozen=True)
class _Operator:
    """The factorised collocation operator of a Levin route.

    ``L`` is the matrix as factorised and ``factor`` its :func:`factor`;
    every right-hand side that shares them is solved against ``factor``.
    The rest is what tells the routes apart.  Node data ``data[l, j]`` is
    the j-th Taylor coefficient of a right-hand side at node l (j = 0
    only, its values, on the physical route): ``node_data(amplitudes)`` is
    the list of those of the amplitudes of a :class:`_Separated`, formed
    together, ``q1_gprime(q1)`` that of q1 g' for the ``q1`` of a solution,
    and ``rhs(data)`` the right-hand side it gives.  The two rows of
    ``end_rows`` take q1 to q1(1) and q1'(1).
    """

    L: np.ndarray
    factor: _LuFactor | TsvdFactor
    node_data: Callable[[_Separated], list]
    q1_gprime: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[[np.ndarray], np.ndarray]
    end_rows: tuple[np.ndarray, np.ndarray]

    def solve(self, data: np.ndarray) -> LevinSolution:
        """The solve with the right-hand side of node data ``data``."""
        rhs = self.rhs(data)
        x = self.factor.solve(rhs)
        residual = float(np.abs(self.L @ x - rhs).max())
        return LevinSolution(complex(x[0]), x[1:], residual, self.factor.diag, complex(data[-1, 0]))

    def end(self, sol: LevinSolution, a: float) -> EndData:
        """The data of ``sol`` at t = 1, as the data at x = a of the problem
        on [0, a] that x = a t maps onto [0, 1]: its c0 times a and its
        q1'(1) divided by a."""
        q1 = sol.q1
        value, slope = self.end_rows
        c0, dq1, dq1_size = sol.c0, complex(slope @ q1), float(np.abs(slope) @ np.abs(q1))
        if a != 1.0:
            c0, dq1, dq1_size = c0 * a, dq1 / a, dq1_size / a
        return EndData(c0, complex(value @ q1), dq1, dq1_size, sol.rhs_end)


def _physical_operator(spec: ProblemSpec, n: int) -> _Operator:
    # The matrix of assemble_L on the Radau grid of n nodes.  Node data are
    # values at grid.nodes, origin first, the order of the rows and of the
    # unknowns, formed with g at the interior nodes from the kept table;
    # q1(1) is the last unknown, q1'(1) the last row of the differentiation
    # matrix applied to q1.
    grid = radau_grid(n)
    L, (gx, gprime, _) = _operator(spec, grid)
    nodes, origin = grid.nodes, grid.origin_weights
    last = np.zeros(n)
    last[-1] = 1.0

    def q1_gprime(q1):
        # q1(0) extrapolated through the origin weights.
        return (np.concatenate(([complex(np.dot(origin, q1))], q1)) * gprime)[:, None]

    def node_data(amplitudes):
        return [np.asarray(values, dtype=complex)[:, None] for values in amplitudes.at(nodes, 0, g=gx)]

    return _Operator(L, factor(L), node_data, q1_gprime, lambda data: data[:, 0], (last, grid.diff[-1]))


def _solves(op: _Operator, amplitudes: _Separated) -> list:
    # The solves on ``op`` for problem._regularised's f1 and, for the
    # logarithmic kind, f21 - q1 g'.
    f1, *f21 = op.node_data(amplitudes)
    sols = [op.solve(f1)]
    for data in f21:
        sols.append(op.solve(data - op.q1_gprime(sols[0].q1)))
    return sols


def _quad_levin(spec: ProblemSpec, operator, method: Method, n: int, s: int) -> QuadratureResult:
    # The Levin rule of either route.  ``operator`` maps ``spec`` on [0, 1]
    # to the route's _Operator; its solves give the q1 of ``spec`` and its
    # c0, d0 divided by a, which _Operator.end scales back.  f21 carries
    # log g(a) of ``spec``.
    unit = _unit_interval(spec)
    op = operator(unit)
    g_a = spec.g_end()
    sols = _solves(op, _regularised(unit, g_a))
    ends = [op.end(sol, spec.a) for sol in sols]
    diagnostics = {"residual_norm": sols[0].residual_norm, **op.factor.diag.diagnostics()}
    if len(sols) == 2:
        diagnostics["residual_norm_second"] = sols[1].residual_norm
    return QuadratureResult(levin_value(spec, g_a, *ends), method, s, n, diagnostics)


def _quad_physical(spec: ProblemSpec, n: int) -> QuadratureResult:
    # The s = 0 rule of either kind.
    return _quad_levin(spec, lambda unit: _physical_operator(unit, n), Method.LEVIN_PHYSICAL, n, 0)


def solve_alg(spec: ProblemSpec, n: int) -> LevinSolution:
    """Solve the collocation system for the regularized amplitude f1.

    Parameters
    ----------
    spec : ProblemSpec
        Any kind; the algebraic sub-operator is also the inner engine of
        the logarithmic path.
    n : int
        Number of Radau nodes.
    """
    op = _physical_operator(spec, n)
    return op.solve(op.node_data(_regularised(spec))[0])


def solve_log(spec: ProblemSpec, n: int):
    """The two solves of the logarithmic kind, on one factorised operator.

    The first solve is :func:`solve_alg` on f1.  The second uses the same
    operator with right-hand side ``f21(x) - q1(x) g'(x)`` (q1(0)
    extrapolated), f21 being the f1 of the algebraic-kind sub-problem of
    the f2 amplitude of :func:`problem.make_f1_f2`: by linearity the sum
    of the coupled solve (d0, l1) for ``-q1 g'`` and that sub-problem's
    solve.

    Returns
    -------
    (LevinSolution, LevinSolution)
    """
    return tuple(_solves(_physical_operator(spec, n), _regularised(spec)))


def picard_iterate(spec: ProblemSpec, grid: ChebGrid, k: int):
    """Successive approximations to (c0, q1) on a Radau grid.

    Starting from q1^[0] = 0, each step evaluates

        Phi^[k] = (f1 - g D q1^[k-1] - (1+alpha) g' q1^[k-1]) / (iw g'),
        c0^[k]  = Phi^[k](0),
        q1^[k]  = (Phi^[k] - c0^[k]) / g,

    where D is the grid's spectral differentiation and Phi(0) comes from
    collocating the recursion at the origin (q1(0) by extrapolation).

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
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > grid.interior.size / 2:
        raise ParameterError(f"k={k} too large for an n={grid.interior.size} grid")
    gx, gp, _ = _node_data(spec, grid)
    gp0, gpx = gp[0], gp[1:]
    alpha = spec.alpha
    w = spec.w
    f1 = np.asarray(_regularised(spec).f1.value(grid.nodes), dtype=complex)
    f10, f1x = f1[0], f1[1:]
    r = grid.origin_weights
    q1 = np.zeros(gx.size, dtype=complex)
    out = []
    for _ in range(k):
        phi = (f1x - gx * (grid.diff @ q1) - (1.0 + alpha) * gpx * q1) / (1j * w * gpx)
        c0 = (f10 - (1.0 + alpha) * gp0 * complex(np.dot(r, q1))) / (1j * w * gp0)
        q1 = (phi - c0) / gx
        out.append((complex(c0), q1.copy()))
    return out
