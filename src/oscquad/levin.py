"""Physical-space Levin collocation for the separated model ODE.

The unknowns are the constant c0 and the non-oscillatory factor q1 of the
ansatz p = q g^alpha + h (with q = c0 (1 - e^{-iwg}) g^{-alpha}... folded
into the explicit kernel) satisfying

    iw g'(x) c0 + g(x) q1'(x) + [1 + alpha + iw g(x)] g'(x) q1(x) = f1(x).

Collocation runs on the modified Gauss-Radau nodes, which exclude the
origin; the condition at x=0 replaces q1(0) by the extrapolation
r^T q1 through the grid's origin weights; a problem with a != 1 is
refused (the rules map it onto [0, 1] first).  The resulting square
system is solved by truncated SVD, since exactly one near-null direction
appears at large n (the discrete trace of the continuous one-parameter
solution family).  The operator depends on (g, alpha, w, n) only, so the
logarithmic kind factorises it once and applies the factors to all three
of its right-hand sides (f1, -q1 g' and the regularised f2 amplitude).
Each call evaluates g and g' at the nodes once, for the operator and
every right-hand side.

The successive-approximation iterates of the underlying existence proof are
implemented in :func:`picard_iterate`; they converge to the collocation
solution at the rate O(w^{-k-1}) and serve as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb import ChebGrid, GridFamily, radau_grid
from .errors import DegenerateSystemError, InvalidOscillatorError, ParameterError
from .problem import ProblemSpec, _node_amplitudes, _sub_problem, make_f1_f2

__all__ = [
    "LevinSolution",
    "TsvdDiag",
    "TsvdFactor",
    "assemble_L",
    "tsvd_factor",
    "tsvd_solve",
    "solve_alg",
    "solve_log",
    "picard_iterate",
    "TSVD_THRESHOLD",
]

# Relative drop tolerance of every truncated-SVD solve, on both Levin routes.
# Their conditions grow with the node count: the physical-space systems reach
# conditions near 1/TSVD_THRESHOLD by n ~ 36, and in frequency space a loose
# threshold silently discards resolved directions.  The tight tolerance keeps
# the convergence floor at round-off level instead of freezing it at a
# least-squares regularization.
TSVD_THRESHOLD = 1e-13


@dataclass(frozen=True)
class TsvdDiag:
    """Diagnostics of a truncated-SVD solve."""

    smallest_sv: float
    largest_sv: float
    truncated: int


@dataclass(frozen=True)
class TsvdFactor:
    """SVD ``L = U diag(S) Vh`` of a square operator and its kept directions."""

    U: np.ndarray
    S: np.ndarray
    Vh: np.ndarray
    keep: np.ndarray

    @property
    def diag(self) -> TsvdDiag:
        S = self.S
        return TsvdDiag(smallest_sv=float(S[-1]), largest_sv=float(S[0]), truncated=int((~self.keep).sum()))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm solution over the kept singular directions."""
        keep = self.keep
        coeff = (self.U.conj().T @ rhs)[keep] / self.S[keep]
        return self.Vh.conj().T[:, keep] @ coeff


@dataclass(frozen=True)
class LevinSolution:
    """Collocation solution (c0, q1 at the grid's interior nodes).

    ``residual_norm`` is the max collocation residual
    |W[c0,q1](x_j) - f1(x_j)| over all rows including the origin row.
    ``rhs_end`` is the right-hand side at the last node, x_n = 1.
    """

    c0: complex
    q1_values: np.ndarray
    residual_norm: float
    tsvd_truncated: int
    smallest_sv: float
    grid: ChebGrid
    rhs_end: complex


def _node_data(spec: ProblemSpec, grid: ChebGrid):
    if grid.family is not GridFamily.RADAU_MODIFIED:
        raise ParameterError("physical-space solver requires a Radau grid")
    if spec.a != 1.0:
        raise ParameterError(f"the collocation solvers work on [0, 1], got a = {spec.a!r}")
    xs = grid.interior
    gx = np.asarray(spec.oscillator.value(xs), dtype=float)
    gp = np.asarray(spec.oscillator.deriv1(np.concatenate(([0.0], xs))), dtype=float)
    gp0, gpx = float(gp[0]), gp[1:]
    if gp0 <= 0 or np.any(gpx <= 0):
        raise InvalidOscillatorError("g' must be positive at all collocation nodes")
    return xs, gx, gpx, gp0


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
    nodes = _node_data(spec, grid)
    L = _operator(spec, grid, nodes)
    f1, _ = make_f1_f2(spec)
    xs, gx, _, _ = nodes
    return L, _rhs(f1, grid, _node_amplitudes(spec, xs, gx, False)[0])


def _operator(spec: ProblemSpec, grid: ChebGrid, nodes) -> np.ndarray:
    # The matrix of assemble_L, which every right-hand side shares, from
    # _node_data's values.
    xs, gx, gpx, gp0 = nodes
    n = xs.size
    alpha = spec.alpha
    w = spec.w
    L = np.zeros((n + 1, n + 1), dtype=complex)
    L[0, 0] = 1j * w * gp0
    L[0, 1:] = (1.0 + alpha) * gp0 * grid.origin_weights
    L[1:, 0] = 1j * w * gpx
    L[1:, 1:] += gx[:, None] * grid.diff
    rows = np.arange(1, n + 1)
    L[rows, rows] += (1.0 + alpha + 1j * w * gx) * gpx
    return L


def _rhs(amplitude, grid: ChebGrid, node_values) -> np.ndarray:
    # Right-hand side of an amplitude: its value at the origin row, from a
    # scalar call, and its given values at the interior nodes.
    rhs = np.empty(grid.interior.size + 1, dtype=complex)
    rhs[0] = complex(amplitude.value(0.0))
    rhs[1:] = node_values
    return rhs


def tsvd_solve(L: np.ndarray, rhs: np.ndarray):
    """Minimum-norm solve with singular values below ``TSVD_THRESHOLD * s_max`` dropped.

    :func:`tsvd_factor` followed by :meth:`TsvdFactor.solve`.

    Returns
    -------
    x : ndarray
    diag : TsvdDiag
    """
    factor = tsvd_factor(L)
    return factor.solve(rhs), factor.diag


def tsvd_factor(L: np.ndarray) -> TsvdFactor:
    """SVD of ``L``, keeping the singular values from ``TSVD_THRESHOLD * s_max`` up.

    Raises
    ------
    DegenerateSystemError
        If every singular value falls below the threshold, or the SVD does
        not converge (as for a matrix with non-finite entries).
    """
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ParameterError("tsvd_solve expects a square system")
    try:
        U, S, Vh = np.linalg.svd(L)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError(f"SVD of the collocation system failed: {exc}") from exc
    keep = S >= TSVD_THRESHOLD * S[0]
    if S[0] == 0.0 or not keep.any():
        raise DegenerateSystemError("all singular values below TSVD threshold")
    return TsvdFactor(U=U, S=S, Vh=Vh, keep=keep)


def _solution_from(L, factor: TsvdFactor, rhs, grid) -> LevinSolution:
    sol = factor.solve(rhs)
    residual = float(np.abs(L @ sol - rhs).max())
    diag = factor.diag
    return LevinSolution(
        c0=complex(sol[0]),
        q1_values=sol[1:],
        residual_norm=residual,
        tsvd_truncated=diag.truncated,
        smallest_sv=diag.smallest_sv,
        grid=grid,
        rhs_end=complex(rhs[-1]),
    )


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
    grid = radau_grid(n)
    L, rhs = assemble_L(spec, grid)
    return _solution_from(L, tsvd_factor(L), rhs, grid)


def solve_log(spec: ProblemSpec, n: int):
    """The three solves of the logarithmic kind, on one factorised operator.

    The first solve is :func:`solve_alg` on f1.  The second uses the same
    operator with right-hand side ``-q1(x) g'(x)`` (origin row:
    ``-q1(0) g'(0)`` with q1(0) extrapolated), yielding (d0, l1).  The third
    is :func:`solve_alg` on the f2 sub-problem (:func:`problem.f2_problem`),
    whose operator is the same as well.

    Returns
    -------
    (LevinSolution, LevinSolution, LevinSolution)
    """
    grid = radau_grid(n)
    nodes = _node_data(spec, grid)
    L = _operator(spec, grid, nodes)
    f1, f2 = make_f1_f2(spec)
    factor = tsvd_factor(L)
    xs, gx, gpx, gp0 = nodes
    f1x, f21x = _node_amplitudes(spec, xs, gx, True)
    first = _solution_from(L, factor, _rhs(f1, grid, f1x), grid)
    q1_origin = complex(np.dot(grid.origin_weights, first.q1_values))
    rhs2 = np.empty(xs.size + 1, dtype=complex)
    rhs2[0] = -q1_origin * gp0
    rhs2[1:] = -first.q1_values * gpx
    second = _solution_from(L, factor, rhs2, grid)
    f21, _ = make_f1_f2(_sub_problem(spec, f2))
    third = _solution_from(L, factor, _rhs(f21, grid, f21x), grid)
    return first, second, third


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
    xs, gx, gpx, gp0 = _node_data(spec, grid)
    alpha = spec.alpha
    w = spec.w
    f1, _ = make_f1_f2(spec)
    f1x = np.asarray(_node_amplitudes(spec, xs, gx, False)[0], dtype=complex)
    f10 = complex(f1.value(0.0))
    r = grid.origin_weights
    q1 = np.zeros(xs.size, dtype=complex)
    out = []
    for _ in range(k):
        phi = (f1x - gx * (grid.diff @ q1) - (1.0 + alpha) * gpx * q1) / (1j * w * gpx)
        c0 = (f10 - (1.0 + alpha) * gp0 * complex(np.dot(r, q1))) / (1j * w * gp0)
        q1 = (phi - c0) / gx
        out.append((complex(c0), q1.copy()))
    return out
