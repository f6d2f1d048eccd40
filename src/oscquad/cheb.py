"""Chebyshev collocation grids on [0, 1].

Two families are provided.  The modified Gauss-Radau family places ``n``
nodes in (0, 1] with ``x_n = 1`` and the origin deliberately excluded; the
physical-space Levin solver differentiates on these nodes and reaches the
origin through extrapolation weights.  The modified Lobatto family includes
both endpoints and serves the frequency-space (Hermite) collocation methods.

The differentiation matrix is built barycentrically in the physical
variable, which sidesteps the orientation and sign ambiguities of mapping a
reference-variable matrix.  A closed-form reference-variable matrix and the
closed-form origin-extrapolation weights are implemented as well; the tests
check the barycentric construction against them.

The collocation routes work in t on [0, 1], reading a problem on [0, a]
at x = a t, so a grid depends on n only: :func:`radau_grid` and
:func:`lobatto_grid` validate n and return the grid kept for ``int(n)``
by :func:`oscquad._kept.kept`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kept import kept
from ._result import check_counts
from .errors import ParameterError

__all__ = [
    "GridFamily",
    "ChebGrid",
    "barycentric_weights",
    "barycentric_diff",
    "barycentric_eval",
    "radau_reference_nodes",
    "radau_reference_diff",
    "radau_origin_weights_closed",
    "radau_grid",
    "lobatto_grid",
]

class GridFamily(Enum):
    RADAU_MODIFIED = "radau-modified"
    LOBATTO_MODIFIED = "lobatto-modified"


@dataclass(frozen=True)
class ChebGrid:
    """Immutable collocation grid.

    Attributes
    ----------
    family : GridFamily
    n : int
        Family parameter: number of Radau nodes, or Lobatto index (node
        count minus one).
    nodes : ndarray
        Full ascending node set starting at 0.
    interior : ndarray
        Nodes the differentiation matrix acts on (excludes 0 for Radau).
    diff : ndarray
        Dense first-derivative matrix on ``interior``.
    origin_weights : ndarray or None
        Extrapolation-to-zero weights on ``interior`` (Radau only).
    bary_full : ndarray
        Barycentric weights of ``nodes`` for interpolant evaluation.
    """

    family: GridFamily
    n: int
    nodes: np.ndarray
    interior: np.ndarray
    diff: np.ndarray
    origin_weights: np.ndarray | None
    bary_full: np.ndarray


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights of distinct nodes, scaled for overflow safety."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ParameterError("need at least two nodes")
    scale = (x.max() - x.min()) / 4.0
    off = ~np.eye(n, dtype=bool)
    return 1.0 / np.prod(((x[:, None] - x[None, :]) / scale)[off].reshape(n, n - 1), axis=1)


def barycentric_diff(x: np.ndarray) -> np.ndarray:
    """First-derivative collocation matrix on arbitrary distinct nodes.

    Off-diagonal entries follow the barycentric formula; diagonals use the
    negative-sum trick so every row annihilates constants exactly.
    """
    x = np.asarray(x, dtype=float)
    lam = barycentric_weights(x)
    D = (lam[None, :] / lam[:, None]) / _pairwise_differences(x)
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _pairwise_differences(x: np.ndarray) -> np.ndarray:
    # x_i - x_j, with ones on the diagonal so that dividing by it is safe.
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    return dx


def barycentric_eval(grid: ChebGrid, values, x: float) -> complex:
    """Evaluate the interpolating polynomial through ``grid.nodes``.

    Parameters
    ----------
    grid : ChebGrid
    values : array_like
        Function values at ``grid.nodes`` (same length).
    x : float
        Query point in [0, 1].

    Returns
    -------
    complex
    """
    values = np.asarray(values)
    if values.shape != grid.nodes.shape:
        raise ParameterError("values length must match node count")
    diff = x - grid.nodes
    exact = np.nonzero(diff == 0.0)[0]
    if exact.size:
        return complex(values[exact[0]])
    weights = grid.bary_full / diff
    return complex(np.dot(weights, values) / weights.sum())


def radau_reference_nodes(n: int) -> np.ndarray:
    """Reference Radau nodes t_j = -cos(2 j pi / (2n-1)), j=0..n-1."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    j = np.arange(n)
    t = -np.cos(2.0 * j * np.pi / (2 * n - 1))
    t[0] = -1.0
    return t


def _cheb_t(k: int, t: np.ndarray) -> np.ndarray:
    return np.cos(k * np.arccos(np.clip(t, -1.0, 1.0)))


def _cheb_t_deriv(k: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    inner = np.abs(t) < 1.0
    theta = np.arccos(t[inner])
    out[inner] = k * np.sin(k * theta) / np.sin(theta)
    out[~inner] = np.where(t[~inner] >= 1.0, float(k * k), (-1.0) ** (k + 1) * k * k)
    return out


def radau_reference_diff(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form differentiation matrix in the reference variable t.

    Returns the Radau reference nodes and the matrix whose (k,j) entry
    differentiates the interpolant of the node basis, with the corner value
    -n(n-1)/3 and diagonal/off-diagonal entries expressed through the
    Chebyshev combination Q(t) = T_n(t) + T_{n-1}(t).
    """
    t = radau_reference_nodes(n)
    qp = _cheb_t_deriv(n, t) + _cheb_t_deriv(n - 1, t)
    D = qp[:, None] / qp[None, :] / _pairwise_differences(t)
    k = np.arange(1, n)
    den = 2.0 * (1.0 - t[k] ** 2)
    D[0, 0] = -n * (n - 1) / 3.0
    D[k, k] = t[k] / den + (2 * n - 1) * _cheb_t(n - 1, t[k]) / (den * qp[k])
    return t, D


def radau_origin_weights_closed(n: int) -> np.ndarray:
    """Closed-form extrapolation-to-origin weights on ascending Radau nodes.

    Weight of the largest node x_n is cos((n-1)pi)/(2n-1); the weight of
    x_{n-j} is (2/(2n-1)) cos((n-1-j)pi) sec(j pi/(2n-1)) for j=1..n-1.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    r = np.zeros(n)
    r[n - 1] = math.cos((n - 1) * math.pi) / (2 * n - 1)
    for j in range(1, n):
        r[n - 1 - j] = (
            (2.0 / (2 * n - 1))
            * math.cos((n - 1 - j) * math.pi)
            / math.cos(j * math.pi / (2 * n - 1))
        )
    return r


def _grid_key(n) -> int:
    # Checked before the memo's lookup: hash(8.0) == hash(8), so an unchecked
    # 8.0 would be handed the n=8 grid.
    check_counts(n=n)
    if n < 2:
        raise ParameterError("n must be at least 2")
    return int(n)


def radau_grid(n: int) -> ChebGrid:
    """Modified Chebyshev-Gauss-Radau grid on [0, 1] with the origin excluded.

    Parameters
    ----------
    n : int
        Number of Radau nodes, at least 2.

    Returns
    -------
    ChebGrid
        ``nodes`` = {0} followed by the ascending mapped Radau points (the
        largest equals 1); ``diff`` acts on the mapped points;
        ``origin_weights`` extrapolate values there to x=0.  The grid is
        kept per n and its arrays are read-only.

    Raises
    ------
    ParameterError
        If n is not an integer of at least 2.
    """
    return _radau_grid(_grid_key(n))


@kept
def _radau_grid(n: int) -> ChebGrid:
    t = radau_reference_nodes(n)
    xs = (1.0 - t[::-1]) / 2.0
    D = barycentric_diff(xs)
    lam = barycentric_weights(xs)
    mu = lam / (0.0 - xs)
    r = mu / mu.sum()
    nodes = np.concatenate(([0.0], xs))
    return ChebGrid(GridFamily.RADAU_MODIFIED, n, nodes, xs, D, r, barycentric_weights(nodes))


def lobatto_grid(n: int) -> ChebGrid:
    """Modified Chebyshev-Lobatto grid on [0, 1] with both endpoints included.

    The grid is kept per n and its arrays are read-only.

    Parameters
    ----------
    n : int
        Lobatto index; the grid has ``n+1`` nodes (1-cos(j pi/n))/2.
    """
    return _lobatto_grid(_grid_key(n))


@kept
def _lobatto_grid(n: int) -> ChebGrid:
    j = np.arange(n + 1)
    nodes = (1.0 - np.cos(j * np.pi / n)) / 2.0
    nodes[0] = 0.0
    nodes[-1] = 1.0
    D = barycentric_diff(nodes)
    return ChebGrid(GridFamily.LOBATTO_MODIFIED, n, nodes, nodes, D, None, barycentric_weights(nodes))
