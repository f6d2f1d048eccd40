"""Truncated power (Taylor) series arithmetic.

A series is an array ``p`` whose last axis, of length ``m``, holds the
coefficients of ``sum_k p[..., k] * (x - x0)**k`` with all terms of order
``m`` and higher discarded.  Leading axes are a batch, typically one series
per collocation node: every helper loops over the short series index only,
and each update covers the whole batch.  Every smooth quantity the
collocation methods need (regularized amplitudes, oscillator powers, basis
function images under the Levin operator) is assembled from these
primitives, so derivative values come out to machine precision instead of
finite-difference accuracy.

All helpers return arrays of the broadcast shape of their inputs and promote
to complex when any input is complex.  An ndarray with at least one axis is
used as it is; lists, scalars and 0-d arrays become arrays of at least one
axis first, and batch shapes are broadcast only where they differ, so the
collocation routes, which pass equal-shape arrays, pay for neither.  Each
batch row comes out bit for bit as it would alone: products are summed by
BLAS dot products (through ``matmul`` on stacked vectors) and powers by
libm, the same routines a single series uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "ps_mul",
    "ps_div",
    "ps_pow",
    "ps_log",
    "poly_taylor",
]


def _as_series(p) -> np.ndarray:
    # An ndarray with an axis is what np.atleast_1d(np.asarray(p)) returns
    # for it, so it passes as itself.
    arr = p if type(p) is np.ndarray and p.ndim else np.atleast_1d(np.asarray(p))
    if arr.shape[-1] == 0:
        raise ParameterError("series must be non-empty")
    return arr


def _pair(a, b):
    # Both series and a zeroed result of their broadcast shape and type.
    a = _as_series(a)
    b = _as_series(b)
    if a.shape[-1] != b.shape[-1]:
        raise ParameterError("series lengths must match")
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    return a, b, np.zeros(shape, dtype=np.result_type(a, b, float))


def _positive_head(a: np.ndarray, name: str) -> None:
    head = a[..., 0]
    if not np.all((head.real > 0) & (head.imag == 0)):
        raise ParameterError(f"{name} requires a positive real constant term")


def ps_mul(a, b) -> np.ndarray:
    """Product of two truncated series (Cauchy convolution).

    Parameters
    ----------
    a, b : array_like
        Coefficient arrays whose last axes have equal length ``m``; leading
        axes broadcast.

    Returns
    -------
    ndarray
        Coefficients of ``a * b`` truncated to length ``m``.
    """
    a, b, out = _pair(a, b)
    m = out.shape[-1]
    rev = np.ascontiguousarray(b[..., ::-1])
    for n in range(m):
        # Row by row a[..., :n+1] . b[..., n::-1]; matmul hands contiguous
        # stacked vectors to BLAS dot, as np.dot does for one series.
        out[..., n] = np.matmul(a[..., None, : n + 1], rev[..., m - 1 - n :, None])[..., 0, 0]
    return out


def ps_div(a, b) -> np.ndarray:
    """Quotient ``a / b`` of truncated series; requires ``b[..., 0] != 0``."""
    a, b, out = _pair(a, b)
    if np.any(b[..., 0] == 0):
        raise ParameterError("division by a series with zero constant term")
    for n in range(out.shape[-1]):
        acc = a[..., n]
        for k in range(n):
            acc = acc - out[..., k] * b[..., n - k]
        out[..., n] = acc / b[..., 0]
    return out


def ps_pow(a, alpha: float) -> np.ndarray:
    """Real power ``a**alpha`` of a truncated series.

    Uses the standard recurrence obtained from ``(a**alpha)' * a =
    alpha * a' * a**alpha``.  The constant term ``a[..., 0]`` must be
    positive so the principal branch is well defined for non-integer
    ``alpha``.
    """
    a = _as_series(a)
    _positive_head(a, "ps_pow")
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    head = a[..., 0].real
    # libm's pow, as for a scalar; NumPy's vectorised pow may differ in the
    # last bit.
    out[..., 0] = np.reshape([math.pow(h, alpha) for h in head.ravel()], head.shape)
    for n in range(1, a.shape[-1]):
        acc = 0.0
        for k in range(1, n + 1):
            acc = acc + (alpha * k - (n - k)) * a[..., k] * out[..., n - k]
        out[..., n] = acc / (n * a[..., 0])
    return out


def ps_log(a) -> np.ndarray:
    """Natural log of a truncated series with positive constant term."""
    a = _as_series(a)
    _positive_head(a, "ps_log")
    out = np.zeros(a.shape, dtype=np.result_type(a, float))
    out[..., 0] = np.log(a[..., 0])
    for n in range(1, a.shape[-1]):
        acc = n * a[..., n]
        for k in range(1, n):
            acc = acc - k * out[..., k] * a[..., n - k]
        out[..., n] = acc / (n * a[..., 0])
    return out


def poly_taylor(coeffs, x0, m: int) -> np.ndarray:
    """Taylor coefficients at ``x0`` of a polynomial, truncated to length ``m``.

    Parameters
    ----------
    coeffs : array_like
        Polynomial coefficients in ascending order, ``p(x) = sum c_k x**k``.
    x0 : float or array_like
        Expansion point, or an array of them.
    m : int
        Number of series terms to keep.

    Returns
    -------
    ndarray
        Shape ``np.shape(x0) + (m,)``: the ``m`` Taylor coefficients of
        ``p`` about each point.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if m < 1:
        raise ParameterError("m must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    # Horner with a shifted variable: repeatedly multiply by (u + x0), in
    # place, with the series index first while it runs.
    out = np.zeros((m,) + x0.shape)
    for c in coeffs[::-1].tolist():
        out[1:] = x0 * out[1:] + out[:-1]
        out[0] = x0 * out[0] + c
    return np.ascontiguousarray(out.transpose((*range(1, out.ndim), 0)))
