"""Truncated multivariate Taylor series and exact graph expansions.

A series in m variables truncated at total degree ``deg`` is stored as a
dense coefficient array of shape (deg+1,)*m indexed by multi-degree; entries
with total degree above ``deg`` are kept at zero. This is enough to extract
second, third and fourth order graph data of implicitly-defined
hypersurfaces (quadrics, tori and their Moebius images) without any finite
differencing.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .._util import NumericError

GRAPH_RTOL = 1e-12  # graph residual bound, relative to the coefficients of F and its slope
# largest dense coefficient array, (deg+1)^m entries (8 MB); an order-2 frame of
# sphere(12) needs 3^12, one of sphere(16) would need 3^16 = 43M per series
MAX_COEFFS = 1 << 20


def zero(m: int, deg: int) -> np.ndarray:
    """The zero series; NumericError, before allocating, above ``MAX_COEFFS``."""
    if (deg + 1) ** m > MAX_COEFFS:
        raise NumericError(f"a series in {m} variables to degree {deg} has "
                           f"{(deg + 1) ** m:.3g} coefficients, above {MAX_COEFFS}")
    return np.zeros((deg + 1,) * m)


def const(m: int, deg: int, value: float) -> np.ndarray:
    out = zero(m, deg)
    out[(0,) * m] = value
    return out


def linear(m: int, deg: int, coeffs) -> np.ndarray:
    out = zero(m, deg)
    for i, c in enumerate(coeffs):
        idx = [0] * m
        idx[i] = 1
        out[tuple(idx)] = c
    return out


@functools.lru_cache(maxsize=None)
def _product_table(m: int, deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (i, j, i + j) index triples of monomial pairs of total degree <= deg.

    Ordered by the flat index of the left factor, so every output entry
    accumulates its terms in the same order as a loop over the left
    factor's entries would.
    """
    shape = (deg + 1,) * m
    monos = [idx for idx in np.ndindex(shape) if sum(idx) <= deg]
    rows = [(np.ravel_multi_index(i, shape), np.ravel_multi_index(j, shape),
             np.ravel_multi_index(tuple(a + b for a, b in zip(i, j)), shape))
            for i in monos for j in monos if sum(i) + sum(j) <= deg]
    left, right, out = (np.array(col, dtype=np.intp) for col in zip(*rows))
    return left, right, out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product: one gather and one ordered scatter-add over a pair table."""
    left, right, dst = _product_table(a.ndim, a.shape[0] - 1)
    terms = a.ravel()[left] * b.ravel()[right]
    return np.bincount(dst, weights=terms, minlength=a.size).reshape(a.shape)


def shift(a: np.ndarray, c: float) -> np.ndarray:
    """a + c: a copy with c added to the constant term."""
    out = a.copy()
    out[(0,) * a.ndim] += c
    return out


# The pointwise arithmetic with the same interface as this module (``mul``,
# ``inverse``, ``shift``): a polynomial written against one runs on arrays of
# points with ``POINTS`` and on truncated series with the module itself.
POINTS = SimpleNamespace(mul=np.multiply, inverse=np.reciprocal, shift=np.add)


def inverse(a: np.ndarray) -> np.ndarray:
    """1/a for a series with nonzero constant term."""
    m = a.ndim
    deg = a.shape[0] - 1
    a0 = a[(0,) * m]
    if a0 == 0.0:
        raise ZeroDivisionError("series has no constant term")
    ahat = a / a0
    ahat[(0,) * m] = 0.0
    acc = const(m, deg, 1.0)
    term = const(m, deg, 1.0)
    for _ in range(deg):
        term = mul(term, -ahat)
        acc += term
    return acc / a0


def derivative_tensor(f: np.ndarray, order: int) -> np.ndarray:
    """Symmetric tensor of order-``order`` partial derivatives of f at 0."""
    m = f.ndim
    shape = (m,) * order
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        alpha = [0] * m
        for i in idx:
            alpha[i] += 1
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        out[idx] = f[tuple(alpha)] * fact
    return out


def implicit_graph(ring, p: np.ndarray, U: np.ndarray, nu: np.ndarray,
                   deg: int = 4) -> np.ndarray:
    """Graph series of the hypersurface {F = 0} over its tangent plane at p.

    ``ring(X, grad)`` evaluates F on stacked coordinate series X, shape
    (n,) + (deg+1,)*m; with ``grad`` it returns (F, stacked grad F). Series
    Newton on F(p + U^T u + f nu) = 0 with the slope <grad F, nu> frozen at
    f = 0: the first step is exact through degree 3 and each later one
    gains two degrees, so max(1, deg // 2) steps reach degree ``deg``. The
    residual after the last step must vanish through degree ``deg``;
    otherwise NumericError is raised instead of returning an inexact jet.
    """
    m, n = U.shape
    X = np.stack([const(m, deg, p[i]) + linear(m, deg, U[:, i]) for i in range(n)])
    F, grad = ring(X, True)
    slope = np.tensordot(nu, grad, axes=1)
    scale = max(float(np.max(np.abs(F))), float(np.max(np.abs(slope))))
    step = inverse(slope)
    along = np.asarray(nu, dtype=float).reshape((n,) + (1,) * m)
    f = zero(m, deg)
    for _ in range(max(1, deg // 2)):
        f = f - mul(F, step)
        F = ring(X + along * f, False)
    resid = float(np.max(np.abs(F)))
    if not resid <= GRAPH_RTOL * scale:
        raise NumericError(f"series graph solve left residual {resid:.3e} "
                           f"(tolerance {GRAPH_RTOL:.0e} x {scale:.3e}) at p={p}")
    return f
