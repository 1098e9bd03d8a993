"""Truncated multivariate Taylor series and exact graph expansions.

A series in m variables truncated at total degree ``deg`` is stored as a
dense coefficient array of shape (deg+1,)*m indexed by multi-degree; entries
with total degree above ``deg`` are kept at zero; a stack of series carries
leading batch axes in front of those. This is enough to extract
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


def _shape(m: int, deg: int) -> tuple:
    """The coefficient shape of one series; NumericError above ``MAX_COEFFS``."""
    if (deg + 1) ** m > MAX_COEFFS:
        raise NumericError(f"a series in {m} variables to degree {deg} has "
                           f"{(deg + 1) ** m:.3g} coefficients, above {MAX_COEFFS}")
    return (deg + 1,) * m


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


def mul(a: np.ndarray, b: np.ndarray, m: int | None = None) -> np.ndarray:
    """Truncated product: one gather and one ordered scatter-add over a pair table.

    The last ``m`` axes (default: all) are the series axes; any axes before
    them are batch axes. Each batch row accumulates its terms in the pair
    table's order, so a row of a stack equals the product of that row alone.
    """
    m = a.ndim if m is None else m
    deg = a.shape[-1] - 1
    left, right, dst = _product_table(m, deg)
    size = (deg + 1) ** m
    a2, b2 = a.reshape(-1, size), b.reshape(-1, size)
    terms = a2[:, left] * b2[:, right]
    flat = (np.arange(len(a2))[:, None] * size + dst).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=a.size).reshape(a.shape)


def _origin(m: int) -> tuple:
    """Index of the constant term of a series with any leading batch axes."""
    return (Ellipsis,) + (0,) * m


def shift(a: np.ndarray, c: float, m: int | None = None) -> np.ndarray:
    """a + c: a copy with c added to the constant term."""
    out = a.copy()
    out[_origin(a.ndim if m is None else m)] += c
    return out


# The pointwise arithmetic with the same interface as this module (``mul``,
# ``inverse``, ``shift``): a polynomial written against one runs on arrays of
# points with ``POINTS`` and on truncated series with the module itself.
POINTS = SimpleNamespace(mul=np.multiply, inverse=np.reciprocal, shift=np.add)


@functools.lru_cache(maxsize=None)
def batched(m: int) -> SimpleNamespace:
    """This module's arithmetic on stacks of series in ``m`` variables: the
    last ``m`` axes are series axes, the ones before them batch axes."""
    return SimpleNamespace(mul=lambda a, b: mul(a, b, m), inverse=lambda a: inverse(a, m),
                           shift=lambda a, c: shift(a, c, m))


def inverse(a: np.ndarray, m: int | None = None) -> np.ndarray:
    """1/a for a series with nonzero constant term (per row of a stack)."""
    m = a.ndim if m is None else m
    deg = a.shape[-1] - 1
    origin = _origin(m)
    a0 = a[origin][(...,) + (None,) * m]
    if np.any(a0 == 0.0):
        raise ZeroDivisionError("series has no constant term")
    ahat = a / a0
    ahat[origin] = 0.0
    acc = np.zeros_like(a)
    acc[origin] = 1.0
    term = acc.copy()
    for _ in range(deg):
        term = mul(term, -ahat, m)
        acc += term
    return acc / a0


@functools.lru_cache(maxsize=None)
def tensor_exponents(m: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(idx, alpha, alpha!) of the m**order entries of an order-``order``
    tensor over m directions, in flat order: idx (order, K) the index tuples,
    alpha (m, K) their monomial exponents (alpha_i = count of i in idx)."""
    idx = np.indices((m,) * order).reshape(order, -1)
    alpha = np.stack([np.count_nonzero(idx == i, axis=0) for i in range(m)])
    fact = np.prod([[math.factorial(k) for k in a] for a in alpha.tolist()], axis=0)
    return idx, alpha, fact.astype(float)


@functools.lru_cache(maxsize=None)
def _derivative_index(m: int, deg: int, order: int) -> np.ndarray:
    """Flat series index of the monomial each derivative-tensor entry reads."""
    alpha = tensor_exponents(m, order)[1]
    return np.ravel_multi_index(tuple(alpha), (deg + 1,) * m).reshape((m,) * order)


def derivative_tensor(f: np.ndarray, order: int, m: int | None = None) -> np.ndarray:
    """Symmetric tensor of order-``order`` partial derivatives of f at 0,
    f_alpha alpha!, with f's batch axes (all but the last ``m``, default
    none) in front."""
    m = f.ndim if m is None else m
    flat = _derivative_index(m, f.shape[-1] - 1, order)
    fact = tensor_exponents(m, order)[2].reshape(flat.shape)
    return f.reshape(f.shape[:f.ndim - m] + (-1,))[..., flat] * fact


def implicit_graph(ring, p: np.ndarray, U: np.ndarray, nu: np.ndarray,
                   deg: int = 4) -> np.ndarray:
    """Graph series of the hypersurface {F = 0} over its tangent plane at p.

    One point p (n,) with tangent rows U (m, n) and normal nu (n,), or a
    stack of them, p (N, n), U (N, m, n), nu (N, n), which gives a stack of
    series whose rows equal the one-point solves. ``ring(X, grad, m)``
    evaluates F on stacked coordinate series X, shape (n,) + batch +
    (deg+1,)*m; with ``grad`` it returns (F, stacked grad F). Series Newton
    on F(p + U^T u + f nu) = 0 with the slope <grad F, nu> frozen at f = 0:
    the first step is exact through degree 3 and each later one gains two
    degrees, so max(1, deg // 2) steps reach degree ``deg``. The residual of
    every point after the last step must vanish through degree ``deg``;
    otherwise NumericError is raised instead of returning an inexact jet.
    """
    p, U, nu = (np.asarray(a, dtype=float) for a in (p, U, nu))
    if p.ndim == 1:
        return implicit_graph(ring, p[None], U[None], nu[None], deg)[0]
    N, m, n = U.shape
    axes = tuple(range(1, m + 1))
    X = np.zeros((n, N) + _shape(m, deg))
    X[_origin(m)] = p.T
    for k in range(m):
        X[(...,) + tuple(np.eye(m, dtype=int)[k])] = U[:, k, :].T
    F, grad = ring(X, True, m)
    # <nu, grad F> per point, rounded as a one-point tensordot
    slope = (nu[:, None, :] @ np.moveaxis(grad, 0, 1).reshape(N, n, -1)).reshape(F.shape)
    scale = np.maximum(np.abs(F).max(axis=axes), np.abs(slope).max(axis=axes))
    step = inverse(slope, m)
    along = nu.T.reshape((n, N) + (1,) * m)
    f = np.zeros_like(F)
    for _ in range(max(1, deg // 2)):
        f = f - mul(F, step, m)
        F = ring(X + along * f, False, m)
    resid = np.abs(F).max(axis=axes)
    bad = ~(resid <= GRAPH_RTOL * scale)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(f"series graph solve left residual {resid[k]:.3e} "
                           f"(tolerance {GRAPH_RTOL:.0e} x {scale[k]:.3e}) at p={p[k]}")
    return f
