"""Truncated multivariate Taylor series and exact graph expansions.

A series in m variables truncated at total degree ``deg`` is stored packed:
a last axis of C(m + deg, m) coefficients, one per monomial of total degree
<= deg, in the lexicographic order of their exponents (``monomials``); a
stack of series carries leading batch axes in front of it. This is enough
to extract second, third and fourth order graph data of implicitly-defined
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
# most coefficient products of one series, C(2m + deg, deg), which bounds its
# C(m + deg, m) coefficients too; an order-2 frame of sphere(16) needs 561
MAX_COEFFS = 1 << 20


def size(m: int, deg: int) -> int:
    """Coefficients of one series; NumericError when its product table is
    above ``MAX_COEFFS``, before that table is built."""
    pairs = math.comb(2 * m + deg, deg)
    if pairs > MAX_COEFFS:
        raise NumericError(f"a series in {m} variables to degree {deg} has "
                           f"{math.comb(m + deg, m):.3g} coefficients and {pairs:.3g} "
                           f"coefficient products, above {MAX_COEFFS}")
    return math.comb(m + deg, m)


@functools.lru_cache(maxsize=None)
def monomials(m: int, deg: int) -> tuple:
    """Exponent tuples of the coefficients, total degree <= deg, lexicographic."""
    monos = [()]
    for _ in range(m):
        monos = [(a,) + rest for a in range(deg + 1) for rest in monos if a + sum(rest) <= deg]
    return tuple(monos)


@functools.lru_cache(maxsize=None)
def _position(m: int, deg: int) -> dict:
    """Coefficient index of every exponent tuple."""
    return {alpha: k for k, alpha in enumerate(monomials(m, deg))}


@functools.lru_cache(maxsize=None)
def _degree(m: int, count: int) -> int:
    """The degree of a series in m variables with ``count`` coefficients."""
    deg = 0
    while math.comb(m + deg, m) < count:
        deg += 1
    return deg


@functools.lru_cache(maxsize=None)
def _product_table(m: int, deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, i + j) coefficient index triples of monomial pairs of total degree <= deg.

    Ordered by the left factor, then the right, so every output entry
    accumulates its terms in the same order as a loop over the left
    factor's entries would.
    """
    size(m, deg)  # the bound, read before any pair is enumerated
    pos = _position(m, deg)
    rows = [(pos[i], pos[j], pos[tuple(a + b for a, b in zip(i, j))])
            for i in monomials(m, deg) for j in monomials(m, deg - sum(i))]
    left, right, out = (np.array(col, dtype=np.intp) for col in zip(*rows))
    return left, right, out


def mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Truncated product: one gather and one ordered scatter-add over a pair table.

    The last axis holds the coefficients of series in ``m`` variables; any
    axes before it are batch axes. Each batch row accumulates its terms in
    the pair table's order, so a row of a stack equals the product of that
    row alone.
    """
    count = a.shape[-1]
    left, right, dst = _product_table(m, _degree(m, count))
    a2, b2 = a.reshape(-1, count), b.reshape(-1, count)
    terms = a2[:, left] * b2[:, right]
    flat = (np.arange(len(a2))[:, None] * count + dst).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=a.size).reshape(a.shape)


def shift(a: np.ndarray, c: float) -> np.ndarray:
    """a + c: a copy with c added to the constant term."""
    out = a.copy()
    out[..., 0] += c
    return out


# The pointwise arithmetic with the same interface as this module (``mul``,
# ``inverse``, ``shift``): a polynomial written against one runs on arrays of
# points with ``POINTS`` and on truncated series with the module itself.
POINTS = SimpleNamespace(mul=np.multiply, inverse=np.reciprocal, shift=np.add)


@functools.lru_cache(maxsize=None)
def batched(m: int) -> SimpleNamespace:
    """This module's arithmetic on stacks of series in ``m`` variables: the
    last axis holds the coefficients, the ones before it are batch axes."""
    return SimpleNamespace(mul=lambda a, b: mul(a, b, m), inverse=lambda a: inverse(a, m),
                           shift=shift)


def inverse(a: np.ndarray, m: int) -> np.ndarray:
    """1/a for a series with nonzero constant term (per row of a stack)."""
    a0 = a[..., :1]
    if np.any(a0 == 0.0):
        raise ZeroDivisionError("series has no constant term")
    ahat = a / a0
    ahat[..., 0] = 0.0
    acc = np.zeros_like(a)
    acc[..., 0] = 1.0
    term = acc.copy()
    for _ in range(_degree(m, a.shape[-1])):
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
    """Coefficient index of the monomial each derivative-tensor entry reads."""
    pos = _position(m, deg)
    alpha = tensor_exponents(m, order)[1]
    return np.array([pos[a] for a in map(tuple, alpha.T.tolist())]).reshape((m,) * order)


def derivative_tensor(f: np.ndarray, order: int, m: int) -> np.ndarray:
    """Symmetric tensor of order-``order`` partial derivatives of f at 0,
    f_alpha alpha!, with f's batch axes in front."""
    flat = _derivative_index(m, _degree(m, f.shape[-1]), order)
    fact = tensor_exponents(m, order)[2].reshape(flat.shape)
    return f[..., flat] * fact


def implicit_graph(ring, p: np.ndarray, U: np.ndarray, nu: np.ndarray,
                   deg: int = 4) -> np.ndarray:
    """Graph series of the hypersurface {F = 0} over its tangent plane at p.

    One point p (n,) with tangent rows U (m, n) and normal nu (n,), or a
    stack of them, p (N, n), U (N, m, n), nu (N, n), which gives a stack of
    series whose rows equal the one-point solves. ``ring(X, grad, m)``
    evaluates F on stacked coordinate series X, shape (n, N, C(m+deg, m));
    with ``grad`` it returns (F, stacked grad F). Series Newton
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
    X = np.zeros((n, N, size(m, deg)))
    X[..., 0] = p.T
    pos = _position(m, deg)
    for k, e in enumerate(np.eye(m, dtype=int).tolist()):
        X[..., pos[tuple(e)]] = U[:, k, :].T
    F, grad = ring(X, True, m)
    # <nu, grad F> per point, rounded as a one-point tensordot
    slope = (nu[:, None, :] @ np.moveaxis(grad, 0, 1)).reshape(F.shape)
    scale = np.maximum(np.abs(F).max(axis=-1), np.abs(slope).max(axis=-1))
    step = inverse(slope, m)
    along = nu.T[..., None]
    f = np.zeros_like(F)
    for _ in range(max(1, deg // 2)):
        f = f - mul(F, step, m)
        F = ring(X + along * f, False, m)
    resid = np.abs(F).max(axis=-1)
    bad = ~(resid <= GRAPH_RTOL * scale)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(f"series graph solve left residual {resid[k]:.3e} "
                           f"(tolerance {GRAPH_RTOL:.0e} x {scale[k]:.3e}) at p={p[k]}")
    return f
