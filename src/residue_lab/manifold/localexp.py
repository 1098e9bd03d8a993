"""Graph-method local expansions.

The local potential at a point, pulled to the tangent space and written in
polar coordinates u = r w, has the integrand

    r^(z+m-1) * xi(r, w, z),
    xi = (1 + |f(rw)|^2/r^2)^(z/2) * [area density or weight factor],

whose Maclaurin coefficients in r are polynomials in w built from the graph
derivative tensors. Integrating a coefficient over the unit direction sphere
gives graph-method local residues. Everything here is exact polynomial
algebra given the frame tensors; only the direction-sphere moments are
evaluated, and those are closed-form.
"""

from __future__ import annotations

import numpy as np

from .._util import NumericError
from .frames import CurvatureFrame
from .quadrature import sphere_monomial_integral
from . import series as _series

_WDEG = 8  # highest w-degree appearing through r^4 coefficients; products truncate here


def _wzero(m: int) -> np.ndarray:
    return np.zeros((_WDEG + 1,) * m)


def _radial_pieces(frame: CurvatureFrame):
    """Homogeneous pieces F_k(w) (k = 2, 3, 4) of f(r w)/r^k, one w-poly per normal axis."""
    m, q = frame.m, frame.codim
    fks = {2: frame.f2, 3: frame.f3, 4: frame.f4}
    fact = {2: 2.0, 3: 6.0, 4: 24.0}
    out = {}
    for k, tens in fks.items():
        if tens is None:
            continue
        comps = []
        for s in range(q):
            poly = _wzero(m)
            t = tens[..., s]
            for idx in np.argwhere(t != 0.0):
                mono = [0] * m
                for i in idx:
                    mono[i] += 1
                poly[tuple(mono)] += t[tuple(idx)] / fact[k]
            comps.append(poly)
        out[k] = comps
    return out


def _dot(Fa, Fb, m):
    acc = _wzero(m)
    for a, b in zip(Fa, Fb):
        acc += _series.mul(a, b)
    return acc


def _gram_pieces(frame: CurvatureFrame, upto: int):
    """r-expansion G_2 r^2 + G_3 r^3 + G_4 r^4 of |f(rw)|^2 / r^2."""
    m = frame.m
    F = _radial_pieces(frame)
    G = {2: _dot(F[2], F[2], m)}
    if upto >= 3 and 3 in F:
        G[3] = 2.0 * _dot(F[2], F[3], m)
    if upto >= 4 and 4 in F:
        G[4] = _dot(F[3], F[3], m) + 2.0 * _dot(F[2], F[4], m)
    return F, G


def _area_density_pieces(frame: CurvatureFrame, upto: int):
    """r-expansion 1 + W_2 r^2 + W_3 r^3 + W_4 r^4 of the graph area density A_f(rw)."""
    m, q = frame.m, frame.codim
    # gradient pieces: d_i f(rw) = D1[i] r + D2[i] r^2 + D3[i] r^3 (each a q-vector of w-polys)
    D = {1: [], 2: [], 3: []}
    for i in range(m):
        for order, tens, fact in ((1, frame.f2, 1.0), (2, frame.f3, 2.0), (3, frame.f4, 6.0)):
            comps = []
            if tens is None:
                D[order].append(None)
                continue
            for s in range(q):
                poly = _wzero(m)
                t = tens[..., s]
                sub = t[i]
                for idx in np.argwhere(sub != 0.0):
                    mono = [0] * m
                    for k in idx:
                        mono[k] += 1
                    poly[tuple(mono)] += sub[tuple(idx)] / fact
                comps.append(poly)
            D[order].append(comps)
    # M_ij = <d_i f, d_j f> expanded in r
    M2 = [[_dot(D[1][i], D[1][j], m) for j in range(m)] for i in range(m)]
    M3 = None
    M4 = None
    if upto >= 3 and D[2][0] is not None:
        M3 = [[_dot(D[1][i], D[2][j], m) + _dot(D[2][i], D[1][j], m)
               for j in range(m)] for i in range(m)]
    if upto >= 4 and D[3][0] is not None:
        M4 = [[_dot(D[2][i], D[2][j], m) + _dot(D[1][i], D[3][j], m)
               + _dot(D[3][i], D[1][j], m) for j in range(m)] for i in range(m)]
    tr2 = _wzero(m)
    for i in range(m):
        tr2 += M2[i][i]
    tr3 = _wzero(m)
    if M3 is not None:
        for i in range(m):
            tr3 += M3[i][i]
    tr4 = _wzero(m)
    if M4 is not None:
        for i in range(m):
            tr4 += M4[i][i]
    # det(I + M) = 1 + tr M + e2(M) + O(r^6); e2 at r^4 uses only the r^2 blocks
    e2 = _wzero(m)
    for i in range(m):
        for j in range(m):
            e2 += _series.mul(M2[i][i], M2[j][j]) - _series.mul(M2[i][j], M2[j][i])
    e2 *= 0.5
    # sqrt(1 + x) = 1 + x/2 - x^2/8
    W2 = 0.5 * tr2
    W3 = 0.5 * tr3
    W4 = 0.5 * (tr4 + e2) - 0.125 * _series.mul(tr2, tr2)
    return W2, W3, W4


def xi_coefficients(frame: CurvatureFrame, z: float, weight: str = "one",
                    upto: int = 4) -> list[np.ndarray]:
    """Maclaurin coefficients [a_0, ..., a_upto] (w-polys) of xi(r, w, z).

    weight 'one' multiplies by the area density; 'nu' uses the Grassmann
    weight, which cancels the area density exactly in the graph chart.
    """
    m = frame.m
    if upto > 4:
        raise NumericError("expansion implemented through r^4")
    _, G = _gram_pieces(frame, upto)
    half = 0.5 * z
    # (1 + G)^(z/2) with G = G2 r^2 + G3 r^3 + G4 r^4
    P = [_wzero(m) for _ in range(upto + 1)]
    P[0][(0,) * m] = 1.0
    if upto >= 2:
        P[2] += half * G[2]
    if upto >= 3 and 3 in G:
        P[3] += half * G[3]
    if upto >= 4 and 4 in G:
        P[4] += half * G[4] + 0.5 * half * (half - 1.0) * _series.mul(G[2], G[2])
    if weight == "nu":
        return P
    if weight != "one":
        raise NumericError(f"xi_coefficients: unsupported weight {weight!r}")
    W2, W3, W4 = _area_density_pieces(frame, upto)
    out = [p.copy() for p in P]
    if upto >= 2:
        out[2] += W2
    if upto >= 3:
        out[3] += W3
    if upto >= 4:
        out[4] += W4 + half * _series.mul(G[2], W2)
    return out


def sphere_average(poly: np.ndarray, m: int) -> float:
    """Integral of a w-polynomial over the unit direction sphere S^(m-1)."""
    total = 0.0
    for idx in np.argwhere(poly != 0.0):
        total += poly[tuple(idx)] * sphere_monomial_integral(m, tuple(idx))
    return float(total)


def local_residue_graph(frame: CurvatureFrame, j: int, weight: str = "one") -> float:
    """Graph-method local residue at z = -m - 2j (j <= 2)."""
    if j < 0 or j > 2:
        raise NumericError("graph-method residues implemented for j in {0, 1, 2}")
    z0 = -(frame.m + 2 * j)
    coeffs = xi_coefficients(frame, z0, weight=weight, upto=2 * j)
    return sphere_average(coeffs[2 * j], frame.m)


# ---------------------------------------------------------------------------
# relative (body vs boundary) local expansions, hypersurface boundary
# ---------------------------------------------------------------------------

def relative_coefficients(frame: CurvatureFrame, z: float, which: str,
                          upto: int = 2) -> list[np.ndarray]:
    """Maclaurin coefficients of the relative integrands at a boundary point.

    which='boundary': weight <y - x, nu_y> localized at x (the area density
    cancels); the radial factor is f(rw)/r^2 - <w, grad f(rw)>/r.
    which='local': weight <y - x, nu_y> localized at y; radial factor
    -f(rw)/r^2 times the area density.
    """
    if frame.codim != 1:
        raise NumericError("relative expansions need a hypersurface boundary")
    m = frame.m
    F, G = _gram_pieces(frame, 4)
    half = 0.5 * z
    P = [_wzero(m) for _ in range(upto + 3)]
    P[0][(0,) * m] = 1.0
    P[2] += half * G[2]
    if 3 in G and upto + 2 >= 3:
        P[3] += half * G[3]
    f2p, f3p, f4p = (F[2][0], F.get(3, [None])[0], F.get(4, [None])[0])
    if which == "boundary":
        # Euler's identity: <w, grad f(rw)>/r = 2 F2 + 3 F3 r + 4 F4 r^2
        B = [-f2p, None, None]
        B[1] = -2.0 * f3p if f3p is not None else _wzero(m)
        B[2] = -3.0 * f4p if f4p is not None else _wzero(m)
    elif which == "local":
        W2, W3, W4 = _area_density_pieces(frame, 4)
        B = [-f2p,
             -f3p if f3p is not None else _wzero(m),
             (-f4p if f4p is not None else _wzero(m)) - _series.mul(f2p, W2)]
    else:
        raise NumericError(f"unknown relative integrand {which!r}")
    out = []
    for k in range(upto + 1):
        acc = _wzero(m)
        for a in range(k + 1):
            if a < len(B) and B[a] is not None and (k - a) < len(P):
                acc += _series.mul(P[k - a], B[a])
        out.append(acc)
    return out


def relative_local_residue(frame: CurvatureFrame, j: int, which: str) -> float:
    """Relative local residue at z = -n - 1 - 2j for a body boundary point.

    n = m + 1 is the body dimension; the prefactor -(1/(2j+1)) comes from the
    1/(z+n) normalization of the relative energy.
    """
    n = frame.m + 1
    z0 = -(n + 1 + 2 * j)
    coeffs = relative_coefficients(frame, z0, which, upto=2 * j)
    return -1.0 / (2 * j + 1) * sphere_average(coeffs[2 * j], frame.m)
