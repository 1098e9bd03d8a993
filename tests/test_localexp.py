"""The polynomial expansion engine against the closed-form local formulas.

Random graph jets exercise the generic direction-sphere expansion; the
closed-form kappa/c/d formulas for the local residues must agree exactly.
"""

import functools
import math

import numpy as np
import pytest

import residue_lab.manifold as M
from residue_lab._util import NumericError
from residue_lab.manifold import series as _series
from residue_lab.manifold.frames import CurvatureFrame, curvature_frame
from residue_lab.manifold.quadrature import sphere_monomial_integral
from residue_lab.residues import (extrinsic_ball_t6, local_r8_nu_raw, local_r8_raw,
                                  local_residue_m2, local_residue_m2_nu,
                                  meansq_from_residues, scalar_from_residues)
from residue_lab.oracles import sphere_volume


# --- the graph-method engine ----------------------------------------------
#
# Graph-method local expansions.
#
# The local potential at a point, pulled to the tangent space and written in
# polar coordinates u = r w, has the integrand
#
#     r^(z+m-1) * xi(r, w, z),
#     xi = (1 + |f(rw)|^2/r^2)^(z/2) * [area density or weight factor],
#
# whose Maclaurin coefficients in r are polynomials in w built from the graph
# derivative tensors. Integrating a coefficient over the unit direction sphere
# gives graph-method local residues. Everything here is exact polynomial
# algebra given the frame tensors; only the direction-sphere moments are
# evaluated, and those are closed-form.

_WDEG = 8  # highest w-degree appearing through r^4 coefficients; products truncate here


def _wzero(m: int) -> np.ndarray:
    return np.zeros((_WDEG + 1,) * m)


@functools.lru_cache(maxsize=None)
def _packed_at(m: int, deg: int) -> tuple:
    """Dense-cube index of each packed series coefficient."""
    return tuple(np.array(_series.monomials(m, deg)).T)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of dense (deg+1)^m cubes, through the packed ``series.mul``."""
    at = _packed_at(a.ndim, a.shape[0] - 1)
    out = np.zeros_like(a)
    out[at] = _series.mul(a[at], b[at], a.ndim)
    return out


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
        acc += _mul(a, b)
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
            e2 += _mul(M2[i][i], M2[j][j]) - _mul(M2[i][j], M2[j][i])
    e2 *= 0.5
    # sqrt(1 + x) = 1 + x/2 - x^2/8
    W2 = 0.5 * tr2
    W3 = 0.5 * tr3
    W4 = 0.5 * (tr4 + e2) - 0.125 * _mul(tr2, tr2)
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
        P[4] += half * G[4] + 0.5 * half * (half - 1.0) * _mul(G[2], G[2])
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
        out[4] += W4 + half * _mul(G[2], W2)
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
             (-f4p if f4p is not None else _wzero(m)) - _mul(f2p, W2)]
    else:
        raise NumericError(f"unknown relative integrand {which!r}")
    out = []
    for k in range(upto + 1):
        acc = _wzero(m)
        for a in range(k + 1):
            if a < len(B) and B[a] is not None and (k - a) < len(P):
                acc += _mul(P[k - a], B[a])
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


# --- tests --------------------------------------------------------------------

def random_frame(m: int, q: int, seed: int) -> CurvatureFrame:
    rng = np.random.default_rng(seed)

    def sym(order):
        t = rng.normal(size=(m,) * order + (q,))
        acc = np.zeros_like(t)
        for perm_axes in _perms(order):
            acc += np.transpose(t, perm_axes + (order,))
        return acc / math.factorial(order)

    f2 = sym(2)
    if q == 1:
        # principal frame for the hypersurface formulas
        lam, R = np.linalg.eigh(f2[..., 0])
        order_idx = np.argsort(-lam)
        lam = lam[order_idx]
        R = R[:, order_idx]
        f2 = np.einsum("ia,jb,ij->ab", R, R, f2[..., 0])[..., None]
        f3 = np.einsum("ia,jb,kc,ijkq->abcq", R, R, R, sym(3))
        f4 = np.einsum("ia,jb,kc,ld,ijklq->abcdq", R, R, R, R, sym(4))
        kappa = lam
    else:
        f3, f4, kappa = sym(3), sym(4), None
    n = m + q
    E = np.eye(n)[:m]
    NB = np.eye(n)[m:]
    return CurvatureFrame(x=np.zeros(n), tangent=E, normal_basis=NB,
                          f2=f2, f3=f3, f4=f4, kappa=kappa)


def _perms(order):
    import itertools
    return [p for p in itertools.permutations(range(order))]


@pytest.mark.parametrize("m,q,seed", [(2, 1, 0), (3, 1, 1), (4, 1, 2), (2, 2, 3), (4, 3, 4)])
def test_engine_matches_closed_m2_formulas(m, q, seed):
    fr = random_frame(m, q, seed)
    assert local_residue_graph(fr, 1, "one") == pytest.approx(
        local_residue_m2(fr), rel=1e-11)
    assert local_residue_graph(fr, 1, "nu") == pytest.approx(
        local_residue_m2_nu(fr), rel=1e-11)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_closed_m8_formulas(seed):
    fr = random_frame(4, 1, 10 + seed)
    assert local_residue_graph(fr, 2, "one") == pytest.approx(
        local_r8_raw(fr), rel=1e-10)
    assert local_residue_graph(fr, 2, "nu") == pytest.approx(
        local_r8_nu_raw(fr), rel=1e-10)


def test_first_coefficient_is_unit_sphere_volume():
    fr = random_frame(3, 1, 7)
    assert local_residue_graph(fr, 0, "one") == pytest.approx(
        sphere_volume(2), rel=1e-12)
    assert local_residue_graph(fr, 0, "nu") == pytest.approx(
        sphere_volume(2), rel=1e-12)


def test_scalar_and_meansq_recovery():
    # the closed-form linear combinations reproduce Sc and |H|^2 from the two
    # local residues, for any jet and codimension
    for m, q, seed in ((2, 1, 21), (3, 2, 22), (4, 1, 23)):
        fr = random_frame(m, q, seed)
        assert scalar_from_residues(fr) == pytest.approx(fr.scalar_curvature, rel=1e-10)
        assert meansq_from_residues(fr) == pytest.approx(fr.mean_sq, rel=1e-10)
    # unit S^2 values quoted in the examples
    fr = curvature_frame(M.sphere(2, 1.0), [1.1, 0.7])
    assert local_residue_m2_nu(fr) == pytest.approx(-math.pi, abs=1e-12)
    assert local_residue_m2(fr) == pytest.approx(0.0, abs=1e-12)
    assert scalar_from_residues(fr) == pytest.approx(2.0, abs=1e-11)
    assert meansq_from_residues(fr) == pytest.approx(4.0, abs=1e-11)
    flat = CurvatureFrame(x=np.zeros(3), tangent=np.eye(3)[:2],
                          normal_basis=np.eye(3)[2:],
                          f2=np.zeros((2, 2, 1)), f3=np.zeros((2, 2, 2, 1)),
                          f4=np.zeros((2, 2, 2, 2, 1)), kappa=np.zeros(2))
    assert scalar_from_residues(flat) == 0.0
    assert meansq_from_residues(flat) == 0.0


def test_relative_local_residues_closed_forms():
    # boundary-local and local relative residues at -n-1 both equal
    # o_{n-2}/(2(n-1)) H; the -n-3 combinations give the reference cubic and
    # Laplacian forms
    for m, seed in ((2, 31), (3, 32), (4, 33)):
        fr = random_frame(m, 1, seed)
        n = m + 1
        o = sphere_volume(n - 2)
        h = float(fr.kappa.sum())
        tgt = o / (2 * (n - 1)) * h
        assert relative_local_residue(fr, 0, "boundary") == pytest.approx(tgt, rel=1e-10)
        assert relative_local_residue(fr, 0, "local") == pytest.approx(tgt, rel=1e-10)
        rb = relative_local_residue(fr, 1, "boundary")
        rl = relative_local_residue(fr, 1, "local")
        cubic = o / (48.0 * (n * n - 1)) * (
            4.0 * float(np.sum(fr.kappa ** 3)) - h ** 3)
        assert 0.5 * (-rb + 3.0 * rl) == pytest.approx(cubic, rel=1e-9)
        lap = o / (12.0 * (n * n - 1)) * fr.delta_H()
        assert rb - rl == pytest.approx(lap, rel=1e-9)


def test_relative_difference_vanishes_on_spheres():
    fr = curvature_frame(M.sphere(2, 1.0), [1.3, 0.4])
    rb = relative_local_residue(fr, 1, "boundary")
    rl = relative_local_residue(fr, 1, "local")
    assert rb - rl == pytest.approx(0.0, abs=1e-13)


def _extrinsic_ball_t6_graph_oracle(frame: CurvatureFrame) -> float:
    """Independent value: one sixth of the graph-method local residue at -6."""
    return local_residue_graph(frame, j=2, weight="one") / 6.0


def test_extrinsic_ball_t6_cross_method():
    # unit sphere, torus point, flat plane
    fr_s = curvature_frame(M.sphere(2, 1.0), [1.1, 0.7])
    assert extrinsic_ball_t6(fr_s) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_s), rel=1e-6)
    fr_t = curvature_frame(M.torus(2.0, 1.0), [0.8, 2.0])
    assert extrinsic_ball_t6(fr_t) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_t), rel=1e-5)
    flat = CurvatureFrame(x=np.zeros(3), tangent=np.eye(3)[:2],
                          normal_basis=np.eye(3)[2:],
                          f2=np.zeros((2, 2, 1)), f3=np.zeros((2, 2, 2, 1)),
                          f4=np.zeros((2, 2, 2, 2, 1)), kappa=np.zeros(2))
    assert extrinsic_ball_t6(flat) == 0.0
    # random jets too
    fr_r = random_frame(2, 1, 41)
    assert extrinsic_ball_t6(fr_r) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_r), rel=1e-9)
