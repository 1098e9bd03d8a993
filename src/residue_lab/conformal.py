"""Conformal curvature energies of 4-dimensional submanifolds.

The Graham-Witten energy, the Weyl-tensor norm and Gauss-Bonnet-Chern
density of 4-D hypersurfaces, the Moebius-invariant principal curvature
energy, and the identity expressing the Graham-Witten energy through the
z = -8 residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import NumericError
from .manifold.frames import CurvatureFrame, curvature_frame, node_sum
from .manifold.quadrature import gauss_on
from .manifold.shapes import ManifoldSpec
from .residues import (_ordered_sum, _pairs, _pairs_and_third, frame_integral,
                       r8_modified_densities)


@dataclass
class EnergyBreakdown:
    """Conformal energies of one 4-D hypersurface and their identity residual."""
    gw: float
    weyl: float          # int |W|^2 dv
    chern: float         # int X dv, = 8 pi^2 chi(M)
    z_energy: float      # Z(M) = int q dv
    r8: float
    r8_nu: float
    identity_residual: float

    def rows(self):
        return [("gw", self.gw), ("weyl", self.weyl), ("chern", self.chern),
                ("z_energy", self.z_energy), ("r8", self.r8),
                ("r8_nu", self.r8_nu), ("identity_residual", self.identity_residual)]


# ---------------------------------------------------------------------------
# pointwise principal-curvature polynomials
# ---------------------------------------------------------------------------

def weyl_norm_hyp(kappa):
    """|W|^2 of a 4-D hypersurface as a symmetric polynomial in kappa (..., 4).

    (4/3) sum_{j<k} k_j^2 k_k^2 - (4/3) sum_{j<k, i != j,k} k_i^2 k_j k_k
    + 8 k1 k2 k3 k4.
    """
    k = np.asarray(kappa, dtype=float)
    j, l = np.triu_indices(4, 1)
    tj, tl, ti = _pairs_and_third()
    s1 = _ordered_sum(k[..., j] ** 2 * k[..., l] ** 2)
    s2 = _ordered_sum(k[..., ti] ** 2 * k[..., tj] * k[..., tl])
    return 4.0 / 3.0 * s1 - 4.0 / 3.0 * s2 + 8.0 * np.prod(k, axis=-1)


def chern_density(kappa):
    """X = 6 k1 k2 k3 k4; integrates to 8 pi^2 chi(M)."""
    return 6.0 * np.prod(np.asarray(kappa, dtype=float), axis=-1)


def q_energy(kappa):
    """The Moebius-invariant principal curvature density.

    q = 3 sum k^4 - 4 sum_{i != j} k_i^3 k_j + 6 sum_{j<k} k_j^2 k_k^2 - 3 |W|^2;
    non-negative, zero exactly on doubled pairs {k, k, k', k'}.
    """
    k = np.asarray(kappa, dtype=float)
    i, j = _pairs()
    a, b = np.triu_indices(4, 1)
    s4 = _ordered_sum(k ** 4)
    s31 = _ordered_sum(k[..., i] ** 3 * k[..., j])
    s22 = _ordered_sum(k[..., a] ** 2 * k[..., b] ** 2)
    return 3.0 * s4 - 4.0 * s31 + 6.0 * s22 - 3.0 * weyl_norm_hyp(k)


# ---------------------------------------------------------------------------
# Graham-Witten energy
# ---------------------------------------------------------------------------

def _grad_h_sq_intrinsic(spec: ManifoldSpec, patch_index: int, u: np.ndarray,
                         h: float = 1e-3) -> float:
    """|grad H|^2 = g^{ab} dH/du_a dH/du_b by central differences of the
    scalar mean curvature in parameter space (hypersurfaces).

    A finite-difference reference for ``CurvatureFrame.grad_H_sq``; the
    energies themselves use the exact graph jets.
    """
    surf = spec.surface()
    patch = surf.patches[patch_index]
    from .manifold.quadrature import patch_jacobian
    J = patch_jacobian(patch, u[None, :])[0]
    g = J.T @ J
    m = surf.m
    dH = np.zeros(m)
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        hp = curvature_frame(spec, u + e, patch_index=patch_index, max_order=2).H
        hm = curvature_frame(spec, u - e, patch_index=patch_index, max_order=2).H
        hp2 = curvature_frame(spec, u + 0.5 * e, patch_index=patch_index, max_order=2).H
        hm2 = curvature_frame(spec, u - 0.5 * e, patch_index=patch_index, max_order=2).H
        d1 = (hp - hm) / (2 * h)
        d2 = (hp2 - hm2) / h
        dH[a] = (4.0 * d2 - d1) / 3.0
    return float(dH @ np.linalg.solve(g, dH))


def gw_density(fr: CurvatureFrame):
    """Graham-Witten density (|grad H|^2 - |<h_ij, H>|^2 + (7/16) |H|^4) / 128.

    Exact at the graph origin from the graph jets, any codimension:
    grad H from the third derivatives, <h_ij, H> from the second.
    """
    Hv = fr.mean_curvature_vector
    hH = np.einsum("...ijq,...q->...ij", fr.f2, Hv)
    return (fr.grad_H_sq() - node_sum(hH ** 2, 2)
            + 7.0 / 16.0 * node_sum(Hv ** 2) ** 2) / 128.0


def graham_witten(spec: ManifoldSpec, order: int = 48) -> float:
    """Graham-Witten energy of a closed 4-D submanifold: the integral of
    ``gw_density`` over one pass of order-3 frames.

    Hypersurfaces: (1/128) int (|grad H|^2 - ||h||^2 H^2 + (7/16) H^4) dv.
    """
    surf = spec.surface()
    if surf.m != 4:
        raise NumericError("graham_witten needs a 4-dimensional submanifold")
    return frame_integral(spec, gw_density, order=order, max_order=3)


# ---------------------------------------------------------------------------
# energies, identity, classification
# ---------------------------------------------------------------------------

def _energy_densities(fr: CurvatureFrame) -> tuple:
    """(gw, |W|^2, X, q, R(-8), R_nu(-8)) densities, the last two order-3 modified."""
    k = fr.kappa
    return (gw_density(fr), weyl_norm_hyp(k), chern_density(k), q_energy(k),
            *r8_modified_densities(fr))


def energy_breakdown(spec: ManifoldSpec, order: int = 48) -> EnergyBreakdown:
    """All conformal energies of a closed 4-D hypersurface, plus the identity
    residual gw - (3/2pi^2)(R_nu + 2 R) + (1/2048)(12 int|W|^2 + 5 Z).

    One pass of order-3 frames feeds every integrand.
    """
    surf = spec.surface()
    if surf.m != 4 or surf.codim != 1:
        raise NumericError("energy_breakdown needs a 4-D hypersurface")
    gw, weyl, chern, z_en, r8, r8_nu = frame_integral(
        spec, _energy_densities, order=order, max_order=3)
    resid = (gw - 3.0 / (2.0 * math.pi ** 2) * (r8_nu + 2.0 * r8)
             + (12.0 * weyl + 5.0 * z_en) / 2048.0)
    return EnergyBreakdown(gw=gw, weyl=weyl, chern=chern, z_energy=z_en,
                           r8=r8, r8_nu=r8_nu, identity_residual=resid)


def spheroid_principal_curvatures(a: float, theta1, m: int = 4):
    """Principal curvatures of the m-dimensional a-hyper-spheroid along theta1."""
    t = np.asarray(theta1, dtype=float)
    A = a * a * np.sin(t) ** 2 + np.cos(t) ** 2
    k1 = -a / A ** 1.5
    krest = -a / np.sqrt(A)
    return k1, krest


def spheroid_inverted_curvatures(a: float, theta1, m: int = 4):
    """Principal curvatures of the image of the spheroid under the unit inversion."""
    t = np.asarray(theta1, dtype=float)
    A = a * a * np.sin(t) ** 2 + np.cos(t) ** 2
    k1 = -((2 * a * a - 1) * np.sin(t) ** 2 + (2 - a * a) * np.cos(t) ** 2) / A ** 1.5 * a
    krest = -(-(a * a - 1) * np.cos(t) ** 2 + 1) / np.sqrt(A) * a
    return k1, krest


def classification_harness(c1: float, c2: float, c3: float, a: float,
                           order: int = 400) -> float:
    """Moebius-invariance defect of sigma = c1 sum k^4 + c2 sum_{i!=j} k^3 k_j
    + c3 sum_{i<j} k^2 k^2 on the a-hyper-spheroid.

    The defect integral vanishes exactly on the (3, -4, 6) ray; the flagged
    a = 1 case is trivially zero.
    """
    if abs(a - 1.0) < 1e-12:
        raise NumericError("a = 1 makes the defect trivially zero")

    def sigma(k1, kr):
        # kappa = (k1, kr, kr, kr); ordered pairs for the k^3 k term
        s4 = k1 ** 4 + 3.0 * kr ** 4
        s31 = 3.0 * k1 ** 3 * kr + 3.0 * kr ** 3 * k1 + 6.0 * kr ** 4
        s22 = 3.0 * k1 ** 2 * kr ** 2 + 3.0 * kr ** 4
        return c1 * s4 + c2 * s31 + c3 * s22

    ts, ws = gauss_on(0.0, math.pi, order)
    A = a * a * np.sin(ts) ** 2 + np.cos(ts) ** 2
    B = a * a * np.cos(ts) ** 2 + np.sin(ts) ** 2
    k1, kr = spheroid_principal_curvatures(a, ts)
    tk1, tkr = spheroid_inverted_curvatures(a, ts)
    integ = (sigma(k1, kr) - sigma(tk1, tkr) / B ** 4) * np.sqrt(A) * np.sin(ts) ** 3
    return float(np.sum(ws * integ))


def independence_matrix(avals=(math.sqrt(2), math.sqrt(3), 2.0), order: int = 48):
    """Rows (gw, r8, r8_nu) per spheroid parameter, for the rank-3 check."""
    from .manifold.shapes import spheroid as make_spheroid
    rows = []
    for a in avals:
        eb = energy_breakdown(make_spheroid(a), order=order)
        rows.append([eb.gw, eb.r8, eb.r8_nu])
    return np.asarray(rows)


def independence_defect(avals=(math.sqrt(2), math.sqrt(3), 2.0), order: int = 48) -> float:
    """Smallest relative singular value of the column-normalized value matrix.

    Rank 3 (value above threshold) certifies that no functional is a fixed
    linear combination of the other two. Normalization rescales each column
    to unit max; centering at the round-sphere values is deliberately NOT
    done: on the spheroid family (where the Weyl density vanishes
    identically) the centered values satisfy an exact affine relation
    gw - pi^2 = (9 / 8 pi^2) (r8 + r8_nu - 2 pi^4 / 3), so a centered matrix
    is singular by construction.
    """
    mat = independence_matrix(avals, order=order)
    scale = np.max(np.abs(mat), axis=0)
    mat = mat / scale[None, :]
    sv = np.linalg.svd(mat, compute_uv=False)
    return float(sv[-1] / sv[0])


# ---------------------------------------------------------------------------
# relative residue non-invariance on the 3-dimensional spheroid pair
# ---------------------------------------------------------------------------

def spheroid_relative_check(a: float, order: int = 400) -> dict:
    """Quadrature and closed-form values of the two third-relative-residue
    line integrals of the 3-dimensional a-hyper-spheroid and its inversion.

    R_a + R~_a < 2 R_1 for a > 1 exhibits the non-invariance of the relative
    residue at z = -7 for 4-dimensional bodies.
    """
    ts, ws = gauss_on(0.0, math.pi, order)
    k1, kr = spheroid_principal_curvatures(a, ts, m=3)
    tk1, tkr = spheroid_inverted_curvatures(a, ts, m=3)
    A = a * a * np.sin(ts) ** 2 + np.cos(ts) ** 2
    B = a * a * np.cos(ts) ** 2 + np.sin(ts) ** 2

    def density(x1, xr):
        # sum k^3 - sum_{i != j} k_i^2 k_j - 2 k1 k2 k3 with kappa = (x1, xr, xr)
        s3 = x1 ** 3 + 2.0 * xr ** 3
        s21 = 2.0 * x1 ** 2 * xr + 2.0 * (xr ** 2 * x1 + xr ** 3)
        prod = x1 * xr * xr
        return s3 - s21 - 2.0 * prod

    r_a = float(np.sum(ws * density(k1, kr) * np.sqrt(A) * np.sin(ts) ** 2))
    r_tilde = float(np.sum(ws * density(tk1, tkr) * np.sqrt(A) / B ** 3 * np.sin(ts) ** 2))
    r_a_closed = 5.0 * (7.0 * a ** 4 + 2.0 * a ** 2 - 1.0) * math.pi / (16.0 * a ** 4)
    r_tilde_closed = ((13.0 * a ** 10 + 153.0 * a ** 8 + 138.0 * a ** 6 + 18.0 * a ** 4
                       - 7.0 * a ** 2 + 5.0)
                      / (16.0 * a ** 4 * (a * a + 1.0) ** 3) * math.pi)
    r1 = 5.0 * math.pi / 2.0
    return {"r_a": r_a, "r_tilde": r_tilde, "r_a_closed": r_a_closed,
            "r_tilde_closed": r_tilde_closed, "r1": r1,
            "sum_below_2r1": (r_a + r_tilde) < 2.0 * r1 - 1e-12}
