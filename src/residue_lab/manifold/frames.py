"""Second- to fourth-order local geometry of embedded manifolds.

A ``CurvatureFrame`` packages the graph data of the manifold over its
tangent space at a point: derivative tensors f2 (second fundamental form in
the graph frame), f3, f4, principal curvatures for hypersurfaces, and the
derived invariants (mean curvature, scalar curvature, Laplacians).

Exact Taylor expansions are used for shapes carrying an implicit
description (the polynomial builtins and their Moebius images); everything
else (user patches, ``clifford_torus``, offsets) goes through the graph probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import NumericError
from . import series as _series
from .probe import GraphProbe
from .quadrature import patch_jacobian
from .shapes import ManifoldSpec, Patch


@dataclass
class CurvatureFrame:
    """Graph-frame curvature data at a point.

    f2, f3, f4 are symmetric derivative tensors of the graph function, each
    with a trailing normal-space axis of length codim = n - m. For
    hypersurfaces the tangent basis rows are principal directions and
    ``kappa`` holds the principal curvatures in descending order; the graph
    offset is measured along the outward normal, so the unit sphere has
    kappa = -1.
    """
    x: np.ndarray
    tangent: np.ndarray            # (m, n) rows, oriented
    normal_basis: np.ndarray       # (n-m, n)
    f2: np.ndarray                 # (m, m, q)
    f3: Optional[np.ndarray] = None
    f4: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None  # (m,) hypersurface only

    @property
    def m(self) -> int:
        return self.tangent.shape[0]

    @property
    def codim(self) -> int:
        return self.normal_basis.shape[0]

    @property
    def nu(self) -> np.ndarray:
        if self.codim != 1:
            raise NumericError("unit normal defined only for hypersurfaces")
        return self.normal_basis[0]

    @property
    def mean_curvature_vector(self) -> np.ndarray:
        """H = trace of the second fundamental form, in the normal basis."""
        return np.einsum("iiq->q", self.f2)

    @property
    def H(self) -> float:
        """Scalar mean curvature sum(kappa_i) for hypersurfaces."""
        return float(self.mean_curvature_vector[0]) if self.codim == 1 else float(
            np.linalg.norm(self.mean_curvature_vector))

    @property
    def hs_norm_sq(self) -> float:
        """Hilbert-Schmidt norm squared of the second fundamental form."""
        return float(np.sum(self.f2 ** 2))

    @property
    def mean_sq(self) -> float:
        return float(np.sum(self.mean_curvature_vector ** 2))

    @property
    def scalar_curvature(self) -> float:
        """Sc = <f_ii, f_jj> - <f_ij, f_ij> summed (Gauss equation at the origin)."""
        return self.mean_sq - self.hs_norm_sq

    # --- third/fourth order monomial views (hypersurface convenience) ---

    def c_mono(self, i: int, j: int, k: int) -> float:
        """Monomial coefficient c_{ijk} of u_i u_j u_k in the graph expansion."""
        idx = tuple(sorted((i, j, k)))
        return float(self.f3[idx + (0,)]) / _mult_factor(idx)

    def d_mono(self, i: int, j: int, k: int, l: int) -> float:
        idx = tuple(sorted((i, j, k, l)))
        return float(self.f4[idx + (0,)]) / _mult_factor(idx)

    # --- Laplacian invariants at the origin ---

    def delta_sc(self) -> float:
        """Laplacian of the scalar curvature, any codimension; needs f3, f4."""
        _require(self.f3 is not None and self.f4 is not None, "delta_sc needs f3, f4")
        f2, f3, f4 = self.f2, self.f3, self.f4
        P = np.einsum("ijq,klq->ijkl", f2, f2)
        Hv = np.einsum("iiq->q", f2)
        Tr1 = np.einsum("q,ijq->ij", Hv, f2)
        M = np.einsum("ikjk->ij", P)
        t1 = -4.0 * np.einsum("ij,ikjk->", Tr1, P)
        t2 = -2.0 * np.sum(Tr1 ** 2)
        t3 = 2.0 * np.sum(P ** 2)
        t45 = 4.0 * np.sum(M ** 2)
        tr_f4 = np.einsum("jjkkq->q", f4)
        s3 = np.einsum("jjkq->kq", f3)
        t6 = 2.0 * float(np.dot(tr_f4, Hv)) + 2.0 * float(np.sum(s3 ** 2))
        lap_f2 = np.einsum("jlkkq->jlq", f4)
        t7 = -2.0 * float(np.einsum("jlq,jlq->", lap_f2, f2)) - 2.0 * float(np.sum(f3 ** 2))
        return float(t1 + t2 + t3 + t45 + t6 + t7)

    def delta_mean_sq(self) -> float:
        """Laplacian of |H|^2, any codimension; needs f3, f4."""
        _require(self.f3 is not None and self.f4 is not None, "delta_mean_sq needs f3, f4")
        f2, f3, f4 = self.f2, self.f3, self.f4
        Hv = np.einsum("iiq->q", f2)
        Tr1 = np.einsum("q,ijq->ij", Hv, f2)
        M = np.einsum("ikq,jkq->ij", f2, f2)
        u1 = -2.0 * np.sum(Tr1 ** 2)
        u2 = -4.0 * np.einsum("ij,ij->", M, Tr1)
        s3 = np.einsum("iikq->kq", f3)
        u3 = 2.0 * float(np.sum(s3 ** 2))
        u4 = 2.0 * float(np.dot(Hv, np.einsum("iillq->q", f4)))
        return float(u1 + u2 + u3 + u4)

    def delta_H(self) -> float:
        """Laplacian of the scalar mean curvature; hypersurface, any m.

        -2 sum kappa^3 - H sum kappa^2 + sum_i f_iiii + 2 sum_{i<j} f_iijj.
        """
        _require(self.codim == 1 and self.f4 is not None, "delta_H needs a hypersurface with f4")
        k = self.kappa
        H = k.sum()
        f4 = self.f4[..., 0]
        m = self.m
        quart = sum(f4[i, i, i, i] for i in range(m))
        quart += 2.0 * sum(f4[i, i, j, j] for i in range(m) for j in range(i + 1, m))
        return float(-2.0 * np.sum(k ** 3) - H * np.sum(k ** 2) + quart)

    def grad_H_sq(self) -> float:
        """|grad H|^2 at the origin from third derivatives; any codimension."""
        _require(self.f3 is not None, "grad_H_sq needs f3")
        s3 = np.einsum("iikq->kq", self.f3)
        return float(np.sum(s3 ** 2))


def _mult_factor(idx) -> float:
    fact = 1.0
    for v in set(idx):
        fact *= math.factorial(list(idx).count(v))
    return fact


def _require(cond: bool, msg: str):
    if not cond:
        raise NumericError(msg)


def _complement_basis(E: np.ndarray, n: int) -> np.ndarray:
    P = np.eye(n) - E.T @ E
    w, V = np.linalg.eigh(P)
    return V[:, w > 0.5].T


def _fix_eigvec_signs(R: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector signs: largest-magnitude component positive."""
    R = R.copy()
    for j in range(R.shape[1]):
        col = R[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            R[:, j] = -col
    return R


def _principal_rotation(f2, f3, f4):
    """Rotate graph tensors into the principal frame (codim 1 only)."""
    h = f2[:, :, 0]
    lam, R = np.linalg.eigh(h)
    order = np.argsort(-lam)
    lam = lam[order]
    R = _fix_eigvec_signs(R[:, order])
    out2 = np.einsum("ia,jb,ij->ab", R, R, h)[..., None]
    out3 = None if f3 is None else np.einsum(
        "ia,jb,kc,ijkq->abcq", R, R, R, f3)
    out4 = None if f4 is None else np.einsum(
        "ia,jb,kc,ld,ijklq->abcdq", R, R, R, R, f4)
    return lam, R, out2, out3, out4


def curvature_frame(spec: ManifoldSpec, u, patch_index: int = 0,
                    max_order: int = 4) -> CurvatureFrame:
    """Local curvature data of the spec (boundary of a body) at parameter u.

    Principal directions are eigenvectors of the shape operator, eigenvalues
    sorted descending with deterministic tie-breaking. Exact Taylor series
    are used for shapes with an implicit description; otherwise the graph
    probe.
    """
    surf = spec.surface()
    patch = surf.patches[patch_index]
    u = np.asarray(u, dtype=float).reshape(-1)
    x0 = patch.chart(u[None, :])[0]
    if surf.implicit is not None and surf.codim == 1:
        g = surf.implicit.gradient(x0[None, :])[0]
        nu = g / np.linalg.norm(g)
        E = _complement_basis(nu[None, :], surf.n)
        # orientation: tangent rows followed by nu must be positively oriented
        if np.linalg.det(np.vstack([E, nu[None, :]])) < 0:
            E = E.copy()
            E[-1] = -E[-1]
        f = _series.implicit_graph(surf.implicit.ring, x0, E, nu, max(2, max_order))
        f2 = _series.derivative_tensor(f, 2)[..., None]
        f3 = _series.derivative_tensor(f, 3)[..., None] if max_order >= 3 else None
        f4 = _series.derivative_tensor(f, 4)[..., None] if max_order >= 4 else None
        NB = nu[None, :]
    else:
        probe = GraphProbe(surf, patch, u)
        tensors = probe.derivative_tensors(max_order=max_order)
        E, NB = probe.E, probe.NB
        f2 = tensors[2]
        f3 = tensors.get(3)
        f4 = tensors.get(4)
    if surf.codim == 1:
        kappa, R, f2, f3, f4 = _principal_rotation(f2, f3, f4)
        E = R.T @ E
        if np.linalg.det(np.vstack([E, NB])) < 0:
            # keep the frame positively oriented after the principal rotation
            E = E.copy()
            E[-1] = -E[-1]
            kappa, f2, f3, f4 = _flip_last_axis(kappa, f2, f3, f4)
        return CurvatureFrame(x=x0, tangent=E, normal_basis=NB, f2=f2, f3=f3,
                              f4=f4, kappa=kappa)
    return CurvatureFrame(x=x0, tangent=E, normal_basis=NB, f2=f2, f3=f3, f4=f4)


def _flip_last_axis(kappa, f2, f3, f4):
    """Flip the sign of the last tangent direction in all graph tensors."""
    m = f2.shape[0]
    s = np.ones(m)
    s[-1] = -1.0

    def flip(t, order):
        if t is None:
            return None
        view = t
        for axis in range(order):
            shape = [1] * view.ndim
            shape[axis] = m
            view = view * s.reshape(shape)
        return view

    # kappa entries are attached to directions, but eigenvalues are sign-free
    return kappa, flip(f2, 2), flip(f3, 3), flip(f4, 4)


def oriented_tangent_frame(spec: ManifoldSpec, patch: Patch, u) -> np.ndarray:
    """Continuously oriented orthonormal tangent basis from the chart Jacobian."""
    u = np.asarray(u, dtype=float).reshape(1, -1)
    J = patch_jacobian(patch, u)[0]
    E = []
    for k in range(spec.surface().m):
        v = J[:, k].copy()
        for e in E:
            v -= np.dot(v, e) * e
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise NumericError(f"rank-deficient frame at u={u}")
        E.append(v / nv)
    return np.stack(E, axis=0)


def nu_weight(frame_x, frame_y) -> float:
    """Grassmann inner product of two oriented tangent planes.

    det of the m x m matrix of pairwise inner products of oriented
    orthonormal bases; basis-independent within each oriented plane. Accepts
    CurvatureFrames or raw (m, n) basis arrays.
    """
    Ex = frame_x.tangent if isinstance(frame_x, CurvatureFrame) else np.asarray(frame_x)
    Ey = frame_y.tangent if isinstance(frame_y, CurvatureFrame) else np.asarray(frame_y)
    if Ex.shape != Ey.shape:
        raise ValueError("frames of different shape")
    return float(np.linalg.det(Ex @ Ey.T))


def reach_estimate(spec: ManifoldSpec, order: int = 8) -> float:
    """1 / max ||h|| over a coarse frame sample; scales correctly under homothety.

    The sample takes Gauss nodes on every axis, periodic or not: they crowd
    the box ends, where the builtin charts put their curvature extremes.
    """
    surf = spec.surface()
    from .quadrature import gauss_on
    worst = 0.0
    for pi, patch in enumerate(surf.patches):
        axes = np.meshgrid(*(gauss_on(a, b, order)[0] for a, b in patch.box), indexing="ij")
        u = np.stack([ax.ravel() for ax in axes], axis=1)
        step = max(1, len(u) // 16)
        for row in u[::step]:
            fr = curvature_frame(spec, row, patch_index=pi, max_order=2)
            worst = max(worst, math.sqrt(fr.hs_norm_sq))
    if worst == 0.0:
        return math.inf
    return 1.0 / worst


def laplacian_invariants(spec: ManifoldSpec, u, patch_index: int = 0) -> dict:
    """Pointwise Laplacian invariants from fourth-order graph data.

    Returns delta_sc and delta_mean_sq for any codimension; hypersurfaces
    additionally get delta_H, and 4-dimensional ones grad_H_sq.
    """
    fr = curvature_frame(spec, u, patch_index=patch_index, max_order=4)
    out = {"delta_sc": fr.delta_sc(), "delta_mean_sq": fr.delta_mean_sq()}
    if fr.codim == 1:
        out["delta_H"] = fr.delta_H()
        if fr.m == 4:
            out["grad_H_sq"] = fr.grad_H_sq()
    return out
