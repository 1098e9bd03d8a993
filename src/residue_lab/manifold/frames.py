"""Second- to fourth-order local geometry of embedded manifolds.

A ``CurvatureFrame`` packages the graph data of the manifold over its
tangent space at a point, or at a stack of points: derivative tensors f2
(second fundamental form in the graph frame), f3, f4, principal curvatures
for hypersurfaces, and the derived invariants (mean curvature, scalar
curvature, Laplacians).

Exact Taylor expansions are used for shapes carrying an implicit
description (the polynomial builtins and their Moebius images); everything
else (user patches, ``clifford_torus``, offsets) goes through the graph probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .._util import NumericError
from . import series as _series
from .probe import GraphProbe
from .shapes import ManifoldSpec


@dataclass
class CurvatureFrame:
    """Graph-frame curvature data at a point, or at a stack of points.

    f2, f3, f4 are symmetric derivative tensors of the graph function, each
    with a trailing normal-space axis of length codim = n - m. For
    hypersurfaces the tangent basis rows are principal directions and
    ``kappa`` holds the principal curvatures in descending order; the graph
    offset is measured along the outward normal, so the unit sphere has
    kappa = -1. A stacked frame's arrays carry a leading node axis; every
    property and method works over it and gives one value per node.
    """
    x: np.ndarray                  # (..., n)
    tangent: np.ndarray            # (..., m, n) rows, oriented
    normal_basis: np.ndarray       # (..., n-m, n)
    f2: np.ndarray                 # (..., m, m, q)
    f3: Optional[np.ndarray] = None
    f4: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None  # (..., m) hypersurface only

    @property
    def m(self) -> int:
        return self.tangent.shape[-2]

    @property
    def codim(self) -> int:
        return self.normal_basis.shape[-2]

    @property
    def nu(self) -> np.ndarray:
        if self.codim != 1:
            raise NumericError("unit normal defined only for hypersurfaces")
        return self.normal_basis[..., 0, :]

    @property
    def mean_curvature_vector(self) -> np.ndarray:
        """H = trace of the second fundamental form, in the normal basis."""
        return np.einsum("...iiq->...q", self.f2)

    @property
    def H(self):
        """Scalar mean curvature sum(kappa_i) for hypersurfaces, |H| otherwise."""
        Hv = self.mean_curvature_vector
        return Hv[..., 0] if self.codim == 1 else np.linalg.norm(Hv, axis=-1)

    @property
    def hs_norm_sq(self):
        """Hilbert-Schmidt norm squared of the second fundamental form."""
        return _sum_sq(self.f2, 3)

    @property
    def mean_sq(self):
        return _sum_sq(self.mean_curvature_vector, 1)

    @property
    def scalar_curvature(self):
        """Sc = <f_ii, f_jj> - <f_ij, f_ij> summed (Gauss equation at the origin)."""
        return self.mean_sq - self.hs_norm_sq

    # --- third/fourth order monomial views (hypersurface convenience) ---

    @functools.cached_property
    def c(self) -> np.ndarray:
        """Monomial coefficients c_{ijk} of u_i u_j u_k in the graph expansion."""
        return _monomials(self.f3, 3)

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Monomial coefficients d_{ijkl} of u_i u_j u_k u_l."""
        return _monomials(self.f4, 4)

    def c_mono(self, i: int, j: int, k: int):
        return self.c[..., i, j, k]

    def d_mono(self, i: int, j: int, k: int, l: int):
        return self.d[..., i, j, k, l]

    # --- Laplacian invariants at the origin ---

    def delta_sc(self):
        """Laplacian of the scalar curvature, any codimension; needs f3, f4."""
        _require(self.f3 is not None and self.f4 is not None, "delta_sc needs f3, f4")
        f2, f3, f4 = self.f2, self.f3, self.f4
        P = np.einsum("...ijq,...klq->...ijkl", f2, f2)
        Hv = np.einsum("...iiq->...q", f2)
        Tr1 = np.einsum("...q,...ijq->...ij", Hv, f2)
        M = np.einsum("...ikjk->...ij", P)
        t1 = -4.0 * node_sum(Tr1 * M, 2)
        t2 = -2.0 * _sum_sq(Tr1, 2)
        t3 = 2.0 * _sum_sq(P, 4)
        t45 = 4.0 * _sum_sq(M, 2)
        tr_f4 = np.einsum("...jjkkq->...q", f4)
        s3 = np.einsum("...jjkq->...kq", f3)
        t6 = 2.0 * node_sum(tr_f4 * Hv) + 2.0 * _sum_sq(s3, 2)
        lap_f2 = np.einsum("...jlkkq->...jlq", f4)
        t7 = -2.0 * node_sum(lap_f2 * f2, 3) - 2.0 * _sum_sq(f3, 4)
        return t1 + t2 + t3 + t45 + t6 + t7

    def delta_mean_sq(self):
        """Laplacian of |H|^2, any codimension; needs f3, f4."""
        _require(self.f3 is not None and self.f4 is not None, "delta_mean_sq needs f3, f4")
        f2, f3, f4 = self.f2, self.f3, self.f4
        Hv = np.einsum("...iiq->...q", f2)
        Tr1 = np.einsum("...q,...ijq->...ij", Hv, f2)
        M = np.einsum("...ikq,...jkq->...ij", f2, f2)
        u1 = -2.0 * _sum_sq(Tr1, 2)
        u2 = -4.0 * node_sum(M * Tr1, 2)
        u3 = 2.0 * _sum_sq(np.einsum("...iikq->...kq", f3), 2)
        u4 = 2.0 * node_sum(Hv * np.einsum("...iillq->...q", f4))
        return u1 + u2 + u3 + u4

    def delta_H(self):
        """Laplacian of the scalar mean curvature; hypersurface, any m.

        -2 sum kappa^3 - H sum kappa^2 + sum_i f_iiii + 2 sum_{i<j} f_iijj.
        """
        _require(self.codim == 1 and self.f4 is not None, "delta_H needs a hypersurface with f4")
        k = self.kappa
        f4 = self.f4[..., 0]
        r = np.arange(self.m)
        i, j = np.triu_indices(self.m, 1)
        quart = node_sum(f4[..., r, r, r, r]) + 2.0 * node_sum(f4[..., i, i, j, j])
        return -2.0 * node_sum(k ** 3) - node_sum(k) * node_sum(k ** 2) + quart

    def grad_H_sq(self):
        """|grad H|^2 at the origin from third derivatives; any codimension."""
        _require(self.f3 is not None, "grad_H_sq needs f3")
        return _sum_sq(np.einsum("...iikq->...kq", self.f3), 2)


def node_sum(t, ndim: int = 1):
    """Sum over the last ``ndim`` axes: per node of a stack, rounded as np.sum
    of that node's values alone, whatever the layout of the stack."""
    t = np.ascontiguousarray(t)
    return np.sum(t.reshape(t.shape[:t.ndim - ndim] + (-1,)), axis=-1)


def _sum_sq(t: np.ndarray, ndim: int):
    """Sum of squares over the last ``ndim`` axes, per node."""
    return node_sum(t ** 2, ndim)


@functools.lru_cache(maxsize=None)
def _sorted_index(m: int, order: int) -> np.ndarray:
    """Flat index of the sorted index tuple of every entry of an order-``order``
    tensor over m directions."""
    idx = np.sort(_series.tensor_exponents(m, order)[0], axis=0)
    return np.ravel_multi_index(tuple(idx), (m,) * order).reshape((m,) * order)


def _monomials(t: np.ndarray, order: int) -> np.ndarray:
    """Monomial coefficients of a derivative tensor t (..., m, ..., m, 1):
    the entry at the sorted index tuple over its multinomial factor alpha!."""
    m = t.shape[-2]
    flat = _sorted_index(m, order)
    fact = _series.tensor_exponents(m, order)[2].reshape(flat.shape)
    return t[..., 0].reshape(t.shape[:-order - 1] + (-1,))[..., flat] / fact


def _require(cond: bool, msg: str):
    if not cond:
        raise NumericError(msg)


def _complement_basis(E: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal rows spanning the complement of the rows of E (..., k, n)."""
    P = np.eye(n) - np.swapaxes(E, -1, -2) @ E
    w, V = np.linalg.eigh(P)
    # P is a projector: its ascending eigenvalues are k zeros, then n - k ones
    return np.swapaxes(V[..., E.shape[-2]:], -1, -2)


def _fix_eigvec_signs(R: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector signs: largest-magnitude component positive."""
    k = np.argmax(np.abs(R), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(R, k, axis=-2) < 0, -R, R)


def _rotate(t: np.ndarray, R: np.ndarray, order: int) -> np.ndarray:
    """t (N, m, ..., m, q) with each of its ``order`` tangent axes turned by
    R (N, m, m): out_{ab..} = sum R_{ia} R_{jb} .. t_{ij..}."""
    t = np.moveaxis(t, -1, 1)
    for _ in range(order):
        t = np.einsum("nia,nqi...->nq...a", R, t)
    return np.moveaxis(t, 1, -1)


def _principal_rotation(f2, f3, f4):
    """Rotate stacked graph tensors into the principal frame (codim 1 only)."""
    lam, R = np.linalg.eigh(f2[..., 0])
    order = np.argsort(-lam, axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    R = _fix_eigvec_signs(np.take_along_axis(R, order[..., None, :], axis=-1))
    # f2 as the one-node einsum rounds it; f3, f4 one axis at a time
    out2 = np.einsum("nia,njb,nij->nab", R, R, f2[..., 0])[..., None]
    return (lam, R, out2) + tuple(None if t is None else _rotate(t, R, k)
                                  for k, t in ((3, f3), (4, f4)))


def curvature_frame(spec: ManifoldSpec, u, patch_index: int = 0,
                    max_order: int = 4) -> CurvatureFrame:
    """Local curvature data of the spec (boundary of a body) at parameter u.

    ``u`` is one parameter row (m,), which gives one frame, or a stack of
    rows (N, m), which gives one frame whose arrays carry a leading node
    axis; each node of a stack equals its one-row frame. Principal
    directions are eigenvectors of the shape operator, eigenvalues sorted
    descending with deterministic tie-breaking. Exact Taylor series are used
    for shapes with an implicit description; otherwise the graph probe.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim >= 2:
        return _stacked_frame(spec, u, patch_index, max_order)
    fr = _stacked_frame(spec, u.reshape(1, -1), patch_index, max_order)
    return CurvatureFrame(**{f.name: None if getattr(fr, f.name) is None
                             else getattr(fr, f.name)[0] for f in fields(fr)})


def _stacked_frame(spec: ManifoldSpec, u: np.ndarray, patch_index: int,
                   max_order: int) -> CurvatureFrame:
    surf = spec.surface()
    patch = surf.patches[patch_index]
    x0 = patch.chart(u)
    if surf.implicit is not None and surf.codim == 1:
        g = np.ascontiguousarray(surf.implicit.gradient(x0))
        nu = g / np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0]  # rounds as norm(g[k])
        NB = nu[:, None, :]
        E = _complement_basis(NB, surf.n)
        # orientation: tangent rows followed by nu must be positively oriented
        E = _flip_last_row(E, np.linalg.det(np.concatenate([E, NB], axis=1)) < 0)
        deg = max(2, max_order)
        f = _series.implicit_graph(surf.implicit.ring, x0, E, nu, deg)
        tensors = {k: _series.derivative_tensor(f, k, surf.m)[..., None]
                   for k in range(2, deg + 1)}
    else:
        probes = [GraphProbe(surf, patch, row) for row in u]
        each = [p.derivative_tensors(max_order=max_order) for p in probes]
        E = np.stack([p.E for p in probes])
        NB = np.stack([p.NB for p in probes])
        tensors = {k: np.stack([t[k] for t in each]) for k in each[0]}
    f2, f3, f4 = tensors[2], tensors.get(3), tensors.get(4)
    if surf.codim != 1:
        return CurvatureFrame(x=x0, tangent=E, normal_basis=NB, f2=f2, f3=f3, f4=f4)
    kappa, R, f2, f3, f4 = _principal_rotation(f2, f3, f4)
    E = np.swapaxes(R, -1, -2) @ E
    # keep the frame positively oriented after the principal rotation; kappa
    # entries are attached to directions, but eigenvalues are sign-free
    flip = np.linalg.det(np.concatenate([E, NB], axis=1)) < 0
    E = _flip_last_row(E, flip)
    f2, f3, f4 = (_flip_last_axis(t, k, flip) for k, t in ((2, f2), (3, f3), (4, f4)))
    return CurvatureFrame(x=x0, tangent=E, normal_basis=NB, f2=f2, f3=f3, f4=f4,
                          kappa=kappa)


def _flip_last_row(E: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """E (N, m, n) with the last tangent row negated where ``flip``."""
    E = E.copy()
    E[flip, -1] = -E[flip, -1]
    return E


def _flip_last_axis(t, order: int, flip: np.ndarray):
    """Stacked graph tensor t (N, m, ..., m, q) with the last tangent
    direction negated on each of its ``order`` axes in the rows ``flip``."""
    if t is None:
        return None
    s = np.ones(t.shape[:2])
    s[flip, -1] = -1.0
    for axis in range(1, order + 1):
        shape = [len(t)] + [1] * (t.ndim - 1)
        shape[axis] = t.shape[1]
        t = t * s.reshape(shape)
    return t


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
        # one frame per sample row; a stacked frame of the rows would give the
        # same reach, since quadrics sum in order (open item in ROADMAP)
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
