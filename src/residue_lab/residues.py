"""Closed-form residue integrands evaluated by quadrature over curvature frames.

This is the curvature-formula route to the residues, independent of the
distance-profile continuation engine. Frames come from exact Taylor series
on polynomial-implicit shapes, so most integrals here converge at spectral
rate in the quadrature order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import NumericError, fmt_float
from .manifold import series
from .manifold.frames import CurvatureFrame, curvature_frame, node_sum
from .manifold.quadrature import body_volume, integration_grid
from .manifold.quadrature import sample_quadrature  # noqa: F401  (bench/spans.py wraps it here)
from .manifold.shapes import ManifoldSpec
from .oracles import ball_volume, sphere_volume


@dataclass
class ResidueReport:
    """Residue values keyed by pole location, with method tags and error estimates."""
    entries: dict = field(default_factory=dict)   # pole -> (value, method, error)
    metadata: dict = field(default_factory=dict)

    def add(self, pole: float, value: float, method: str, error: float = float("nan")):
        self.entries[float(pole)] = (float(value), method, float(error))

    def value(self, pole: float) -> float:
        return self.entries[float(pole)][0]

    def to_text(self) -> str:
        lines = ["RESIDUE-REPORT 1"]
        for key in sorted(self.metadata):
            lines.append(f"meta {key} {self.metadata[key]}")
        for pole in sorted(self.entries, reverse=True):
            v, meth, err = self.entries[pole]
            lines.append(f"residue {fmt_float(pole)} {fmt_float(v)} {meth} {fmt_float(err)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# frame iteration
# ---------------------------------------------------------------------------

# most coefficients of one stacked series in a frame block: 936 rows of an
# order-4 frame in m = 4 (70 coefficients each), and a bound on the memory
# of any tensor grid
BLOCK_COEFFS = 1 << 16


def frame_integral(spec: ManifoldSpec, fn, order: int = 32, max_order: int = 2):
    """Integral over the spec (boundary of a body) of a frame functional.

    Each node of ``integration_grid`` gets one frame, built at
    ``max_order``: one per rotation orbit on axis-symmetric shapes, one per
    tensor-grid node otherwise. The nodes come in blocks of at most
    ``BLOCK_COEFFS`` series coefficients, one stacked frame per block.
    ``fn`` maps a stacked frame to per-node values with the node axis last:
    (N,) for a scalar integrand, (k, N) or a tuple or list of k (N,) arrays
    for a vector one; a plain number stands for the same value at every
    node. A vector integrand gives the array of its component integrals.
    The weighted values are summed in node order, so each component is
    bit-identical to a scalar call with that component alone, and the sum
    does not depend on the block size.
    """
    rows = max(1, BLOCK_COEFFS // series.size(spec.surface().m, max(2, max_order)))
    total = 0.0
    for pi, u, weights in integration_grid(spec, order):
        for lo in range(0, len(u), rows):
            w = weights[lo:lo + rows]
            fr = curvature_frame(spec, u[lo:lo + rows], patch_index=pi, max_order=max_order)
            vals = _node_values(fn(fr), len(w))
            terms = np.concatenate([np.broadcast_to(total, vals.shape[:-1])[..., None],
                                    w * vals], axis=-1)
            total = np.add.accumulate(terms, axis=-1)[..., -1]
    return float(total) if np.ndim(total) == 0 else total


def _node_values(out, nodes: int) -> np.ndarray:
    """An integrand's output as an array (..., nodes)."""
    if isinstance(out, (tuple, list)):
        return np.stack([_node_values(v, nodes) for v in out])
    out = np.asarray(out, dtype=float)
    return np.broadcast_to(out, (nodes,)) if out.ndim == 0 else out


def volume(spec: ManifoldSpec, order: int = 32) -> float:
    """The m-volume of the spec (the boundary area of a body)."""
    return sum(float(w.sum()) for _, _, w in integration_grid(spec, order))


# ---------------------------------------------------------------------------
# closed submanifold residues (first two poles)
# ---------------------------------------------------------------------------

def residue_first(spec: ManifoldSpec, order: int = 32) -> float:
    """Residue at z = -m: o_{m-1} Vol(M)."""
    surf = spec.surface()
    return sphere_volume(surf.m - 1) * volume(spec, order)


def residue_second(spec: ManifoldSpec, order: int = 32) -> float:
    """Residue at z = -m-2: (o_{m-1} / 8m) int (2 ||h||^2 - |H|^2)."""
    surf = spec.surface()
    m = surf.m
    pref = sphere_volume(m - 1) / (8.0 * m)
    return pref * frame_integral(spec, lambda fr: 2.0 * fr.hs_norm_sq - fr.mean_sq,
                                 order=order, max_order=2)


def _f2_sums(frame: CurvatureFrame):
    """(sum_i |f_ii|^2, sum_{i != j} <f_ii, f_jj>, sum_{i != j} |f_ij|^2)."""
    f2 = frame.f2
    diag = np.einsum("...iiq->...iq", f2)
    s_ii = node_sum(diag ** 2, 2)
    s_iijj = node_sum(np.einsum("...iq,...jq->...ij", diag, diag), 2) - s_ii
    s_ij = node_sum(f2 ** 2, 3) - s_ii
    return s_ii, s_iijj, s_ij


def local_residue_m2(frame: CurvatureFrame):
    """Closed-form local residue at z = -m-2 (constant weight), any codimension."""
    s_ii, s_iijj, s_ij = _f2_sums(frame)
    return sphere_volume(frame.m - 1) / frame.m * (s_ii / 8.0 - s_iijj / 8.0 + s_ij / 4.0)


def local_residue_m2_nu(frame: CurvatureFrame):
    """Closed-form nu-weighted local residue at z = -m-2, any codimension."""
    s_ii, s_iijj, s_ij = _f2_sums(frame)
    return sphere_volume(frame.m - 1) / frame.m * (-3.0 * s_ii / 8.0 - s_iijj / 8.0
                                                   - s_ij / 4.0)


def scalar_from_residues(frame: CurvatureFrame):
    """Sc = -(2m / o_{m-1}) (R_nu^loc(-m-2) + 3 R^loc(-m-2))."""
    m = frame.m
    return -(2.0 * m / sphere_volume(m - 1)) * (
        local_residue_m2_nu(frame) + 3.0 * local_residue_m2(frame))


def meansq_from_residues(frame: CurvatureFrame):
    """|H|^2 = -(4m / o_{m-1}) (R_nu^loc(-m-2) + R^loc(-m-2))."""
    m = frame.m
    return -(4.0 * m / sphere_volume(m - 1)) * (
        local_residue_m2_nu(frame) + local_residue_m2(frame))


def nu_residue_second(spec: ManifoldSpec, order: int = 32) -> float:
    """nu-weighted residue at z = -m-2 by quadrature of the local formula."""
    return frame_integral(spec, local_residue_m2_nu, order=order, max_order=2)


# ---------------------------------------------------------------------------
# compact bodies
# ---------------------------------------------------------------------------

def _add_two_orders(rep: ResidueReport, at, order: int, poles) -> ResidueReport:
    """Add at(order + 4) at the poles, with |at(order + 4) - at(order)| as the error."""
    for pole, vlo, vhi in zip(poles, at(order), at(order + 4)):
        rep.add(pole, vhi, "curvature", abs(vhi - vlo))
    return rep


def body_residues(body: ManifoldSpec, order: int = 32) -> ResidueReport:
    """First three residues of a compact body, at z = -n, -n-1, -n-3."""
    if not body.is_body:
        raise NumericError("body_residues needs a body spec")
    n = body.n
    rep = ResidueReport(metadata={"kind": body.kind, "n": n})

    def at(o):
        vol = body_volume(body, o)
        area = volume(body, o)
        bh = frame_integral(body, lambda fr: 2.0 * fr.hs_norm_sq + fr.mean_sq,
                            order=o, max_order=2)
        return (sphere_volume(n - 1) * vol,
                -sphere_volume(n - 2) / (n - 1) * area,
                sphere_volume(n - 2) / (24.0 * (n * n - 1)) * bh)

    return _add_two_orders(rep, at, order, (-n, -n - 1, -n - 3))


def relative_residues(body: ManifoldSpec, order: int = 32) -> ResidueReport:
    """Relative residues at z = -n, -n-1, -n-3.

    The report's ``difference_field`` names the local density of the
    difference of boundary-local and local relative residues at -n-3,
    ``relative_difference_density``.
    """
    if not body.is_body:
        raise NumericError("relative_residues needs a body spec")
    n = body.n
    rep = ResidueReport(metadata={"kind": body.kind, "n": n, "relative": True})

    def at(o):
        area = volume(body, o)
        h_int, cube = frame_integral(
            body, lambda fr: (fr.H, 4.0 * node_sum(fr.kappa ** 3) - fr.H ** 3),
            order=o, max_order=2)
        return (sphere_volume(n - 1) / 2.0 * area,
                sphere_volume(n - 2) / (2.0 * (n - 1)) * h_int,
                sphere_volume(n - 2) / (48.0 * (n * n - 1)) * cube)

    rep.metadata["difference_field"] = relative_difference_density.__name__
    return _add_two_orders(rep, at, order, (-n, -n - 1, -n - 3))


def relative_difference_density(frame: CurvatureFrame, n: int):
    """Boundary-local minus local relative residue density at z = -n-3 of an
    n-dimensional body: o_{n-2} / (12 (n^2 - 1)) * Laplacian(H); needs f4."""
    return sphere_volume(n - 2) / (12.0 * (n * n - 1)) * frame.delta_H()


# ---------------------------------------------------------------------------
# z = -8 residues of 4-dimensional hypersurfaces
# ---------------------------------------------------------------------------

def _ordered_sum(t: np.ndarray):
    """Sum over the last axis, adding the terms in index order as a loop over
    them would; per node of a stack."""
    return np.add.accumulate(t, axis=-1)[..., -1]


def _pairs():
    """Index arrays (i, j) of the ordered pairs i != j of four directions."""
    return np.nonzero(~np.eye(4, dtype=bool))


def _pairs_and_third():
    """Index arrays (i, j, l) of four directions with i < j and l not in {i, j}."""
    return np.array([(i, j, l) for i, j in zip(*np.triu_indices(4, 1))
                     for l in range(4) if l != i and l != j]).T


def _kappa_sums(k: np.ndarray):
    """Symmetric kappa sums of a 4-D hypersurface, per node of k (..., 4)."""
    i, j = np.triu_indices(4, 1)
    p, q = _pairs()
    ti, tj, tl = _pairs_and_third()
    s_k4 = _ordered_sum(k ** 4)
    s_k2k2 = _ordered_sum(k[..., i] ** 2 * k[..., j] ** 2)
    s_kk3 = _ordered_sum(k[..., p] * k[..., q] ** 3)
    s_kkk2 = _ordered_sum(k[..., ti] * k[..., tj] * k[..., tl] ** 2)
    prod4 = np.prod(k, axis=-1)
    return s_k4, s_k2k2, s_kk3, s_kkk2, prod4


def _c_sums(fr: CurvatureFrame):
    """Sums of products of the cubic coefficients c of a 4-D hypersurface, per node."""
    c = fr.c
    r = np.arange(4)
    p, q = _pairs()
    i, j, k = np.array(list(itertools.combinations(range(4), 3))).T
    a, b, e = _pairs_and_third()
    diag = c[..., r, r, r]
    s_ciii2 = _ordered_sum(diag ** 2)
    s_ciij2 = _ordered_sum(c[..., p, p, q] ** 2)
    s_cijk2 = _ordered_sum(c[..., i, j, k] ** 2)
    s_ciik_cjjk = _ordered_sum(c[..., a, a, e] * c[..., b, b, e])
    s_ciii_cijj = _ordered_sum(diag[..., p] * c[..., p, q, q])
    return s_ciii2, s_ciij2, s_cijk2, s_ciik_cjjk, s_ciii_cijj


def _r8_sums(fr: CurvatureFrame):
    """(``_kappa_sums``, ``_c_sums``) of a frame, shared by the z = -8 integrands."""
    return _kappa_sums(fr.kappa), _c_sums(fr)


def _r8_kc(ks, cs):
    """The kappa/c polynomial of the raw local residue at z = -8, before pi^2/1536."""
    s_k4, s_k2k2, s_kk3, s_kkk2, prod4 = ks
    s_ciii2, s_ciij2, s_cijk2, _, _ = cs
    return (-63.0 * s_k4 - 26.0 * s_k2k2 + 12.0 * s_kk3 + 20.0 * s_kkk2 + 24.0 * prod4
            + 768.0 * s_ciii2 + 256.0 * s_ciij2 + 128.0 * s_cijk2)


def _r8_nu_kc(ks, cs):
    """The kappa/c polynomial of the raw nu-weighted local residue at z = -8."""
    s_k4, s_k2k2, s_kk3, s_kkk2, prod4 = ks
    s_ciii2, s_ciij2, s_cijk2, s_ciik_cjjk, s_ciii_cijj = cs
    return (105.0 * s_k4 + 54.0 * s_k2k2 + 60.0 * s_kk3 + 36.0 * s_kkk2 + 24.0 * prod4
            - 960.0 * s_ciii2 - 192.0 * s_ciij2 - 64.0 * s_cijk2
            - 128.0 * s_ciik_cjjk - 384.0 * s_ciii_cijj)


def _d_sums(fr: CurvatureFrame, h):
    """Fourth-order sums of the raw -8 integrands; h is -H (weight one) or +H (nu)."""
    k, d, h = fr.kappa, fr.d, np.asarray(h)[..., None]
    r = np.arange(4)
    i, j = np.triu_indices(4, 1)
    s_d1 = _ordered_sum((4.0 * k + h) * d[..., r, r, r, r])
    s_d2 = _ordered_sum((2.0 * k[..., i] + 2.0 * k[..., j] + h) * d[..., i, i, j, j])
    return s_d1, s_d2


def _r8_raw_pair(fr: CurvatureFrame, ks, cs):
    """(weight one, nu) local residues at z = -8, full formulas with the
    fourth-order terms (m = 4), from the frame's ``_r8_sums``."""
    H = _ordered_sum(fr.kappa)
    s_d1, s_d2 = _d_sums(fr, -H)
    nu_d1, nu_d2 = _d_sums(fr, H)
    return ((_r8_kc(ks, cs) + 192.0 * s_d1 + 64.0 * s_d2) * math.pi ** 2 / 1536.0,
            (_r8_nu_kc(ks, cs) - 192.0 * nu_d1 - 64.0 * nu_d2) * math.pi ** 2 / 1536.0)


def _delta_pieces_order3(fr: CurvatureFrame, ks, cs):
    """kappa/c parts of Delta|H|^2 and Delta Sc for a 4-D hypersurface.

    The omitted fourth-order parts cancel exactly against the d-terms of the
    raw local residues in the modified combinations below.
    """
    k = fr.kappa
    H = _ordered_sum(k)
    _, _, s_kk3, s_kkk2, _ = ks
    _, _, s_cijk2, s_ciik_cjjk, s_ciii_cijj = cs
    c = fr.c
    r = np.arange(4)
    p, q = _pairs()
    s_cijj2 = _ordered_sum(c[..., p, q, q] ** 2)
    grad_h_sq = 4.0 * _ordered_sum((2.0 * c[..., r, r, r] + np.einsum("...ijj->...i", c)) ** 2)
    delta_h_kc = -2.0 * _ordered_sum(k ** 3) - H * _ordered_sum(k ** 2)
    delta_hsq_kc = 2.0 * H * delta_h_kc + 2.0 * grad_h_sq
    delta_sc_kc = (-8.0 * s_kk3 - 4.0 * s_kkk2
                   + 48.0 * s_ciii_cijj + 16.0 * s_ciik_cjjk
                   - 16.0 * s_cijj2 - 12.0 * s_cijk2)
    return delta_hsq_kc, delta_sc_kc


def _r8_modified_pair(fr: CurvatureFrame, ks, cs):
    """(weight one, nu) order-3 integrands for the -8 residues: raw kappa/c
    parts with the d-terms traded for the Laplacian corrections (which drop
    the d's), from the frame's ``_r8_sums``."""
    dhsq, dsc = _delta_pieces_order3(fr, ks, cs)
    return (_r8_kc(ks, cs) * math.pi ** 2 / 1536.0
            - math.pi ** 2 / 384.0 * (3.0 * dhsq - 4.0 * dsc),
            _r8_nu_kc(ks, cs) * math.pi ** 2 / 1536.0
            + math.pi ** 2 / 384.0 * (5.0 * dhsq - 4.0 * dsc))


def r8_modified_densities(fr: CurvatureFrame):
    """(R(-8), R_nu(-8)) order-3 local densities from one pass of the sums."""
    return _r8_modified_pair(fr, *_r8_sums(fr))


def local_r8_raw(fr: CurvatureFrame):
    """Local residue at z = -8, full formula with fourth-order terms (m = 4)."""
    return _r8_raw_pair(fr, *_r8_sums(fr))[0]


def local_r8_nu_raw(fr: CurvatureFrame):
    """nu-weighted local residue at z = -8, full formula (m = 4)."""
    return _r8_raw_pair(fr, *_r8_sums(fr))[1]


def local_r8_modified(fr: CurvatureFrame):
    """Order-3 integrand for the -8 residue (see ``_r8_modified_pair``)."""
    return r8_modified_densities(fr)[0]


def local_r8_nu_modified(fr: CurvatureFrame):
    return r8_modified_densities(fr)[1]


def _m8_integrands(fr: CurvatureFrame):
    """(modified, raw, nu modified, nu raw) local -8 residues from one pass of the sums."""
    sums = _r8_sums(fr)
    (mod, nu_mod), (raw, nu_raw) = _r8_modified_pair(fr, *sums), _r8_raw_pair(fr, *sums)
    return mod, raw, nu_mod, nu_raw


def m8_residues(spec: ManifoldSpec, order: int = 48) -> tuple[dict, dict]:
    """(residue_m8, nu_residue_m8) of a closed 4-D hypersurface from one
    max_order=4 frame pass, both computation paths.

    'modified' integrates the order-3 integrand (no fourth derivatives);
    'raw' integrates the full local formula. On a closed manifold the two
    integrals agree because the traded terms are exact Laplacians.
    """
    surf = spec.surface()
    if surf.m != 4 or surf.codim != 1:
        raise NumericError("the z = -8 residues need a closed 4-D hypersurface")
    vals = frame_integral(spec, _m8_integrands, order=order, max_order=4)
    return tuple({"modified": mod, "raw": raw, "spread": abs(mod - raw)}
                 for mod, raw in (vals[0:2], vals[2:4]))


def residue_m8(spec: ManifoldSpec, order: int = 48) -> dict:
    """The weight-one entry of ``m8_residues``."""
    return m8_residues(spec, order)[0]


def nu_residue_m8(spec: ManifoldSpec, order: int = 48) -> dict:
    """The nu-weighted entry of ``m8_residues``."""
    return m8_residues(spec, order)[1]


# ---------------------------------------------------------------------------
# Lipschitz-Killing curvatures
# ---------------------------------------------------------------------------

def _elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """e_0 .. e_m of kappa (..., m), with the node axes last: (m + 1, ...)."""
    m = kappa.shape[-1]
    e = np.zeros((m + 1,) + kappa.shape[:-1])
    e[0] = 1.0
    for x in np.moveaxis(kappa, -1, 0):
        e[1:] = e[1:] + x * e[:-1].copy()
    return e


def lk_curvatures(body: ManifoldSpec, order: int = 32) -> list[float]:
    """Direct-path Lipschitz-Killing curvatures C_0 .. C_n of a compact body."""
    if not body.is_body:
        raise NumericError("lk_curvatures needs a body")
    n = body.n
    s_ints = frame_integral(body, lambda fr: _elementary_symmetric(fr.kappa)[:n],
                            order=order, max_order=2)
    out = []
    for k in range(n):
        out.append((-1.0) ** (n - 1 - k) / ((n - k) * ball_volume(n - k)) * s_ints[n - 1 - k])
    out.append(body_volume(body, order))
    return out  # [C_0, ..., C_n]


def lk_from_residues(body: ManifoldSpec, order: int = 32) -> dict:
    """Residue-path Lipschitz-Killing curvatures C_n .. C_{n-3}.

    Uses the four linear relations between LK curvatures and the
    residues, relative residues and boundary residues.
    """
    n = body.n
    br = body_residues(body, order)
    rr = relative_residues(body, order)
    out = {n: br.value(-n) / sphere_volume(n - 1)}
    out[n - 1] = -(n - 1) / (2.0 * sphere_volume(n - 2)) * br.value(-n - 1)
    out[n - 2] = -(n - 1) / (math.pi * sphere_volume(n - 2)) * rr.value(-n - 1)
    if n >= 3:
        bnd_second = residue_second(body.boundary, order)
        out[n - 3] = (3.0 * (n - 1) / (4.0 * math.pi * sphere_volume(n - 2))
                      * ((n + 1) * br.value(-n - 3) - bnd_second))
    return out


def steiner_volume(body: ManifoldSpec, r: float, order: int = 32) -> float:
    """Vol of the outward r-parallel body from the Steiner polynomial."""
    C = lk_curvatures(body, order)
    n = body.n
    return sum(ball_volume(k) * C[n - k] * r ** k for k in range(n + 1))


# ---------------------------------------------------------------------------
# Weyl tube coefficient, intrinsic residues, heat coefficients
# ---------------------------------------------------------------------------

def weyl_tube_k2(spec: ManifoldSpec, order: int = 32) -> dict:
    """Second Weyl tube coefficient (1/2) int Sc, direct and residue paths."""
    surf = spec.surface()
    m = surf.m
    sc, r_nu, r_one = frame_integral(
        spec, lambda fr: (fr.scalar_curvature, local_residue_m2_nu(fr), local_residue_m2(fr)),
        order=order, max_order=2)
    direct = 0.5 * sc
    residue_path = -(m / sphere_volume(m - 1)) * (r_nu + 3.0 * r_one)
    return {"direct": direct, "residues": residue_path}


@dataclass(frozen=True)
class IntrinsicData:
    """Integrated intrinsic curvature data of a closed Riemannian manifold."""
    m: int
    vol: float
    int_sc: float
    int_rm_sq: float
    int_ric_sq: float
    int_sc_sq: float


def intrinsic_residues(data: IntrinsicData) -> dict:
    """First three residues of a closed Riemannian manifold from its curvature.

    The geodesic-ball volume expansion gives R(-m) = o_{m-1} Vol,
    R(-m-2) = -(o_{m-1}/6m) int Sc, and R(-m-4) with weights (-3, 8, 5)/
    (360 m (m+2)) on (|Rm|^2, |Ric|^2, Sc^2).
    """
    m = data.m
    o = sphere_volume(m - 1)
    return {
        -m: o * data.vol,
        -m - 2: -o / (6.0 * m) * data.int_sc,
        -m - 4: o / (360.0 * m * (m + 2)) * (
            -3.0 * data.int_rm_sq + 8.0 * data.int_ric_sq + 5.0 * data.int_sc_sq),
    }


def heat_coefficients(data: IntrinsicData) -> tuple[float, float, float]:
    """Heat-trace coefficients a_0, a_1, a_2; a_2 weights are (2, -2, 5)/360."""
    a0 = data.vol
    a1 = data.int_sc / 6.0
    a2 = (2.0 * data.int_rm_sq - 2.0 * data.int_ric_sq + 5.0 * data.int_sc_sq) / 360.0
    return a0, a1, a2


def sphere_intrinsic_data(m: int, r: float = 1.0) -> IntrinsicData:
    """Closed-form intrinsic data of the round m-sphere of radius r."""
    vol = sphere_volume(m) * r ** m
    sc = m * (m - 1) / r ** 2
    rm_sq = 2.0 * m * (m - 1) / r ** 4
    ric_sq = m * (m - 1) ** 2 / r ** 4
    return IntrinsicData(m=m, vol=vol, int_sc=sc * vol, int_rm_sq=rm_sq * vol,
                         int_ric_sq=ric_sq * vol, int_sc_sq=sc ** 2 * vol)


def flat_torus_intrinsic_data(m: int, vol: float) -> IntrinsicData:
    return IntrinsicData(m=m, vol=vol, int_sc=0.0, int_rm_sq=0.0, int_ric_sq=0.0,
                         int_sc_sq=0.0)


# ---------------------------------------------------------------------------
# extrinsic ball t^6 coefficient for surfaces in R^3
# ---------------------------------------------------------------------------

def extrinsic_ball_t6(frame: CurvatureFrame) -> float:
    """Coefficient of t^6 in the extrinsic-ball volume expansion (m=2, n=3).

    (pi/9216) (-9 (h_ii)^4 + 36 (h_ij h_ij)^2 + 64 h_ij;k h_ij;k
               - 24 h_ii h_jj;kk + 72 h_ij h_ij;kk + 24 h_ij h_kk;ij),
    where the semicolons are covariant derivatives of the second fundamental
    form. Equals one sixth of the graph-method local residue at z = -6; on a
    round sphere the coefficient vanishes identically (the chord-ball area is
    exactly pi t^2).
    """
    if frame.m != 2 or frame.codim != 1:
        raise NumericError("extrinsic_ball_t6 needs a surface in R^3")
    h = frame.f2[..., 0]
    f3 = frame.f3[..., 0]
    f4 = frame.f4[..., 0]
    # At the graph origin: h_ij;k = f_ijk, and
    # h_ij;kl = d_k d_l (f_ij / sqrt g) - dGamma corrections
    #         = f_ijkl - f_ij (h^2)_kl - h_pj h_ki h_pl - h_ip h_kj h_pl.
    hk2 = h @ h
    h_d2 = (f4 - np.einsum("ij,kl->ijkl", h, hk2)
            - np.einsum("pl,ki,pj->ijkl", h, h, h)
            - np.einsum("pl,kj,ip->ijkl", h, h, h))
    trH = float(np.trace(h))
    t1 = -9.0 * trH ** 4
    t2 = 36.0 * float(np.sum(h * h)) ** 2
    t3 = 64.0 * float(np.sum(f3 ** 2))
    t4 = -24.0 * trH * float(np.einsum("jjkk->", h_d2))
    t5 = 72.0 * float(np.einsum("ij,ijkk->", h, h_d2))
    t6 = 24.0 * float(np.einsum("ij,kkij->", h, h_d2))
    return math.pi / 9216.0 * (t1 + t2 + t3 + t4 + t5 + t6)
