"""The regularization engine.

Builds weighted interpoint-distance distributions psi_lambda(t), fits their
small-t even-polynomial model, and evaluates the analytically continued
energy function. A cut chi, 1 below e1 and 0 above e2, splits it:

    B(z) = int_0^inf t^z psi'(t) dt
         = vol sum_j abar_{2j} M_{m-1+2j}(z)            [fitted small-t part]
           + int_e1^diam t^z (1 - chi(t)) psi'(t) dt    [regular tail]

with the continued Mellin moments M_k(z) = int_0^inf t^(z+k) chi(t) dt =
-1/(z+k+1) int t^(z+k+1) chi'(t) dt (O'Hara & Solanes, "Regularized Riesz
energies of submanifolds"). The split is exact for the polynomial model;
the model residual carries a t^(m-1+2J+2) weight and is negligible against
the fit diagnostics it is reported with. Every profile takes the same
smooth C-infinity cut (delta / 4, delta), which makes the tail integrand
smooth across the diagonal, so its pair sum converges spectrally on
periodic grids.

Profiles for round circles and spheres use closed-form distance
distributions (every weight needed there depends on the chord length
only), so their bins and tail are Gauss sums of a known density. Every
other shape, closed curves included, uses global pair quadrature for the
tail and local polar quadrature around each sample point for the small-t
data.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import ConfigError, NumericError, chunked_map_reduce, fmt_float
from .manifold.frames import reach_estimate
from .manifold.quadrature import (gauss_on, gauss_rule, integration_grid, normals_on_patch,
                                  patch_jacobian, sample_quadrature, volume_element)
from .manifold.shapes import ManifoldSpec, axis_symmetric

POLE_GUARD = 1e-3
# the smooth cut of every profile: e2 = delta, which defaults to _CUT_TOP x
# reach on empirical profiles, and e1 = _CUT_RATIO x e2
_CUT_TOP = 0.75
_CUT_RATIO = 0.25
# node spacing of the pair grid on axis-symmetric shapes, in units of e2 - e1
_CUT_SPACING = 1.0 / 8.0
# the same on closed curves, which pair all N^2 nodes: the image of
# ellipse(1, 0.6) under an inversion keeps the Moebius-invariant B(-2) to
# 1.4e-3 relative at /8, 2.6e-6 at /16 and 7.7e-9 at /32 (~1M pairs)
_CURVE_SPACING = 1.0 / 32.0
# Gauss nodes on the ramp of a smooth cut
_RAMP_NODES = 64
# rounding of a bin mass, relative to the cumulative cap mass it is the
# difference of: two summation orders of the same caps (per node and per
# rotation orbit) on ellipsoid((1, 1, 0.7)) differ by up to 2e-14 of it
_MASS_RTOL = 3e-14
# radial points of one block of cap centers. An ellipse's 528-point caps
# share one Newton loop and its numpy call overhead, 31 to a block: its near
# zone took 52 ms, against 207 ms at one center per call, and 2^13 or 2^15
# points per block were no faster. A torus cap (9,600 points) stays one
# center per block; 3 or 6 to a block ran within the noise of that, and all
# 32 in one block 35% slower, on larger temporaries
_CAP_POINTS = 1 << 14
# entries of one pair chunk (4 MB per float array: the chunk's temporaries
# stay small, and the pair sum ran 16% faster than at 512 x 4096), and the
# most (row, node) pairs a profile spends on resolving its cut
_PAIR_CHUNK = 512 * 1024
_MAX_ORBIT_PAIRS = 1 << 26
# the circle on which ``_laurent`` takes the Laurent data of composite energies
_CONTOUR_RADIUS = 0.25
_CONTOUR_NODES = 24
_CONTOUR = _CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES)


class ReachError(NumericError):
    pass


class WeightKind(str, enum.Enum):
    ONE = "one"
    NU = "nu"                          # Grassmann weight of oriented tangent planes
    NORMAL_PRODUCT = "normal-product"  # <nu_x, nu_y>; equals NU on oriented hypersurfaces
    REL_BOUNDARY = "relative-boundary"          # <y - x, nu_y>
    REL_BOUNDARY_FLIPPED = "relative-boundary-flipped"  # <x - y, nu_x>


def _needs_normals(weight: WeightKind) -> bool:
    return weight in (WeightKind.NU, WeightKind.NORMAL_PRODUCT,
                      WeightKind.REL_BOUNDARY, WeightKind.REL_BOUNDARY_FLIPPED)


def _pair_weight(weight: WeightKind, x, nux, y, nuy):
    """Weight on pairs: x (..., N, n) against y (..., M, n) -> (..., N, M)."""
    if weight is WeightKind.ONE:
        return np.ones(x.shape[:-1] + y.shape[-2:-1])
    if weight in (WeightKind.NU, WeightKind.NORMAL_PRODUCT):
        return nux @ np.swapaxes(nuy, -1, -2)
    if weight is WeightKind.REL_BOUNDARY:
        return np.einsum("...nmk,...mk->...nm", y[..., None, :, :] - x[..., :, None, :], nuy)
    if weight is WeightKind.REL_BOUNDARY_FLIPPED:
        return np.einsum("...nmk,...nk->...nm", x[..., :, None, :] - y[..., None, :, :], nux)
    raise NumericError(f"unsupported weight {weight}")


@dataclass
class BetaEvaluation:
    """One evaluation of the meromorphic energy function."""
    z: complex
    value: complex
    nearest_pole: float
    residue: Optional[float]           # set only at a pole
    method: str
    at_pole: bool = False
    finite_part: Optional[complex] = None


@dataclass
class DistanceProfile:
    """Weighted interpoint-distance distribution with its small-t model.

    ``coeffs`` are the volume-normalized even coefficients abar_0, abar_2,
    ... of psi'(t) = t^(m-1) (abar_0 + abar_2 t^2 + ...), fitted on
    (0, e2]; the global residue at z = -m-2j is vol * coeffs[j]. ``cut`` is
    (e1, e2) with 0 < e1 < e2. Tail mass, weighted by 1 - chi, is stored as
    per-cell moments (sum w, sum w d, sum w d^2) from e1 up, so the tail
    integral of t^z is evaluated with a second-order midpoint correction at
    any z. A profile is plain data: ``from_text(to_text())`` evaluates
    bit-identically to it.
    """
    m: int
    vol: float
    cut: tuple[float, float]
    diam: float
    weight: str
    mode: str                      # "exact" | "empirical"
    coeffs: np.ndarray
    fit_residual: float
    fit_condition: float
    coeff_errors: np.ndarray
    tail_edges: np.ndarray
    tail_w: np.ndarray
    tail_wd: np.ndarray
    tail_wd2: np.ndarray
    kind: str = ""
    metadata: dict = field(default_factory=dict)

    # -- pole bookkeeping ---------------------------------------------------

    def poles(self) -> np.ndarray:
        return -(self.m + 2.0 * np.arange(len(self.coeffs)))

    @functools.cached_property
    def cut_rule(self) -> list:
        """(t, w) pairs of a quadrature for the density -chi'(t) dt of the cut,
        whose weights sum to 1: ``_RAMP_NODES`` Gauss nodes on its ramp, as
        Python floats."""
        e1, e2 = self.cut
        _, density = _smooth_ramp(e1, e2)
        t, w = gauss_on(e1, e2, _RAMP_NODES)
        return list(zip(t.tolist(), (w * density(t)).tolist()))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = ["RLPROFILE 1",
                 f"m {self.m}",
                 f"vol {fmt_float(self.vol)}",
                 "cut " + " ".join(fmt_float(c) for c in self.cut),
                 f"diam {fmt_float(self.diam)}",
                 f"weight {self.weight}",
                 f"mode {self.mode}",
                 f"kind {self.kind}",
                 f"fit_residual {fmt_float(self.fit_residual)}",
                 f"fit_condition {fmt_float(self.fit_condition)}",
                 "coeffs " + " ".join(fmt_float(c) for c in self.coeffs),
                 "coeff_errors " + " ".join(fmt_float(c) for c in self.coeff_errors),
                 f"tail_cells {len(self.tail_w)}"]
        for i in range(len(self.tail_w)):
            lines.append(" ".join(fmt_float(v) for v in
                                  (self.tail_edges[i], self.tail_w[i],
                                   self.tail_wd[i], self.tail_wd2[i])))
        lines.append(f"tail_end {fmt_float(self.tail_edges[-1])}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DistanceProfile":
        """Parse ``to_text`` output; NumericError on malformed or non-finite
        text, or on a cut without 0 < e1 < e2."""
        try:
            prof = cls._parse_text(text)
        except (IndexError, KeyError, ValueError) as exc:
            raise NumericError(f"unknown profile format: {exc}") from None
        numbers = np.concatenate([[prof.vol, prof.diam, prof.fit_residual,
                                   prof.fit_condition], prof.cut, prof.coeffs,
                                  prof.coeff_errors, prof.tail_edges, prof.tail_w,
                                  prof.tail_wd, prof.tail_wd2])
        if not np.all(np.isfinite(numbers)):
            raise NumericError("unknown profile format: non-finite number")
        if not 0.0 < prof.cut[0] < prof.cut[1]:
            raise NumericError("unknown profile format: the cut needs 0 < e1 < e2")
        return prof

    @classmethod
    def _parse_text(cls, text: str) -> "DistanceProfile":
        lines = [ln for ln in text.strip().splitlines()]
        if lines[0] != "RLPROFILE 1":
            raise NumericError("unknown profile format")
        kv = {}
        i = 1
        while True:
            parts = lines[i].split()
            key = parts[0]
            if key == "tail_cells":
                ncell = int(parts[1])
                i += 1
                break
            kv[key] = parts[1:]
            i += 1
        if ncell < 0:
            raise ValueError("negative tail cell count")
        edges, w, wd, wd2 = [], [], [], []
        for row in range(ncell):
            a, b, c, d = (float(v) for v in lines[i + row].split())
            edges.append(a)
            w.append(b)
            wd.append(c)
            wd2.append(d)
        key, tail_end = lines[i + ncell].split()
        if key != "tail_end":
            raise ValueError("missing tail_end")
        edges.append(float(tail_end))
        e1, e2 = (float(v) for v in kv["cut"])
        return cls(m=int(kv["m"][0]), vol=float(kv["vol"][0]),
                   cut=(e1, e2), diam=float(kv["diam"][0]),
                   weight=kv["weight"][0], mode=kv["mode"][0],
                   coeffs=np.array([float(v) for v in kv["coeffs"]]),
                   fit_residual=float(kv["fit_residual"][0]),
                   fit_condition=float(kv["fit_condition"][0]),
                   coeff_errors=np.array([float(v) for v in kv["coeff_errors"]]),
                   tail_edges=np.array(edges), tail_w=np.array(w),
                   tail_wd=np.array(wd), tail_wd2=np.array(wd2),
                   kind=kv.get("kind", [""])[0])


# ---------------------------------------------------------------------------
# round-sphere closed-form distributions
# ---------------------------------------------------------------------------

def _round_near_density(m: int, r: float, weight: WeightKind, geodesic: bool):
    """psi'_1,x(t) for the round m-sphere of radius r: o_{m-1} Lambda(t)
    t^(m-1) (1 - t^2/4r^2)^((m-2)/2) on [0, 2r] under chord distance, and
    o_{m-1} r^(m-1) sin(t/r)^(m-1) on [0, pi r] under arc length (weight one)."""
    from .oracles import sphere_volume
    o = sphere_volume(m - 1)
    if geodesic:
        return lambda t: o * r ** (m - 1) * np.sin(t / r) ** (m - 1)
    lam = _round_weight_factor(weight, r)

    def density(t):
        t = np.asarray(t, dtype=float)
        c = np.clip(1.0 - t * t / (4.0 * r * r), 0.0, None)
        return lam(t) * (o * t ** (m - 1) * c ** ((m - 2) / 2.0))

    return density


def _round_weight_factor(weight: WeightKind, r: float):
    """Distance-only weight factor Lambda(t) on the round sphere."""
    if weight is WeightKind.ONE:
        return lambda t: np.ones_like(np.asarray(t, dtype=float))
    if weight in (WeightKind.NU, WeightKind.NORMAL_PRODUCT):
        return lambda t: 1.0 - np.asarray(t, dtype=float) ** 2 / (2.0 * r * r)
    if weight in (WeightKind.REL_BOUNDARY, WeightKind.REL_BOUNDARY_FLIPPED):
        return lambda t: np.asarray(t, dtype=float) ** 2 / (2.0 * r)
    raise NumericError(f"no closed-form weight factor for {weight}")


def _round_sphere_params(spec: ManifoldSpec):
    surf = spec.surface()
    if surf.kind == "circle":
        return 1, surf.params["r"]
    if surf.kind == "sphere":
        return surf.params["m"], surf.params["r"]
    return None


# ---------------------------------------------------------------------------
# small-t fit
# ---------------------------------------------------------------------------

def _fit_even_model(m: int, edges: np.ndarray, masses: np.ndarray, ncoef: int,
                    e2: float):
    """Least squares for psi'(t) = t^(m-1) sum_j a_j t^(2j) from bin masses
    on (0, e2].

    Columns are scaled by (t / e2)^(2j), which gives each unit size there.

    Returns (coeffs, exponents, residual, condition, per-coefficient error
    estimates). The error of a coefficient combines the fit residual and the
    rounding of the bin masses (``_MASS_RTOL`` of the cumulative mass up to
    each bin), both propagated through the least-squares solve.
    """
    expo = np.arange(0, 2 * ncoef, 2)
    A = np.zeros((len(masses), len(expo)))
    for j, e in enumerate(expo):
        p = m + e
        A[:, j] = (edges[1:] ** p - edges[:-1] ** p) / p
    scale_rows = (edges[1:] ** m - edges[:-1] ** m) / m
    with np.errstate(all="ignore"):
        scale_cols = (1.0 / e2) ** expo.astype(float)
        Aw = A / scale_rows[:, None] * scale_cols[None, :]
    if not (np.all(np.isfinite(Aw)) and np.all(np.max(np.abs(Aw), axis=0) > 0.0)):
        raise NumericError(f"the small-t fit design under- or overflows at e2 = {e2:.3g}")
    bw = masses / scale_rows
    coef_scaled, res, rank, sv = np.linalg.lstsq(Aw, bw, rcond=None)
    coeffs = coef_scaled * scale_cols
    resid = Aw @ coef_scaled - bw
    dof = max(1, len(masses) - len(expo))
    sigma2 = float(resid @ resid) / dof
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    try:
        gram_inv = np.linalg.inv(Aw.T @ Aw)
    except np.linalg.LinAlgError:
        errs = np.full(len(expo), math.nan)
    else:
        solve = gram_inv @ Aw.T                     # bin values -> scaled coefficients
        rounding = (solve * (_MASS_RTOL * np.cumsum(masses) / scale_rows)[None, :]) ** 2
        errs = np.sqrt(np.clip(np.diag(gram_inv) * sigma2, 0.0, None)
                       + rounding.sum(axis=1)) * scale_cols
    return coeffs, expo, float(np.sqrt(resid @ resid / len(masses))), cond, errs


# ---------------------------------------------------------------------------
# empirical two-scale accumulation
# ---------------------------------------------------------------------------

def _bbox_diameter(x: np.ndarray) -> float:
    span = x.max(axis=0) - x.min(axis=0)
    return float(np.linalg.norm(span))


def _uniform_cell(edges, d):
    """``clip(searchsorted(edges, d, "right") - 1, 0, ncell - 1)`` for uniform edges.

    The arithmetic index floor((d - e0) / h) is off by at most one next to an
    edge, so one comparison against edges[c] and edges[c + 1] makes it exact.
    """
    ncell = len(edges) - 1
    c = (d - edges[0]) / ((edges[-1] - edges[0]) / ncell)
    np.floor(c, out=c)
    np.clip(c, 0, ncell - 1, out=c)
    c = c.astype(np.intp)
    c -= (edges[c] > d) & (c > 0)
    c += (edges[c + 1] <= d) & (c < ncell - 1)
    return c


def _bin_moments(edges, d, w):
    """(sum w, sum w d, sum w d^2) per tail cell, each summed in input order.

    Overwrites ``w``.
    """
    ncell = len(edges) - 1
    cell = _uniform_cell(edges, d)
    out = np.empty((3, ncell))
    out[0] = np.bincount(cell, w, ncell)
    w *= d
    out[1] = np.bincount(cell, w, ncell)
    w *= d
    out[2] = np.bincount(cell, w, ncell)
    return out


def _tail_moments(x, wq, nus, weight, cut, edges, workers=None, rows=None):
    """(sum w, sum w d, sum w d^2) per tail cell over the pairs (row, node)
    with d >= e1, each weighted by 1 - chi(d) for the cut (e1, e2).

    ``rows`` is (points, weights, normals) of the outer integration rows,
    by default the nodes themselves (all ordered pairs; the diagonal, at
    d = 0 < e1, drops out). On an axis-symmetric shape one row per
    rotation orbit, weighted by the orbit's volume, gives the same double
    integral: the pair weights are rotation invariant. The rows are also
    fixed by a reflection that maps the node grid onto itself, so there the
    nodes (x, wq, nus) are half of each fiber at twice the weight
    (``_pair_grid``).
    """
    xr, wr, nur = (x, wq, nus) if rows is None else rows
    e1, e2 = cut
    far, _ = _smooth_ramp(e1, e2)
    # the chunk size fixes the summation order of the result
    chunk_size = max(1, min(512, _PAIR_CHUNK // x.shape[0]))
    chunks = [np.arange(s, min(s + chunk_size, len(xr))) for s in range(0, len(xr), chunk_size)]

    def work(idx):
        xs = xr[idx]
        # per-coordinate squares: the same left-to-right sum as a reduction
        # over the short coordinate axis, without the (chunk, N, n) temporary
        d = (xs[:, None, 0] - x[None, :, 0]) ** 2
        for k in range(1, x.shape[1]):
            d += (xs[:, None, k] - x[None, :, k]) ** 2
        np.sqrt(d, out=d)
        wmat = wr[idx][:, None] * wq[None, :]
        if weight is not WeightKind.ONE:
            wmat *= _pair_weight(weight, xs, None if nur is None else nur[idx], x, nus)
        sel = d >= e1                           # the near zone drops out
        dv = d[sel]
        del d
        wv = wmat[sel]
        del wmat
        ramp = dv < e2
        if ramp.any():
            wv[ramp] *= far(dv[ramp])
        del ramp
        return _bin_moments(edges, dv, wv)

    acc = chunked_map_reduce(work, chunks, workers=workers)
    return acc[0], acc[1], acc[2]


def _pair_grid(surf, cut, order, normals):
    """(grid nodes, inner (x, w, nu), outer rows) of the tail pair sum.

    Generic shapes pair every node of the order grid with every other (rows
    None). Closed curves pair every node too, and on an axis-symmetric shape
    the outer rows are one per rotation orbit (``integration_grid``). On
    both, the per-axis node counts, at least ``order``, bring the node
    spacing in space to at most ``_CURVE_SPACING`` or ``_CUT_SPACING``
    times e2 - e1, so that the ramp of the cut is resolved; the largest
    Gauss gap is ~ pi/2 times the mean one. Where that grid has more than
    ``_MAX_ORBIT_PAIRS`` (row, node) pairs (thin curves, m >= 3, or a narrow
    ramp), the counts shrink by one common factor until it fits or they
    reach ``order``, which leaves the ramp under-resolved, as on generic
    shapes.

    An axis-symmetric shape is also invariant under the reflection of its
    last chart axis about the box midpoint (y -> -y on the torus, x0 -> -x0
    on the spherical charts), which fixes every orbit row, maps the node
    grid onto itself (index k to N-1-k on that axis) and keeps every pair
    weight. The rows therefore pair only with the nodes k < N-1-k, at twice
    their weight, and with the middle node of an odd N at its own. The grid
    nodes, which give the volume and the diameter bound, stay the full grid.
    """
    curve = surf.m == 1
    if not (curve or axis_symmetric(surf)):
        nodes = sample_quadrature(surf, order, with_normals=normals)
        return nodes, (nodes.x, nodes.w, nodes.nu), None
    patch = surf.patches[0]
    # the chart's stretch along each axis, largest on the fiber midpoints
    (_, u, _), = integration_grid(surf, order)
    stretch = np.max(np.linalg.norm(patch_jacobian(patch, u), axis=1), axis=0)
    lengths = [s * (b - a) * (1.0 if periodic else 0.5 * math.pi)
               for s, (a, b), periodic in zip(stretch, patch.box, patch.periodic)]
    # no axis needs more nodes than the whole budget
    ratio = _CURVE_SPACING if curve else _CUT_SPACING
    spacing = max(ratio * (cut[1] - cut[0]), max(lengths) / _MAX_ORBIT_PAIRS)
    counts = [max(order, math.ceil(length / spacing)) for length in lengths]
    # (rows) x (nodes): on a curve the rows are the nodes
    while counts[0] * math.prod(counts) > _MAX_ORBIT_PAIRS and max(counts) > order:
        shrink = (_MAX_ORBIT_PAIRS / (counts[0] * math.prod(counts))) ** (1.0 / (len(counts) + 1))
        counts = [max(order, math.floor(c * shrink)) for c in counts]
    nodes = sample_quadrature(surf, counts, with_normals=normals)
    if curve:
        return nodes, (nodes.x, nodes.w, nodes.nu), None
    # the last axis varies fastest in the node order
    k = np.arange(len(nodes)) % counts[-1]
    mirror = counts[-1] - 1 - k
    half = k <= mirror
    w = np.where(k < mirror, 2.0, 1.0)[half] * nodes.w[half]
    inner = (nodes.x[half], w, None if nodes.nu is None else nodes.nu[half])
    (_, u, wr), = integration_grid(surf, counts[0])
    nu = normals_on_patch(surf, patch, u) if nodes.nu is not None else None
    return nodes, inner, (patch.chart(u), wr, nu)


# names of the former sharp-cut curve path that the benchmark tracer still
# wraps; they go with the next benchmark change
_tail_moments_curve = _curve_cross = None


def _direction_set(m: int, n_ang: int):
    """Directions on the parameter-space unit sphere with quadrature weights.

    Counting measure for m=1, trapezoid on the circle for m=2, tensor
    (Gauss x trapezoid) for m=3, 4.
    """
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 2:
        ang = 2.0 * math.pi * np.arange(n_ang) / n_ang
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(n_ang, 2.0 * math.pi / n_ang)
    # m >= 3: spherical product grid
    n_pol = max(4, n_ang // 4)
    ts, ws = gauss_on(0.0, math.pi, n_pol)
    ang = 2.0 * math.pi * np.arange(n_ang) / n_ang
    wa = np.full(n_ang, 2.0 * math.pi / n_ang)
    dirs, wts = [], []
    if m == 3:
        for t, wt in zip(ts, ws):
            for a, w2 in zip(ang, wa):
                dirs.append([math.sin(t) * math.cos(a), math.sin(t) * math.sin(a),
                             math.cos(t)])
                wts.append(wt * w2 * math.sin(t))
    else:
        t2s, w2s = gauss_on(0.0, math.pi, n_pol)
        for t, wt in zip(ts, ws):
            for t2, wt2 in zip(t2s, w2s):
                for a, w2 in zip(ang, wa):
                    dirs.append([math.sin(t) * math.sin(t2) * math.cos(a),
                                 math.sin(t) * math.sin(t2) * math.sin(a),
                                 math.sin(t) * math.cos(t2), math.cos(t)])
                    wts.append(wt * wt2 * w2 * math.sin(t) ** 2 * math.sin(t2))
    return np.asarray(dirs), np.asarray(wts)


def _near_masses(spec, weight, delta, t_grid, order_sub, n_ang):
    """Bin masses of psi on (0, delta] by local polar quadrature around
    each outer node: for every direction in parameter space, root-find the
    radius where the chord distance crosses each t, then integrate the
    volume element radially.

    Cap masses and pair weights are invariant under isometries, so the outer
    nodes are those of ``integration_grid``: one per rotation orbit on an
    axis-symmetric shape. The caps solve in blocks of as many nodes as fit
    in ``_CAP_POINTS`` radial points: through the tangent graph chart with
    an implicit hypersurface (``_cap_masses_implicit``), along parameter
    rays otherwise (``_cap_masses_rays``).
    """
    surf = spec.surface()
    dirs, dirw = _direction_set(surf.m, n_ang)
    gx, gw = gauss_rule(12)
    args = (weight, t_grid, dirs, dirw, 0.5 * (gx + 1.0), 0.5 * gw)
    masses = np.zeros(len(t_grid))
    use_implicit = surf.implicit is not None and surf.codim == 1
    block = max(1, _CAP_POINTS // (len(dirs) * len(t_grid) * len(gx)))
    for pi, u0s, wq in integration_grid(surf, order_sub):
        patch = surf.patches[pi]
        for s in range(0, len(u0s), block):
            u0 = u0s[s:s + block]
            caps = (_cap_masses_implicit(surf, patch.chart(u0), *args) if use_implicit
                    else _cap_masses_rays(surf, patch, u0, *args))
            for wx, cap in zip(wq[s:s + block], caps):
                masses += wx * cap
    # cumulative caps -> per-bin masses
    return np.diff(np.concatenate([[0.0], masses]))


def _newton_rows(solve, x, data, floor, what):
    """Newton iterates x (K, P), one row per center of a block: x -= step.

    ``solve(rows, x, *data)`` returns (step, size) for the centers still
    running, ``rows``, given their rows of x and of each per-center array in
    ``data``; size is each center's step measure. A center stops once its
    size falls below a fixed tolerance, or stops shrinking below its rounding
    ``floor``, and is not updated again; NumericError after 60 steps.
    """
    x = x.copy()
    rows = np.arange(len(x))
    xa, last = x, np.full(len(x), math.inf)
    for _ in range(60):
        step, size = solve(rows, xa, *data)
        xa -= step
        done = (size < 1e-14) | ((size >= last) & (size < floor))
        last = size
        if done.any():
            x[rows[done]] = xa[done]
            keep = ~done
            if not keep.any():
                return x
            rows, xa, last, floor = rows[keep], xa[keep], last[keep], floor[keep]
            data = tuple(d[keep] for d in data)
    raise NumericError(f"{what} did not converge in 60 steps (last step {np.max(last):.3g})")


def _graph_f(imp, base, nu, f):
    """Points base + f nu on F = 0, by Newton in the offsets f from ``f``.

    One block of centers: base (K, M, n), nu (K, n), f (K, M). A center's
    rounding floor grows with the size of the shape (the torus quartic's
    terms are ~R^4 against |grad F| ~ 8 R^2 r).
    """
    def solve(rows, fa, ba, nua):
        F, g = imp.value_and_gradient(
            (ba + fa[:, :, None] * nua[:, None, :]).reshape(-1, ba.shape[2]))
        slope = (g.reshape(ba.shape) @ nua[:, :, None])[:, :, 0]
        step = F.reshape(slope.shape) / np.where(np.abs(slope) < 1e-300, 1e-300, slope)
        return step, np.max(np.abs(step), axis=1)

    floor = 1e-10 * np.maximum(1.0, np.max(np.abs(base), axis=(1, 2)))
    f = _newton_rows(solve, f, (base, nu), floor, "graph Newton around a cap center")
    return base + f[:, :, None] * nu[:, None, :]


def _cap_boundary(imp, x0, nu, e, t):
    """Cap boundary points in the tangent graph chart: (rho, f), each (K, P).

    One block of centers x0 (K, n) with normals nu (K, n), ray directions e
    (K, P, n) and chord radii t (P,). Row k of a center solves
    F(x0 + t_k (cos a e_k + sin a nu)) = 0 for the angle a on the chord
    sphere of radius t_k by Newton from a = 0, so rho = t cos a and
    f = t sin a. A center's step measure is its displacement t |step|,
    against the same tolerance and rounding floor as ``_graph_f``. A root
    past the tangent-graph sheet (nu . grad F <= 0, as beyond the equator of
    a sphere) or on the opposite ray (rho <= 0) raises NumericError.
    """
    gn = np.empty(e.shape[:2])

    def solve(rows, a, x0a, nua, ea):
        c, s = np.cos(a), np.sin(a)
        F, g = imp.value_and_gradient(
            (x0a[:, None, :] + (t * c)[:, :, None] * ea
             + (t * s)[:, :, None] * nua[:, None, :]).reshape(-1, ea.shape[2]))
        g = g.reshape(ea.shape)
        gna = (g @ nua[:, :, None])[:, :, 0]
        gn[rows] = gna
        slope = t * (c * gna - s * np.einsum("kij,kij->ki", g, ea))
        step = F.reshape(slope.shape) / np.where(np.abs(slope) < 1e-300, 1e-300, slope)
        return step, np.max(t * np.abs(step), axis=1)

    floor = 1e-10 * np.maximum(1.0, np.max(np.abs(x0), axis=1))
    a = _newton_rows(solve, np.zeros(e.shape[:2]), (x0, nu, e), floor, "cap angle Newton")
    # gn is read one step before the converged angle, enough for its sign
    rho = t * np.cos(a)
    if np.any(gn <= 0.0) or np.any(rho <= 0.0):
        raise NumericError(
            "a cap boundary point left the tangent-graph sheet (nu . grad F <= 0) "
            "or its ray (cap radius <= 0): delta is too large for the reach, "
            "or so small that the cap radius rounds to 0")
    return rho, t * np.sin(a)


def _cap_masses_implicit(surf, x0, weight, t_grid, dirs, dirw, gx, gw):
    """Cap masses (K, len(t_grid)) around a block of centers x0 (K, n),
    through the ambient tangent graph chart of each.

    Valid for hypersurfaces with a polynomial implicit F. In the tangent
    frame E at a center the surface is the graph of an offset f(s) along nu.
    Each cap boundary point, on the ray s = rho dir and at chord distance t
    from the center, comes from one angle Newton on the chord sphere
    (``_cap_boundary``). The offsets at the radial Gauss points solve
    F(x0 + E^T s + f nu) = 0 by ``_graph_f``, warm-started from the boundary
    offset scaled by gx^2. The area density is sqrt(1 + |grad_s f|^2) with
    grad_s f = -(E grad F)/(nu . grad F). Both Newtons run the whole block
    in one loop, and each center keeps its own stop rule, so a center's
    masses do not depend on the block it is solved in.
    """
    imp = surf.implicit
    m = surf.m
    # nu and E are laid out per center as a single-center solve lays them
    # out, so that each center's BLAS calls, and its masses, are the same
    # in any block
    nu = np.stack([g / np.linalg.norm(g) for g in np.ascontiguousarray(imp.gradient(x0))])
    P = np.eye(surf.n) - nu[:, :, None] * nu[:, None, :]
    # eigh sorts the single zero eigenvalue of the projector P first
    E = np.swapaxes(np.ascontiguousarray(np.linalg.eigh(P)[1][:, :, 1:]), 1, 2)  # (K, m, n)
    K, nd, nt, ng = len(x0), len(dirs), len(t_grid), len(gx)
    rho, fb = _cap_boundary(imp, x0, nu, np.repeat(dirs @ E, nt, axis=1),
                            np.tile(np.asarray(t_grid, dtype=float), nd))
    rho = rho.reshape(K, nd, nt)
    rr = rho[..., None] * gx
    S = rr.reshape(K, -1, 1) * np.repeat(dirs, nt * ng, axis=0)
    f0 = (fb.reshape(K, nd, nt, 1) * (gx * gx)).reshape(K, -1)
    y = _graph_f(imp, x0[:, None, :] + S @ E, nu, f0)
    grad = imp.gradient(y.reshape(-1, surf.n)).reshape(y.shape)
    denom = (grad @ nu[:, :, None])[:, :, 0]
    gs = -(grad @ np.swapaxes(E, 1, 2)) / denom[:, :, None]
    dens = np.sqrt(1.0 + np.sum(gs ** 2, axis=2)).reshape(rr.shape)
    lam = 1.0
    if weight is not WeightKind.ONE:
        nuy = grad / np.linalg.norm(grad, axis=2, keepdims=True)
        lam = _pair_weight(weight, x0[:, None, :], nu[:, None, :], y, nuy).reshape(rr.shape)
    integ = (dens * lam * rr ** (m - 1)) @ gw
    return dirw @ (integ * rho)


def _ray_radii(patch, u0, x0, dirs, t_grid):
    """Radii rho (K, len(dirs), len(t_grid)) where the parameter rays u0 + rho d
    of a block of centers u0 (K, m) at x0 (K, n) reach |chart - x0| = t.

    One ``_newton_rows`` loop from t / |J(u0) d|, step (|y| - t) / <y/|y|, J d>
    with y = chart - x0; a center's step measure is its largest displacement
    |J d| |step|, with the rounding floor of ``_graph_f``. A ray that wraps a
    short chart fiber has no root before the chord's maximum: a Newton that
    does not converge, a root with slope <= 0 or rho <= 0 raises ReachError.
    """
    K, m = u0.shape
    nd, nt = len(dirs), len(t_grid)
    d = np.repeat(dirs, nt, axis=0)
    t = np.tile(np.asarray(t_grid, dtype=float), nd)
    slope = np.empty((K, nd * nt))

    def solve(rows, rho, ua, x0a):
        pts = (ua[:, None, :] + rho[:, :, None] * d).reshape(-1, m)
        y = patch.chart(pts).reshape(rho.shape + (-1,)) - x0a[:, None, :]
        J = patch_jacobian(patch, pts)
        jd = np.einsum("kpia,pa->kpi", J.reshape(rho.shape + J.shape[1:]), d)
        r = np.linalg.norm(y, axis=2)
        sa = np.einsum("kpi,kpi->kp", y, jd) / r
        slope[rows] = sa
        step = (r - t) / np.where(np.abs(sa) < 1e-300, 1e-300, sa)
        return step, np.max(np.linalg.norm(jd, axis=2) * np.abs(step), axis=1)

    rho0 = t / np.linalg.norm(np.einsum("kia,pa->kpi", patch_jacobian(patch, u0), d), axis=2)
    floor = 1e-10 * np.maximum(1.0, np.max(np.abs(x0), axis=1))
    try:
        rho = _newton_rows(solve, rho0, (u0, x0), floor, "parameter-ray Newton")
        # slope is read one step before the converged radius, enough for its sign
        wrapped = np.any(slope <= 0.0) or np.any(rho <= 0.0)
    except NumericError:
        wrapped = True
    if wrapped:
        raise ReachError("a parameter ray wraps a short chart fiber before reaching "
                         "delta; reduce delta or supply an implicit description")
    return rho.reshape(K, nd, nt)


def _cap_masses_rays(surf, patch, u0, weight, t_grid, dirs, dirw, gx, gw):
    """Cap masses (K, len(t_grid)) around a block of centers u0 (K, m) of one
    patch: radial Gauss sums of sqrt(det g) lambda rho^(m-1) up to the radii
    of ``_ray_radii``, laid out per center as a one-center solve lays them
    out, so a center's masses do not depend on its block. A radial point at
    chord distance >= t raises ReachError.
    """
    m, K = surf.m, len(u0)
    x0 = patch.chart(u0)
    rho = _ray_radii(patch, u0, x0, dirs, t_grid)
    rr = rho[..., None] * gx                                     # (K, nd, nt, ng)
    flat = (u0[:, None, :] + rr.reshape(K, -1, 1)
            * np.repeat(dirs, len(t_grid) * len(gx), axis=0)).reshape(-1, m)
    sgv = volume_element(patch, flat).reshape(rr.shape)
    y = patch.chart(flat).reshape(K, -1, surf.n)
    # a chart of uneven speed can send the first guess past the chord's
    # maximum, to a root of positive slope on a later sheet; the ray then
    # leaves the cap before it
    chord = np.linalg.norm(y - x0[:, None, :], axis=2).reshape(rr.shape)
    if np.any(chord >= np.asarray(t_grid)[:, None]):
        raise ReachError("a parameter ray leaves the cap before its root: it wraps a chart "
                         "fiber; reduce delta or supply an implicit description")
    lam = 1.0
    if weight is not WeightKind.ONE:
        nu0 = normals_on_patch(surf, patch, u0)
        nuy = normals_on_patch(surf, patch, flat).reshape(y.shape)
        lam = _pair_weight(weight, x0[:, None, :], nu0[:, None, :], y, nuy).reshape(rr.shape)
    integ = (sgv * lam * rr ** (m - 1)) @ gw
    return dirw @ (integ * rho)


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def distance_profile(spec: ManifoldSpec, weight: WeightKind = WeightKind.ONE,
                     delta: float | None = None, fit_degree: int | None = None,
                     order: int | None = None, workers: int | None = None,
                     geodesic: bool = False) -> DistanceProfile:
    """Weighted interpoint-distance distribution of a closed spec.

    ``weight`` is a WeightKind or its string value (a ConfigError otherwise).
    ``delta`` is the top e2 of the fitted near zone, and every shape takes
    the smooth cut (delta / 4, delta). delta defaults to 0.2 x reach on
    round shapes and to 0.75 x estimated reach elsewhere. The number of
    even coefficients defaults to m//2 + 5 (closed-form data) or m//2 + 6
    (empirical data, whose near zone is wider).
    """
    try:
        weight = WeightKind(weight)
    except ValueError:
        raise ConfigError(f"unknown weight {weight!r}") from None
    if delta is not None and not delta > 0.0:
        raise ConfigError(f"delta must be > 0, got {delta!r}")
    surf = spec.surface()
    if surf.kind == "polygon_knot":
        raise NumericError("polygonal knots use the exact edge-pair handler (polygon_beta)")
    if not surf.closed:
        raise NumericError("distance_profile needs a closed manifold")
    m = surf.m
    if weight is WeightKind.NU and surf.codim != 1:
        raise NumericError(
            "Grassmann-weighted profiles are implemented for hypersurfaces, where "
            "the weight reduces to <nu_x, nu_y>; for higher codimension use the "
            "pointwise manifold.nu_weight")
    round_params = _round_sphere_params(spec)
    if geodesic and (round_params is None or weight is not WeightKind.ONE):
        raise NumericError("geodesic mode is implemented for round spheres, weight one")
    if round_params is not None:
        return _round_profile(spec, weight, delta, fit_degree, geodesic)
    return _empirical_profile(spec, weight, delta, fit_degree, order, workers)


def _round_profile(spec, weight, delta, fit_degree, geodesic) -> DistanceProfile:
    """Closed-form profile of a round circle or sphere of radius r.

    Chord distance by default, geodesic (arc-length) distance when
    ``geodesic``. The tail has one cell per Gauss node, with edges at the
    node midpoints: ``_RAMP_NODES`` nodes on the ramp of the cut, weighted
    by 1 - chi, then nodes up to the diameter in a variable s in which the
    tail density stays smooth: t = 2r sin(s) for chords, which absorbs the
    (1 - t^2/4r^2) endpoint factor, and t = s for arcs.
    """
    from .oracles import sphere_volume
    surf = spec.surface()
    m, r = _round_sphere_params(spec)
    vol = _round_chord_sphere_volume(m, r)
    near = _round_near_density(m, r, weight, geodesic)
    if geodesic:
        delta = 0.2 * math.pi * r if delta is None else delta
        diam, nquad, suffix = math.pi * r, 200, "-geodesic"
        s, ws = gauss_on(delta, diam, nquad)
        t, dens = s, vol * near(s)
    else:
        if delta is None:
            delta = 0.2 * r  # reach of the round sphere is r
        if delta >= 1.6 * r:
            raise ReachError(f"delta={delta} exceeds the sphere reach {r}")
        diam, nquad, suffix = 2.0 * r, 160, ""
        # psi' dt = vol o Lambda (2r sin s)^{m-1} cos^{m-1} s 2r ds
        s, ws = gauss_on(math.asin(delta / diam), 0.5 * math.pi, nquad)
        t = diam * np.sin(s)
        dens = (vol * sphere_volume(m - 1) * _round_weight_factor(weight, r)(t)
                * t ** (m - 1) * np.cos(s) ** (m - 1) * diam)
    ncoef = fit_degree if fit_degree is not None else m // 2 + 5
    nbin = max(3 * ncoef, 18)
    edges = delta * np.arange(nbin + 1) / nbin
    masses = _cell_gauss(edges, 24, lambda ts: (near(ts),))[0]
    coeffs, expo, resid, cond, errs = _fit_even_model(m, edges, masses, ncoef, delta)
    cut = (_CUT_RATIO * delta, float(delta))
    far, _ = _smooth_ramp(*cut)
    t_ramp, w_ramp = gauss_on(*cut, _RAMP_NODES)
    t = np.concatenate([t_ramp, t])
    w = np.concatenate([w_ramp * vol * near(t_ramp) * far(t_ramp), ws * dens])
    tail_edges = np.concatenate([[cut[0]], 0.5 * (t[:-1] + t[1:]), [diam]])
    return DistanceProfile(m=m, vol=vol, cut=cut, diam=diam,
                           weight=str(weight.value) + suffix, mode="exact", coeffs=coeffs,
                           fit_residual=resid, fit_condition=cond, coeff_errors=errs,
                           tail_edges=tail_edges, tail_w=w, tail_wd=w * t, tail_wd2=w * t * t,
                           kind=surf.kind + suffix, metadata={"r": r})


def _round_chord_sphere_volume(m, r) -> float:
    from .oracles import sphere_volume
    return sphere_volume(m) * r ** m


def _cell_gauss(edges, npts, integrand):
    """Gauss sums over every cell [edges[k], edges[k + 1]] of each array that
    ``integrand`` returns for the (ncell, npts) node array: shape (q, ncell).

    The batched row-by-row product is bit-identical to one np.dot per cell.
    """
    x, w = gauss_rule(npts)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    vals = np.stack(integrand(0.5 * (a + b) + half * x))
    return ((half * w)[:, None, :] @ vals[..., None])[..., 0, 0]


def _empirical_profile(spec, weight, delta, fit_degree, order, workers) -> DistanceProfile:
    surf = spec.surface()
    m = surf.m
    if m > 4:
        raise NumericError(f"empirical profiles are implemented for m <= 4, not m={m}")
    if order is None:
        order = {1: 512, 2: 64, 3: 24, 4: 12}[m]
    reach = reach_estimate(spec)
    if delta is None:
        delta = _CUT_TOP * reach
    if delta > 0.8 * reach:
        raise ReachError(f"delta={delta:.4g} above 0.8 x estimated reach {reach:.4g}")
    cut = (_CUT_RATIO * delta, float(delta))
    nodes, inner, rows = _pair_grid(surf, cut, order, _needs_normals(weight) or None)
    vol = nodes.total_weight
    # the near zone first: a delta that the caps or the fit reject fails
    # before the pair sum
    ncoef = fit_degree if fit_degree is not None else m // 2 + 6
    nbin = max(3 * ncoef + 4, 16)
    t_grid = delta * np.arange(1, nbin + 1) / nbin
    order_sub = max(6, order // 2)
    n_ang = 32
    masses = _near_masses(spec, weight, delta, t_grid, order_sub, n_ang) / vol
    bin_edges = np.concatenate([[0.0], t_grid])
    coeffs, expo, resid, cond, errs = _fit_even_model(m, bin_edges, masses, ncoef, delta)
    scale = max(abs(coeffs[0]), np.max(np.abs(coeffs)) * 1e-6, 1e-300)
    rel_resid = resid / scale
    if weight is WeightKind.ONE and rel_resid > 0.05:
        raise ReachError(
            f"small-t fit residual {rel_resid:.3g} too large; delta={delta:.4g} "
            f"likely exceeds the usable reach (estimate {reach:.4g})")
    diam_ub = _bbox_diameter(nodes.x)
    ncell = 4096
    edges = cut[0] + (diam_ub - cut[0]) * np.arange(ncell + 1) / ncell
    tw, twd, twd2 = _tail_moments(*inner, weight, cut, edges, workers=workers, rows=rows)
    return DistanceProfile(m=m, vol=vol, cut=cut, diam=diam_ub,
                           weight=str(weight.value), mode="empirical", coeffs=coeffs,
                           fit_residual=resid, fit_condition=cond, coeff_errors=errs,
                           tail_edges=edges, tail_w=tw, tail_wd=twd, tail_wd2=twd2,
                           kind=surf.kind, metadata={"order": order, "reach": reach})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _near_part(profile: DistanceProfile, z: complex, skip_j: int | None = None) -> complex:
    """Near part vol sum_j a_j M_j(z), M_j(z) = int t^p (-chi'(t)) dt / p with
    p = z + m + 2j. Term ``skip_j`` (at its pole, p = 0) is replaced by its
    finite part, -int ln t chi'(t) dt."""
    total = 0.0 + 0.0j
    rule = profile.cut_rule
    for j, a in enumerate(profile.coeffs):
        if j == skip_j:
            total += a * sum(w * math.log(t) for t, w in rule)
            continue
        p = z + profile.m + 2 * j
        total += a * sum(w * t ** p for t, w in rule) / p
    return profile.vol * total


def _tail_part(profile: DistanceProfile, z: complex) -> complex:
    w, wd, wd2 = profile.tail_w, profile.tail_wd, profile.tail_wd2
    lo, hi = profile.tail_edges[:-1], profile.tail_edges[1:]
    mid = 0.5 * (lo + hi)
    mask = w != 0.0
    # the cell's weighted mean distance, kept inside the cell: a signed
    # weight (<nu_x, nu_y>) that nearly cancels puts wd / w anywhere
    mid = np.clip(np.divide(wd, w, out=mid.copy(), where=mask), lo, hi)
    # an empty cell adds exact zeros, so its powers are not taken
    live = mask | (wd != 0.0) | (wd2 != 0.0)
    if np.any(live & (mid == 0.0)):
        raise NumericError("a weighted tail cell of the profile lies at distance 0")

    def power(p):
        return np.power(mid, p, out=np.zeros(mid.shape, np.result_type(mid, p)), where=live)

    f = power(z)
    f1 = z * power(z - 1)
    f2 = z * (z - 1) * power(z - 2)
    # second-order expansion around that point
    m2 = wd2 - 2.0 * mid * wd + mid ** 2 * w
    return complex(np.sum(f * w + f1 * (wd - mid * w) + 0.5 * f2 * m2))


def beta_eval(profile: DistanceProfile, z) -> BetaEvaluation:
    """Evaluate the continued energy function at z (a ConfigError unless finite).

    Inside the pole guard the returned value is the Hadamard finite part and
    the evaluation is flagged ``at_pole`` with the residue attached; both
    are closed form in the model, vol * abar_{2j} and the near part with
    term j replaced by its finite part.
    """
    def laurent(pole):
        j = int(round((-pole - profile.m) / 2))
        return (profile.vol * float(profile.coeffs[j]),
                _near_part(profile, pole, j) + _tail_part(profile, pole))

    return _evaluate(lambda w: _near_part(profile, w) + _tail_part(profile, w),
                     profile.poles(), z, "profile", laurent)


def _evaluate(energy, poles, z, method: str, laurent=None,
              removable: float | None = None) -> BetaEvaluation:
    """Evaluate at z (a ConfigError unless finite) an energy with simple poles at ``poles``.

    Inside the pole guard: the residue and finite part from ``laurent(pole)``,
    by default the contour rule ``_laurent``. Inside the guard of the
    removable point: the contour's regular part at z, which a difference
    quotient would lose to cancellation. Elsewhere: ``energy(z)`` alone,
    with no residue. A value or residue that is not finite in double
    precision is a NumericError.
    """
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise ConfigError(f"evaluation point z={z!r} must be finite")
    dists = [abs(zc - p) for p in poles]
    i = int(np.argmin(dists))
    pole, dist = float(poles[i]), float(dists[i])
    res = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            if dist < POLE_GUARD:
                res, val = (laurent or (lambda p: _laurent(energy, p)))(pole)
                res = res.real
            elif removable is not None and abs(zc - removable) < POLE_GUARD:
                val = _laurent(energy, removable, zc)[1]
            else:
                val = energy(zc)
    except (OverflowError, ZeroDivisionError):
        val = math.nan
    if not (cmath.isfinite(val) and math.isfinite(0.0 if res is None else res)):
        at = fmt_float(zc.real) if zc.imag == 0.0 else str(zc)
        raise NumericError(f"the energy at z={at} is not finite in double precision "
                           f"(t^z over- or underflows)")
    if dist < POLE_GUARD:
        return BetaEvaluation(z=zc, value=val, nearest_pole=pole, residue=res,
                              method=method, at_pole=True, finite_part=val)
    return BetaEvaluation(z=zc, value=val, nearest_pole=pole, residue=None,
                          method=method)


def _laurent(f, z0, z=None) -> tuple[complex, complex]:
    """(residue of f at z0, regular part of f at z), z defaulting to z0.

    Trapezoid rule on |w - z0| = _CONTOUR_RADIUS: the residue is the mean of
    (w - z0) f(w), the regular part the Cauchy integral, the mean of
    f(w) (w - z0) / (w - z), which the principal part does not reach; at
    z = z0 it is the Hadamard finite part. When z0 is the only singularity
    of f within distance 1 the error is ~ 0.25^24 (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 56, 2014). The
    nodes come in conjugate pairs, so for real z0 and z the imaginary part
    is rounding and is dropped.
    """
    z0 = complex(z0)
    z = z0 if z is None else complex(z)
    fw = np.array([f(z0 + dw) for dw in _CONTOUR])
    res = complex(np.mean(_CONTOUR * fw))
    reg = complex(np.mean(fw * _CONTOUR / (z0 + _CONTOUR - z)))
    if z0.imag == 0.0 and z.imag == 0.0:
        return complex(res.real), complex(reg.real)
    return res, reg


def residue_from_profile(profile: DistanceProfile, pole: float) -> tuple[float, float]:
    """Residue at pole z0 = -m-2j from the fitted model: vol * abar_{2j}.

    Returns (value, error estimate from the fit covariance).
    """
    j = (-float(pole) - profile.m) / 2.0
    if abs(j - round(j)) > 1e-9 or round(j) < 0:
        return 0.0, 0.0
    j = int(round(j))
    if j >= len(profile.coeffs):
        raise NumericError(f"pole {pole} beyond fitted degree (J={len(profile.coeffs) - 1})")
    err = profile.vol * float(profile.coeff_errors[j]) if j < len(profile.coeff_errors) else math.nan
    return profile.vol * float(profile.coeffs[j]), err


def hadamard_finite_part(profile: DistanceProfile, z0) -> complex:
    """lim_{w->z0} (B(w) - Res/(w - z0)); equals B(z0) away from the poles."""
    return beta_eval(profile, z0).value


# ---------------------------------------------------------------------------
# compact bodies: boundary reduction and relative energy
# ---------------------------------------------------------------------------

def body_profile(body: ManifoldSpec, **kw) -> DistanceProfile:
    """nu-weighted profile of the boundary, the ingredient of the body energy."""
    if not body.is_body:
        raise NumericError("body_profile needs a body spec")
    return distance_profile(body.boundary, weight=WeightKind.NORMAL_PRODUCT, **kw)


def body_beta(body: ManifoldSpec, z, profile: DistanceProfile | None = None,
              **kw) -> BetaEvaluation:
    """Energy function of a compact body via the boundary reduction

        B_Omega(z) = -1/((z+2)(z+n)) B_{boundary, nu}(z+2).

    Its poles are -n and the boundary poles shifted by -2; z = -2 is
    removable (the nu-weighted boundary energy vanishes at 0).
    """
    n = body.n
    prof = profile if profile is not None else body_profile(body, **kw)
    return _evaluate(lambda w: -beta_eval(prof, w + 2).value / ((w + 2) * (w + n)),
                     [-float(n)] + list(prof.poles() - 2.0), z, "boundary-reduction",
                     removable=-2.0)


def body_residue_from_profile(body: ManifoldSpec, pole: float,
                              profile: DistanceProfile | None = None, **kw) -> float:
    """Residue of the body energy function at -n or -n-1-2j via the boundary profile."""
    be = body_beta(body, pole, profile, **kw)
    return be.residue if be.at_pole else 0.0


def relative_profile(body: ManifoldSpec, **kw) -> DistanceProfile:
    return distance_profile(body.boundary, weight=WeightKind.REL_BOUNDARY, **kw)


def relative_beta(body: ManifoldSpec, z, profile: DistanceProfile | None = None,
                  **kw) -> BetaEvaluation:
    """Relative energy function B(z) = (1/(z+n)) int int |x-y|^z <y-x, nu_y>."""
    n = body.n
    prof = profile if profile is not None else relative_profile(body, **kw)
    return _evaluate(lambda w: beta_eval(prof, w).value / (w + n),
                     [-float(n)] + list(prof.poles()), z, "boundary-reduction")


# ---------------------------------------------------------------------------
# polygonal knots: exact per-edge-pair continuation
# ---------------------------------------------------------------------------

def _corner_phi_integrals(L1, L2, costh, z, nphi=200):
    """Continuation of int over [0,L1]x[0,L2] of (s^2+t^2-2 s t cos)^{z/2}.

    Polar split at the shared vertex: two triangles, each entire in z apart
    from the explicit 1/(z+2).
    """
    phi_star = math.atan2(L2, L1)
    total = 0.0 + 0.0j
    for (a, b, Lref, trig) in ((0.0, phi_star, L1, np.cos),
                               (phi_star, 0.5 * math.pi, L2, np.sin)):
        ph, wp = gauss_on(a, b, nphi)
        q = 1.0 - np.sin(2.0 * ph) * costh
        rmax = Lref / trig(ph)
        total += np.sum(wp * q ** (complex(z) / 2.0) * rmax ** (complex(z) + 2.0))
    return total / (complex(z) + 2.0)


def polygon_beta(vertices, z, order: int = 32) -> BetaEvaluation:
    """Energy function of a closed polygonal knot; poles only at -1 and -2.

    Self pairs and vertex-adjacent pairs are continued in closed form (polar
    split), distant pairs are entire and integrated by tensor Gauss rules.
    """
    return _evaluate(lambda w: _polygon_value(vertices, w, order), (-1.0, -2.0), z,
                     "profile")


def _polygon_value(vertices, z, order: int) -> complex:
    """Continued energy of the polygon at z off its poles, summed over edge pairs."""
    zc = complex(z)
    starts = np.asarray(vertices, dtype=float)
    vecs = np.roll(starts, -1, axis=0) - starts
    lens = np.linalg.norm(vecs, axis=1)
    k = len(starts)
    total = 0.0 + 0.0j
    # self pairs
    for L in lens:
        total += 2.0 * L ** (zc + 2.0) / ((zc + 1.0) * (zc + 2.0))
    gx, gw = gauss_rule(order)
    s01 = 0.5 * (gx + 1.0)
    w01 = 0.5 * gw
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                # adjacent: the corner at the end of edge i / start of j (cyclic)
                d1, d2 = (-vecs[i], vecs[j]) if j == i + 1 else (vecs[0], -vecs[j])
                L1, L2 = np.linalg.norm(d1), np.linalg.norm(d2)
                costh = float(np.dot(d1, d2) / (L1 * L2))
                total += 2.0 * _corner_phi_integrals(L1, L2, costh, zc)
            else:
                p = starts[i][None, :] + s01[:, None] * vecs[i][None, :]
                q = starts[j][None, :] + s01[:, None] * vecs[j][None, :]
                d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
                total += 2.0 * lens[i] * lens[j] * np.einsum(
                    "i,ij,j->", w01, d ** zc, w01)
    return total


def _smooth_ramp(a: float, b: float):
    """C-infinity ramp, 0 below a and 1 above b, as (ramp, density): the
    ramp f(s) / (f(s) + f(1 - s)) with f(s) = exp(-1/s) on s = (d - a)/(b - a),
    and its derivative in d."""

    def parts(d):
        s = np.clip((np.asarray(d, dtype=float) - a) / (b - a), 0.0, 1.0)
        fa, fb = np.zeros_like(s), np.zeros_like(s)
        lo, hi = s > 0.0, s < 1.0
        fa[lo] = np.exp(-1.0 / s[lo])
        fb[hi] = np.exp(-1.0 / (1.0 - s[hi]))
        return s, fa, fb

    def ramp(d):
        _, fa, fb = parts(d)
        return fa / (fa + fb + 1e-300)

    def density(d):
        s, fa, fb = parts(d)
        inner = (s > 0) & (s < 1)
        out = np.zeros_like(s)
        si = s[inner]
        out[inner] = (fa[inner] * fb[inner] * (1.0 / si ** 2 + 1.0 / (1.0 - si) ** 2)
                      / ((fa[inner] + fb[inner]) ** 2 * (b - a)))
        return out

    return ramp, density
