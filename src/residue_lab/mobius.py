"""Moebius transformations of specs and the invariance test harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import NumericError
from .manifold.quadrature import patch_grid_blocks, patch_jacobian
from .manifold.quadrature import sample_quadrature  # noqa: F401  (bench/spans.py wraps it here)
from .manifold.shapes import ImplicitPoly, ManifoldSpec, Patch, axis_symmetric

GUARD_FRACTION = 1e-2  # minimum distance of samples to an inversion center, x diameter


@dataclass(frozen=True)
class Inversion:
    center: tuple
    radius: float = 1.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        w = np.atleast_2d(x) - c[None, :]
        n2 = np.einsum("ni,ni->n", w, w)
        return c[None, :] + self.radius ** 2 * w / n2[:, None]

    def differential(self, x: np.ndarray) -> np.ndarray:
        """rho^2/|w|^2 (I - 2 w w^T/|w|^2) at w = x - center: (N, n, n). The
        radial reflection turns outward normals inward for a center inside
        the surface (transform_spec restores outward)."""
        c = np.asarray(self.center, dtype=float)
        w = np.atleast_2d(x) - c[None, :]
        n2 = np.einsum("ni,ni->n", w, w)
        what = w / np.sqrt(n2)[:, None]
        refl = np.eye(len(c)) - 2.0 * what[:, :, None] * what[:, None, :]
        return (self.radius ** 2 / n2)[:, None, None] * refl


@dataclass(frozen=True)
class Similarity:
    scale: float = 1.0
    rotation: tuple | None = None     # row-major orthogonal matrix
    translation: tuple | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.scale * np.atleast_2d(x)
        if self.rotation is not None:
            y = y @ np.asarray(self.rotation, dtype=float).T
        if self.translation is not None:
            y = y + np.asarray(self.translation, dtype=float)[None, :]
        return y

    def matrix(self, n: int) -> np.ndarray:
        """The rotation part R of x -> s R x + t."""
        return np.eye(n) if self.rotation is None else np.asarray(self.rotation, dtype=float)

    def differential(self, x: np.ndarray) -> np.ndarray:
        """s R at every row of x: (N, n, n); a negative scale reverses normals."""
        N, n = np.atleast_2d(x).shape
        return np.broadcast_to(self.scale * self.matrix(n), (N, n, n))


@dataclass(frozen=True)
class MobiusMap:
    """Ordered composition of inversions and similarities (first entry acts first)."""
    steps: tuple = field(default_factory=tuple)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(x, dtype=float))
        for s in self.steps:
            y = s.apply(y)
        return y

    def differential(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian of the composition at every row of x: (N, n, n)."""
        y = np.atleast_2d(np.asarray(x, dtype=float))
        D = np.eye(y.shape[1])
        for s in self.steps:
            D = s.differential(y) @ D
            y = s.apply(y)
        return np.broadcast_to(D, (len(y),) + D.shape[-2:])

    def apply_normal(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """The image unit normal D nu / |D nu| (a conformal D keeps normals normal)."""
        v = np.einsum("nij,nj->ni", self.differential(x), np.atleast_2d(nu))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def check_guard(self, blocks):
        """Refuse the map when a source point comes within ``GUARD_FRACTION`` x
        the source diameter of an inversion center.

        ``blocks`` is an iterable of row blocks of source points, read once.
        Each block updates the bounding box of the source and, for every
        inversion, the least distance from its center to the block as mapped
        by the steps before it; no step after the last inversion is applied.
        The inversions are then compared in step order, so the first center
        too close is the one named. Inversion k is only compared after every
        earlier one passed, when every point went through those finitely, so
        the decision is the one a single array of all points gives. A block
        mapped past a center that then fails may overflow or divide by zero;
        that mapping runs with numpy's floating-point warnings off.
        """
        last = max((k for k, s in enumerate(self.steps) if isinstance(s, Inversion)),
                   default=None)
        if last is None:
            return
        steps = self.steps[:last + 1]
        near = [np.inf] * len(steps)   # stays inf for a similarity
        lo, hi = np.inf, -np.inf
        for x in blocks:
            y = np.atleast_2d(np.asarray(x, dtype=float))
            lo, hi = np.minimum(lo, y.min(axis=0)), np.maximum(hi, y.max(axis=0))
            with np.errstate(all="ignore"):
                for k, s in enumerate(steps):
                    if isinstance(s, Inversion):
                        d = np.linalg.norm(y - np.asarray(s.center)[None, :], axis=1)
                        near[k] = np.fmin(near[k], d.min())
                    if k < last:
                        y = s.apply(y)
        guard = GUARD_FRACTION * max(float(np.linalg.norm(hi - lo)), 1e-300)
        for s, d in zip(steps, near):
            if d < guard:
                raise NumericError(
                    f"spec intersects the guard ball around inversion center {s.center}")


def _pull_back(poly, steps, sign: float):
    """The ``poly`` form (see ``ImplicitPoly``) of sign * F o Phi^-1.

    The coordinates are pulled back through the inverse steps, last step
    first; grad F is then pushed back through the transposed differentials:
    rho^2/|w|^2 (I - 2 w w^T/|w|^2) for an inversion, R/s for a similarity
    x -> s R x + t.
    """
    def image_poly(Y, grad, ar):
        trail = []
        X = Y
        for step in reversed(steps):
            if isinstance(step, Inversion):
                W = [ar.shift(x, -c) for x, c in zip(X, step.center)]
                inv = ar.inverse(sum(ar.mul(w, w) for w in W))
                X = np.stack([ar.shift(step.radius ** 2 * ar.mul(w, inv), c)
                              for w, c in zip(W, step.center)])
                trail.append((step, W, inv))
            else:
                W = X if step.translation is None else np.stack(
                    [ar.shift(x, -c) for x, c in zip(X, step.translation)])
                X = np.tensordot(step.matrix(len(W)).T, W, axes=1) / step.scale
                trail.append((step, None, None))
        if not grad:
            return sign * poly(X, False, ar)
        F, g = poly(X, True, ar)
        for step, W, inv in reversed(trail):
            if W is None:
                g = np.tensordot(step.matrix(len(g)), g, axes=1) / step.scale
            else:
                t = 2.0 * ar.mul(inv, sum(ar.mul(w, gi) for w, gi in zip(W, g)))
                g = step.radius ** 2 * np.stack(
                    [ar.mul(inv, gi - ar.mul(t, w)) for w, gi in zip(W, g)])
        return sign * F, sign * g

    return image_poly


def _orientation(implicit: ImplicitPoly, mmap: MobiusMap) -> float:
    """-1 when the map turns the source inside out, else +1.

    The image of the inside {F < 0} is bounded, hence the inside of the
    image, unless it contains the preimage of infinity.
    """
    y = None  # the point at infinity
    for step in reversed(mmap.steps):
        if isinstance(step, Inversion):
            c = np.asarray(step.center, dtype=float)
            y = c if y is None else (None if np.array_equal(y, c) else step.apply(y)[0])
        elif y is not None:
            t = 0.0 if step.translation is None else np.asarray(step.translation, dtype=float)
            y = (y - t) @ step.matrix(len(y)) / step.scale
    if y is None:
        return 1.0
    return -1.0 if float(implicit.value(y)[0]) < 0.0 else 1.0


def _fixes_last_axis(step, n: int) -> bool:
    """The step commutes with the rotations that fix the last ambient axis."""
    if isinstance(step, Inversion):
        return not any(step.center[:n - 1])
    return ((step.translation is None or not any(step.translation[:n - 1]))
            and np.array_equal(step.matrix(n), np.eye(n)))


def transform_spec(spec: ManifoldSpec, mmap: MobiusMap) -> ManifoldSpec:
    """Compose every patch with the map; Jacobians and normals are pushed
    forward by the map's differential.

    When the source carries an implicit (the builtin quadrics and tori, and
    images of them), the image gets the exact implicit G = F o Phi^-1, so
    its curvature frames come from exact series rather than the
    finite-difference graph probe. Image and transported normals are
    oriented outward: both are negated when the map turns the source inside
    out (an inversion center inside the source).

    The image is ``axis_symmetric`` when the source is and every step fixes
    the last ambient axis: inversion centers and translations on it, no
    rotation. Its integrals then take one node per rotation orbit.
    """
    surf = spec.surface()
    mmap.check_guard(p.chart(u) for p in surf.patches for u, _ in patch_grid_blocks(p, 16))
    implicit, sign = None, 1.0
    if surf.implicit is not None:
        sign = _orientation(surf.implicit, mmap)
        implicit = ImplicitPoly(_pull_back(surf.implicit.poly, mmap.steps, sign))

    def make(p: Patch) -> Patch:
        def chart(u, _p=p):
            return mmap.apply(_p.chart(u))

        def jacobian(u, _p=p):
            return mmap.differential(_p.chart(u)) @ patch_jacobian(_p, u)

        normal = None
        if p.normal is not None:
            def normal(u, _p=p):
                return sign * mmap.apply_normal(_p.chart(u), _p.normal(u))

        return Patch(box=p.box, chart=chart, periodic=p.periodic,
                     label=p.label + "+mobius", normal=normal, jacobian=jacobian)

    patches = tuple(make(p) for p in surf.patches)
    params = {"base": surf.kind}
    if axis_symmetric(surf) and all(_fixes_last_axis(s, surf.n) for s in mmap.steps):
        params["axis_symmetric"] = True
    new_surf = ManifoldSpec(kind="transformed", m=surf.m, n=surf.n, patches=patches,
                            params=params, oriented=surf.oriented, closed=surf.closed,
                            implicit=implicit)
    if not spec.is_body:
        return new_surf
    return ManifoldSpec(kind="transformed_body", m=spec.m, n=spec.n, patches=patches,
                        params=params, is_body=True, boundary=new_surf)


def transformed_curvatures(kappa, p, nu, center=None, radius: float = 1.0):
    """Principal curvatures of the inversion image at the image of p.

    kappa_i -> -+ (|p - c|^2 kappa_i + 2 <p - c, nu>) / rho^2; both signs
    correspond to the two normal orientations of the image. The positive
    branch is returned; callers fix the sign by continuity/outwardness.
    """
    p = np.asarray(p, dtype=float)
    if np.allclose(p, 0) and center is None:
        raise NumericError("transformed_curvatures undefined at the inversion center")
    c = np.zeros_like(p) if center is None else np.asarray(center, dtype=float)
    w = p - c
    k = np.asarray(kappa, dtype=float)
    return (np.dot(w, w) * k + 2.0 * float(np.dot(w, nu))) / radius ** 2


# ---------------------------------------------------------------------------
# invariance harness
# ---------------------------------------------------------------------------

def _quantity(spec: ManifoldSpec, name: str, order: int):
    from . import conformal, continuation, residues
    if name == "residue_m4":
        return residues.residue_second(spec, order=order)
    if name == "nu_residue_m4":
        return residues.nu_residue_second(spec, order=order)
    if name == "residue_m8":
        return residues.residue_m8(spec, order=order)["modified"]
    if name == "body_residue_m6":
        if not spec.is_body or spec.n != 3:
            raise NumericError("body_residue_m6 needs a 3-dimensional body")
        return residues.body_residues(spec, order=order).value(-6)
    if name == "beta_at_-2":
        prof = continuation.distance_profile(spec, order=order)
        return float(continuation.beta_eval(prof, -2.0).value.real)
    if name == "gw":
        return conformal.graham_witten(spec, order=order)
    raise NumericError(f"unknown invariance quantity {name!r}")


def invariance_report(spec: ManifoldSpec, mmap: MobiusMap, quantity: str,
                      order: int = 32, axis_symmetric: bool = False) -> dict:
    """Recompute the selected quantity on the transformed spec from scratch;
    ``axis_symmetric=True`` raises unless ``transform_spec`` finds the image so."""
    image = transform_spec(spec, mmap)
    if axis_symmetric and not image.params.get("axis_symmetric"):
        raise NumericError("the Moebius image is not symmetric about the last axis")
    before = _quantity(spec, quantity, order)
    after = _quantity(image, quantity, order)
    return {"before": before, "after": after, "diff": abs(after - before),
            "rel": abs(after - before) / max(abs(before), 1e-300)}
