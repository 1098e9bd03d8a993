"""Quadrature sampling of manifold specs.

Tensor-product nodes per patch, the midpoint rule on periodic axes and
Gauss-Legendre elsewhere, with weights premultiplied by the Riemannian
volume element sqrt(det g); integrals of invariants over an axis-symmetric
shape take one node per rotation orbit (``integration_grid``).
Jacobians are exact where the patch carries one (every builtin chart and its
Moebius images); user patches and offset charts use Richardson-extrapolated
central differences. A user hypersurface patch without a ``normal`` is
oriented by its parametrization (``normals_on_patch``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .._util import NumericError
from ..oracles import sphere_volume
from .shapes import ManifoldSpec, Patch, axis_symmetric


class DegenerateJacobianError(NumericError):
    pass


@lru_cache(maxsize=64)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    return x, w


def gauss_on(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


class NodeSet:
    """Quadrature nodes of one spec, as arrays."""

    def __init__(self, u, x, w, nu=None):
        self.u = u          # (N, m)
        self.x = x          # (N, n)
        self.w = w          # (N,)
        self.nu = nu        # (N, n) or None

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())


def patch_jacobian(patch: Patch, u: np.ndarray) -> np.ndarray:
    """Jacobian d(chart)/du at rows of u, shape (N, n, m).

    Uses the analytic Jacobian when the patch carries one, otherwise
    Richardson-extrapolated central differences with step 1e-5.
    """
    u = np.atleast_2d(u)
    if patch.jacobian is not None:
        return patch.jacobian(u)
    N, m = u.shape

    def central(step):
        cols = []
        for d in range(m):
            e = np.zeros(m)
            e[d] = step
            # over the step actually taken, (u + e) - (u - e), which is exact;
            # it differs from 2 step by up to an ulp of u
            cols.append((patch.chart(u + e) - patch.chart(u - e))
                        / ((u + e)[:, d] - (u - e)[:, d])[:, None])
        return np.stack(cols, axis=2)

    j1 = central(1e-5)
    j2 = central(5e-6)
    return (4.0 * j2 - j1) / 3.0


def volume_element(patch: Patch, u: np.ndarray) -> np.ndarray:
    J = patch_jacobian(patch, u)
    g = np.einsum("nia,nib->nab", J, J)
    det = np.linalg.det(g)
    if np.any(det <= 0):
        bad = int(np.argmin(det))
        raise DegenerateJacobianError(
            f"degenerate Jacobian on patch {patch.label!r} at u={np.atleast_2d(u)[bad]}")
    return np.sqrt(det)


def _axis_rule(a: float, b: float, count: int, periodic: bool):
    """``count`` nodes and weights on [a, b]: the midpoint rule (k + 1/2) h on a
    periodic axis, where it converges spectrally (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Rev. 56, 2014), and
    Gauss-Legendre elsewhere."""
    if periodic:
        h = (b - a) / count
        return a + h * (np.arange(count) + 0.5), np.full(count, h)
    return gauss_on(a, b, count)


def patch_grid_blocks(patch: Patch, order):
    """The tensor grid of ``patch_grid``, one (u, w_param) block per node of
    the first axis: the rows whose first coordinate is that node, in grid
    order. A block's weights start from that node's weight and take the
    outer products with the other axes left to right, so the blocks
    concatenate to the whole grid's weights bit for bit."""
    counts = np.broadcast_to(order, (len(patch.box),))
    axes, wts = [], []
    for (a, b), count, periodic in zip(patch.box, counts, patch.periodic):
        xs, ws = _axis_rule(a, b, int(count), periodic)
        axes.append(xs)
        wts.append(ws)
    rest = np.meshgrid(*axes[1:], indexing="ij")
    inner = np.stack([mm.ravel() for mm in rest], axis=1) if rest else np.empty((1, 0))
    for i, x0 in enumerate(axes[0]):
        u = np.empty((len(inner), len(axes)))
        u[:, 0] = x0
        u[:, 1:] = inner
        w = wts[0][i:i + 1]
        for wi in wts[1:]:
            w = np.multiply.outer(w, wi)
        yield u, w.ravel()


def patch_grid(patch: Patch, order):
    """Tensor grid on the patch box: (u, w_param). ``order`` is the node count
    of every axis, or a sequence of one count per axis."""
    blocks = list(patch_grid_blocks(patch, order))
    return (np.concatenate([u for u, _ in blocks]),
            np.concatenate([w for _, w in blocks]))


def _tensor_blocks(surf: ManifoldSpec, order):
    """(patch index, u, w) per patch: its tensor grid, w carrying sqrt(det g)."""
    blocks = []
    for pi, patch in enumerate(surf.patches):
        u, wp = patch_grid(patch, order)
        blocks.append((pi, u, wp * volume_element(patch, u)))
    return blocks


def integration_grid(spec: ManifoldSpec, order: int):
    """(patch index, parameter rows, weights) blocks that integrate an
    isometry invariant over the spec (its boundary if the spec is a body).

    Generic shapes get the tensor grid of every patch. An invariant is
    constant on each rotation orbit {u[0] = c} of an ``axis_symmetric``
    shape, so there u[0] takes the nodes of ``_axis_rule`` and the fiber
    u[1:] its box midpoints, where every polar angle is pi/2 and the
    hyperspherical fiber density is 1: the orbit's volume is
    sqrt(det g) o_{m-1}.
    """
    surf = spec.surface()
    if not axis_symmetric(surf):
        return _tensor_blocks(surf, order)
    patch = surf.patches[0]
    u = np.tile([0.5 * (a + b) for a, b in patch.box], (order, 1))
    u[:, 0], w0 = _axis_rule(*patch.box[0], order, patch.periodic[0])
    return [(0, u, w0 * volume_element(patch, u) * sphere_volume(surf.m - 1))]


def sample_quadrature(spec: ManifoldSpec, order, with_normals: bool | None = None) -> NodeSet:
    """Quadrature nodes on the spec (its boundary if the spec is a body);
    ``order`` as in ``patch_grid``."""
    if np.min(order) < 2:
        raise ValueError("order must be >= 2")
    surf = spec.surface()
    if with_normals is None:
        with_normals = surf.codim == 1
    u_all, x_all, w_all, nu_all = [], [], [], []
    for pi, u, w in _tensor_blocks(surf, order):
        patch = surf.patches[pi]
        u_all.append(u)
        x_all.append(patch.chart(u))
        w_all.append(w)
        if with_normals:
            nu_all.append(normals_on_patch(surf, patch, u))
    nu = np.concatenate(nu_all, axis=0) if (with_normals and nu_all) else None
    return NodeSet(np.concatenate(u_all, axis=0), np.concatenate(x_all, axis=0),
                   np.concatenate(w_all), nu)


def normals_on_patch(spec: ManifoldSpec, patch: Patch, u: np.ndarray) -> np.ndarray:
    """Unit normals for a hypersurface patch, one row at a time.

    A patch's own ``normal`` wins (every builtin carries the outward one).
    Otherwise the parametrization orients the patch: nu is the normalized
    cofactor vector of the Jacobian columns, so det[nu | J] > 0, the
    outward-normal-first convention of Stokes' theorem (in R^3 also
    det[J | nu] > 0, nu ~ J_1 x J_2).
    """
    if patch.normal is not None:
        return patch.normal(u)
    if spec.codim != 1:
        raise NumericError("normals only defined for hypersurfaces")
    J = patch_jacobian(patch, u)
    if J.shape[1] == 3:
        cof = np.cross(J[:, :, 0], J[:, :, 1])  # exactly odd under a column swap
    else:
        rows = np.arange(J.shape[1])
        cof = np.stack([(-1) ** i * np.linalg.det(J[:, rows != i, :]) for i in rows], axis=1)
    return cof / np.linalg.norm(cof, axis=1, keepdims=True)


def body_volume(body: ManifoldSpec, order: int) -> float:
    """Volume of a compact body via the divergence theorem on its boundary."""
    if not body.is_body:
        raise ValueError("body_volume needs a body")
    surf = body.surface()
    flux = 0.0
    for pi, u, w in integration_grid(surf, order):
        p = surf.patches[pi]
        flux += float(np.dot(w, np.einsum("ni,ni->n", p.chart(u), normals_on_patch(surf, p, u))))
    return flux / body.n


# ---------------------------------------------------------------------------
# sphere monomial moments
# ---------------------------------------------------------------------------

def sphere_monomial_integral(m: int, exponents) -> float:
    """Integral over S^(m-1) of prod_i w_i^(e_i) for even exponents (0 otherwise).

    Uses int = o_{m-1} * prod (e_i - 1)!! / (m (m+2) ... (m + 2(s-1))) with
    s = (sum e_i)/2.
    """
    es = list(exponents) + [0] * (m - len(list(exponents)))
    if any(e % 2 for e in es):
        return 0.0
    s = sum(es) // 2
    num = 1.0
    for e in es:
        for k in range(1, e, 2):
            num *= k
    den = 1.0
    for j in range(s):
        den *= (m + 2 * j)
    return sphere_volume(m - 1) * num / den
