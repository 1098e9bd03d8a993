"""Graph probe for generic parametric patches.

Re-expresses the manifold near a base point as a graph over its tangent
space by Newton-solving the chart, then extracts derivative tensors of the
graph function with Richardson-extrapolated central differences. Used
whenever no exact implicit expansion is available: user patches, codimension
> 1 (``clifford_torus``), parallel offsets, and Moebius images of those.
Images of the builtin quadrics and tori carry an exact implicit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .._util import NumericError
from .quadrature import normals_on_patch, patch_jacobian
from .shapes import ManifoldSpec, Patch

# 1-D central stencils (offset -> coefficient), error O(h^2); tensorized for
# mixed partials and Richardson-extrapolated over 3 step sizes to O(h^6).
_STENCIL_1D = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


def _tensor_stencil(orders):
    """Tensor product of 1-D stencils: yields (offset tuple, coeff)."""
    parts = [_STENCIL_1D[k].items() for k in orders]
    for combo in itertools.product(*parts):
        off = tuple(c[0] for c in combo)
        coeff = 1.0
        for c in combo:
            coeff *= c[1]
        yield off, coeff


def _multi_indices(m: int, order: int):
    """Non-decreasing index tuples of the given length over range(m)."""
    return list(itertools.combinations_with_replacement(range(m), order))


class GraphProbe:
    """Tangent-frame graph of a patch around u0.

    The tangent basis comes from Gram-Schmidt of the Jacobian columns (so it
    varies continuously with u0 and carries the patch orientation); the
    normal space is the orthogonal complement. For hypersurfaces the normal
    takes the orientation of ``normals_on_patch``.
    """

    def __init__(self, spec: ManifoldSpec, patch: Patch, u0):
        self.spec = spec
        self.patch = patch
        self.u0 = np.asarray(u0, dtype=float).reshape(-1)
        self.m = spec.m
        self.n = spec.n
        self.x0 = patch.chart(self.u0[None, :])[0]
        J = patch_jacobian(patch, self.u0[None, :])[0]  # (n, m)
        # Gram-Schmidt on Jacobian columns
        E = []
        for k in range(self.m):
            v = J[:, k].copy()
            for e in E:
                v -= np.dot(v, e) * e
            nv = np.linalg.norm(v)
            if nv < 1e-10:
                raise NumericError(
                    f"rank-deficient tangent frame on {patch.label!r} at u={self.u0}")
            E.append(v / nv)
        self.E = np.stack(E, axis=0)  # (m, n)
        # orthonormal complement, deterministic
        P = np.eye(self.n) - self.E.T @ self.E
        w, V = np.linalg.eigh(P)
        NB = V[:, w > 0.5].T
        if self.n - self.m == 1 and np.dot(
                NB[0], normals_on_patch(spec, patch, self.u0[None, :])[0]) < 0:
            NB = -NB
        self.NB = NB  # (n-m, n)
        self.JtE = self.E @ J  # (m, m), initial Newton matrix

    def graph_values(self, S: np.ndarray) -> np.ndarray:
        """f(s) for tangent offsets S (N, m); returns (N, n-m).

        Quasi-Newton with the frozen base-point matrix E J(u0); offsets stay
        well inside the curvature radius, so the contraction is strong. The
        absolute stop 1e-14 need not fire on a large shape, so the solve is
        accepted once the last residual is within the rounding floor of
        ``continuation._graph_f``, 1e-10 max(1, |x0|); NumericError
        otherwise, a NaN residual included.
        """
        S = np.atleast_2d(S)
        A = self.JtE
        U = np.repeat(self.u0[None, :], S.shape[0], axis=0)
        for _ in range(24):
            X = self.patch.chart(U)
            res = (X - self.x0[None, :]) @ self.E.T - S
            U = U - np.linalg.solve(A, res.T).T
            if np.max(np.abs(res)) < 1e-14:
                break
        resid = np.max(np.abs(res))
        if not resid <= 1e-10 * max(1.0, np.max(np.abs(self.x0))):
            raise NumericError(f"graph probe Newton did not converge on {self.patch.label!r} "
                               f"at u={self.u0} (residual {resid:.3g})")
        X = self.patch.chart(U)
        return (X - self.x0[None, :]) @ self.NB.T

    def derivative_tensors(self, max_order: int = 2, rho: float | None = None):
        """Symmetric derivative tensors {2: f2, 3: f3, 4: f4} of the graph at 0.

        Step sizes follow the curvature-radius scaling rule rho = min(1,
        1/max|kappa|). Second and third derivatives share the step 2e-2 rho:
        after Richardson extrapolation to O(h^6) the truncation there is
        below the rounding of the graph values, which a finer step
        amplifies (3e-3 rho leaves ~1e-9 node-to-node noise in the Clifford
        torus curvature, 2e-2 rho ~4e-11). Fourth derivatives take 5e-2 rho.
        """
        if rho is None:
            f2_probe = self._fd_tensor(2, 1e-2)
            norm2 = np.sqrt(np.sum(f2_probe ** 2))
            rho = min(1.0, 1.0 / max(norm2, 1e-9))
        out = {2: self._fd_tensor(2, max(2e-2 * rho, 1e-5))}
        if max_order >= 3:
            out[3] = self._fd_tensor(3, 2e-2 * rho)
        if max_order >= 4:
            out[4] = self._fd_tensor(4, 5e-2 * rho)
        return out

    def _fd_tensor(self, order: int, h: float) -> np.ndarray:
        """Richardson-extrapolated FD tensors of exactly the given order."""
        q = self.n - self.m
        idxs = _multi_indices(self.m, order)
        # gather all stencil points for all index tuples and 3 step scales
        pts = {}
        plans = []
        for idx in idxs:
            orders = [0] * self.m
            for i in idx:
                orders[i] += 1
            terms = list(_tensor_stencil(orders))
            plans.append((idx, orders, terms))
            for off, _ in terms:
                for scale in (1.0, 0.5, 0.25):
                    key = tuple(o * scale for o in off)
                    pts.setdefault(key, None)
        keys = sorted(pts.keys())
        S = np.array(keys, dtype=float) * h
        vals = self.graph_values(S)
        lut = {k: vals[i] for i, k in enumerate(keys)}
        tensor = np.zeros((self.m,) * order + (q,))
        for idx, orders, terms in plans:
            ests = []
            for scale in (1.0, 0.5, 0.25):
                acc = np.zeros(q)
                for off, coeff in terms:
                    acc += coeff * lut[tuple(o * scale for o in off)]
                ests.append(acc / (h * scale) ** order)
            r1 = (4.0 * ests[1] - ests[0]) / 3.0
            r2 = (4.0 * ests[2] - ests[1]) / 3.0
            best = (16.0 * r2 - r1) / 15.0
            for perm in set(itertools.permutations(idx)):
                tensor[perm] = best
        return tensor
