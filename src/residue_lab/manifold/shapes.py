"""Manifold and body descriptions plus the builtin shape catalogue.

A ``ManifoldSpec`` carries parametric patches (vectorized chart maps), an
optional polynomial implicit description used for exact curvature data, and
body/boundary structure. All other modules consume only this type.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .._util import ConfigError
from . import series


@dataclass(frozen=True)
class Patch:
    """One parametric chart: ``chart`` maps (N, m) parameter rows to (N, n) points."""
    box: tuple[tuple[float, float], ...]
    chart: Callable[[np.ndarray], np.ndarray]
    periodic: tuple[bool, ...]
    label: str = "patch0"
    normal: Optional[Callable[[np.ndarray], np.ndarray]] = None  # hypersurfaces
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (N, n, m)


@dataclass(frozen=True)
class ImplicitPoly:
    """Implicit description F(x) = 0 of a hypersurface, F < 0 inside.

    F is a polynomial for the builtin shapes and F o Phi^-1 for their
    Moebius images, written once as ``poly(X, grad, ar)``: F, or (F, grad F)
    when ``grad`` is set, on stacked coordinates X of shape (n, ...), in the
    arithmetic ``ar`` (``mul``, ``inverse``, ``shift``). ``ring`` runs it on
    truncated series in m variables, each X[i] one series or a stack of them
    (``series.batched``, for ``series.implicit_graph``); the other methods on
    (N, n) point rows (``series.POINTS``). grad F is the outward
    (un-normalized) normal field.
    """
    poly: Callable

    def ring(self, X: np.ndarray, grad: bool, m: int):
        return self.poly(X, grad, series.batched(m))

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.poly(np.ascontiguousarray(np.atleast_2d(x).T), False, series.POINTS)

    def value_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F, g = self.poly(np.ascontiguousarray(np.atleast_2d(x).T), True, series.POINTS)
        return F, g.T

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    m: int
    n: int
    patches: tuple[Patch, ...]
    params: dict = field(default_factory=dict)
    oriented: bool = True
    closed: bool = True
    is_body: bool = False
    implicit: Optional[ImplicitPoly] = None
    boundary: Optional["ManifoldSpec"] = None

    def __post_init__(self):
        if self.m < 1 or self.n < self.m:
            raise ConfigError(f"bad dimensions m={self.m}, n={self.n}")
        if self.is_body and self.boundary is None and self.kind != "polygon_knot":
            raise ConfigError("a body spec needs a boundary spec")

    @property
    def codim(self) -> int:
        return self.n - self.m

    def surface(self) -> "ManifoldSpec":
        """The spec integration happens on: the boundary for bodies, self otherwise."""
        return self.boundary if self.is_body else self


def axis_symmetric(spec: ManifoldSpec) -> bool:
    """Rotations fixing the last ambient axis map the single-patch shape onto
    itself, and each chart fiber {u[0] = c} is one orbit of them.

    True for the torus, round spheres, spheroids, ellipsoids with equal first
    n-1 semiaxes (m >= 2) and the Moebius images that ``transform_spec``
    marks ``axis_symmetric``.
    Anything invariant under those rotations (cap masses, volume-element
    fiber sums) then depends on u[0] alone.
    """
    if spec.m < 2 or len(spec.patches) != 1:
        return False
    if spec.kind in ("torus", "sphere", "spheroid"):
        return True
    if spec.kind == "ellipsoid":
        return len(set(spec.params["semiaxes"][:-1])) == 1
    return bool(spec.params.get("axis_symmetric"))


# ---------------------------------------------------------------------------
# chart helpers
# ---------------------------------------------------------------------------

def _spherical_coords(angles: np.ndarray) -> np.ndarray:
    """Unit sphere S^m in R^(m+1); angles (N, m), first m-1 in [0, pi], last in [0, 2 pi).

    Coordinate layout matches the usual hyper-spherical chart with the last
    ambient coordinate equal to cos(theta_1).
    """
    ang = np.atleast_2d(angles)
    N, m = ang.shape
    out = np.empty((N, m + 1))
    sin_prod = np.ones(N)
    # build from the last ambient coordinate down
    for j in range(m):
        out[:, m - j] = sin_prod * np.cos(ang[:, j])
        sin_prod = sin_prod * np.sin(ang[:, j])
    out[:, 0] = sin_prod
    return out


def _spherical_jacobian(angles: np.ndarray) -> np.ndarray:
    """d(_spherical_coords)/d(angles): (N, m+1, m), product-rule exact."""
    ang = np.atleast_2d(angles)
    N, m = ang.shape
    sin, cos = np.sin(ang), np.cos(ang)
    J = np.zeros((N, m + 1, m))
    for k in range(m):
        for j in range(k, m):
            # coordinate m - j is prod_{l<j} sin(theta_l) * cos(theta_j)
            prod = np.ones(N)
            for l in range(j):
                prod = prod * (cos[:, l] if l == k else sin[:, l])
            if k < j:
                J[:, m - j, k] = prod * cos[:, j]
            else:
                J[:, m - j, k] = -prod * sin[:, j]
        prod = np.ones(N)
        for l in range(m):
            prod = prod * (cos[:, l] if l == k else sin[:, l])
        J[:, 0, k] = prod
    return J


def _sphere_box(m: int) -> tuple:
    return tuple([(0.0, math.pi)] * (m - 1) + [(0.0, 2.0 * math.pi)])


def _sphere_periodic(m: int) -> tuple:
    return tuple([False] * (m - 1) + [True])


def _diag_quadric_implicit(inv_sq: np.ndarray) -> ImplicitPoly:
    def poly(X, grad, ar):
        # an ordered sum, so a stack rounds each point as that point alone
        F = ar.shift(sum(c * ar.mul(x, x) for c, x in zip(inv_sq, X)), -1.0)
        if not grad:
            return F
        return F, 2.0 * inv_sq.reshape((-1,) + (1,) * F.ndim) * X

    return ImplicitPoly(poly)


def _positive_lengths(kind: str, *lengths) -> tuple[float, ...]:
    """The lengths as floats; a ConfigError unless every one is > 0."""
    out = tuple(float(v) for v in lengths)
    if not all(v > 0 for v in out):
        raise ConfigError(f"{kind} needs positive lengths, got {out}")
    return out


def _ellipsoid_like(kind: str, semiaxes, **extra) -> ManifoldSpec:
    semiaxes = _positive_lengths(kind, *semiaxes)
    n = len(semiaxes)
    m = n - 1
    ax = np.asarray(semiaxes)

    def chart(u, _ax=ax):
        return _spherical_coords(u) * _ax[None, :]

    inv_sq = 1.0 / ax ** 2

    def normal(u, _inv=inv_sq, _chart=chart):
        g = _chart(u) * _inv[None, :]
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def jacobian(u, _ax=ax):
        return _spherical_jacobian(u) * _ax[None, :, None]

    patch = Patch(box=_sphere_box(m), chart=chart, periodic=_sphere_periodic(m),
                  label=f"{kind}-chart", normal=normal, jacobian=jacobian)
    return ManifoldSpec(kind=kind, m=m, n=n, patches=(patch,),
                        params={"semiaxes": semiaxes, **extra},
                        implicit=_diag_quadric_implicit(inv_sq))


# ---------------------------------------------------------------------------
# builtin shapes
# ---------------------------------------------------------------------------

def circle(r: float = 1.0) -> ManifoldSpec:
    r, = _positive_lengths("circle", r)

    def chart(u, _r=r):
        u = np.atleast_2d(u)
        return np.stack([_r * np.cos(u[:, 0]), _r * np.sin(u[:, 0])], axis=1)

    def normal(u, _r=r, _chart=chart):
        return _chart(u) / _r

    def jacobian(u, _r=r):
        u = np.atleast_2d(u)
        return np.stack([-_r * np.sin(u[:, 0]), _r * np.cos(u[:, 0])], axis=1)[:, :, None]

    patch = Patch(box=((0.0, 2.0 * math.pi),), chart=chart, periodic=(True,),
                  label="circle-chart", normal=normal, jacobian=jacobian)
    return ManifoldSpec(kind="circle", m=1, n=2, patches=(patch,), params={"r": r},
                        implicit=_diag_quadric_implicit(np.array([1 / r ** 2, 1 / r ** 2])))


def ellipse(a: float, b: float) -> ManifoldSpec:
    spec = _ellipsoid_like("ellipse", (float(a), float(b)))
    return replace(spec, params={"a": float(a), "b": float(b)})


def sphere(m: int, r: float = 1.0) -> ManifoldSpec:
    if m == 1:
        return circle(r)
    spec = _ellipsoid_like("sphere", (float(r),) * (m + 1))
    return replace(spec, params={"m": int(m), "r": float(r)})


def spheroid(a: float) -> ManifoldSpec:
    """The 4-dimensional a-hyper-spheroid x1^2+..+x4^2 + x5^2/a^2 = 1 in R^5."""
    spec = _ellipsoid_like("spheroid", (1.0, 1.0, 1.0, 1.0, float(a)))
    return replace(spec, params={"a": float(a)})


def ellipsoid(semiaxes) -> ManifoldSpec:
    return _ellipsoid_like("ellipsoid", semiaxes)


def torus(R: float = 2.0, r: float = 1.0) -> ManifoldSpec:
    if not R > r > 0:
        raise ConfigError("torus needs R > r > 0")
    R, r = float(R), float(r)

    def chart(u, _R=R, _r=r):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        w = _R + _r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), _r * np.sin(th)], axis=1)

    def normal(u, _R=R, _r=r):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        return np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph),
                         np.sin(th)], axis=1)

    def poly(X, grad, ar, _R=R, _r=r):
        sq = [ar.mul(x, x) for x in X]
        s = ar.shift(sq[0] + sq[1] + sq[2], _R ** 2 - _r ** 2)
        F = ar.mul(s, s) - 4.0 * _R ** 2 * (sq[0] + sq[1])
        if not grad:
            return F
        g = 4.0 * np.stack([ar.mul(s, x) for x in X])
        g[:2] -= 8.0 * _R ** 2 * X[:2]
        return F, g

    def jacobian(u, _R=R, _r=r):
        u = np.atleast_2d(u)
        th, ph = u[:, 0], u[:, 1]
        w = _R + _r * np.cos(th)
        J = np.zeros((len(u), 3, 2))
        J[:, 0, 0] = -_r * np.sin(th) * np.cos(ph)
        J[:, 1, 0] = -_r * np.sin(th) * np.sin(ph)
        J[:, 2, 0] = _r * np.cos(th)
        J[:, 0, 1] = -w * np.sin(ph)
        J[:, 1, 1] = w * np.cos(ph)
        return J

    patch = Patch(box=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)), chart=chart,
                  periodic=(True, True), label="torus-chart", normal=normal,
                  jacobian=jacobian)
    return ManifoldSpec(kind="torus", m=2, n=3, patches=(patch,),
                        params={"R": R, "r": r},
                        implicit=ImplicitPoly(poly))


def clifford_torus(r1: float = 1.0, r2: float = 1.0) -> ManifoldSpec:
    """Flat product torus S^1(r1) x S^1(r2) in R^4; codimension 2."""
    r1, r2 = _positive_lengths("clifford_torus", r1, r2)

    def chart(u, _r1=r1, _r2=r2):
        u = np.atleast_2d(u)
        return np.stack([_r1 * np.cos(u[:, 0]), _r1 * np.sin(u[:, 0]),
                         _r2 * np.cos(u[:, 1]), _r2 * np.sin(u[:, 1])], axis=1)

    def jacobian(u, _r1=r1, _r2=r2):
        u = np.atleast_2d(u)
        J = np.zeros((len(u), 4, 2))
        J[:, 0, 0] = -_r1 * np.sin(u[:, 0])
        J[:, 1, 0] = _r1 * np.cos(u[:, 0])
        J[:, 2, 1] = -_r2 * np.sin(u[:, 1])
        J[:, 3, 1] = _r2 * np.cos(u[:, 1])
        return J

    patch = Patch(box=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)), chart=chart,
                  periodic=(True, True), label="clifford-chart", jacobian=jacobian)
    return ManifoldSpec(kind="clifford_torus", m=2, n=4, patches=(patch,),
                        params={"r1": r1, "r2": r2})


def ball(n: int, r: float = 1.0) -> ManifoldSpec:
    r, = _positive_lengths("ball", r)
    bnd = sphere(n - 1, r)
    return ManifoldSpec(kind="ball", m=n, n=n, patches=bnd.patches,
                        params={"n": int(n), "r": float(r)}, is_body=True,
                        boundary=bnd)


def ellipsoid_body(semiaxes) -> ManifoldSpec:
    bnd = ellipsoid(semiaxes)
    n = len(tuple(semiaxes))
    return ManifoldSpec(kind="ellipsoid_body", m=n, n=n, patches=bnd.patches,
                        params={"semiaxes": tuple(float(a) for a in semiaxes)},
                        is_body=True, boundary=bnd)


def polygon_knot(vertices) -> ManifoldSpec:
    """Closed polygonal knot in R^3, represented exactly by its vertex list.

    No curvature frames exist for it; only the continuation and oracle paths
    accept this kind.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
        raise ConfigError("polygon_knot needs >= 3 vertices in R^3")
    lens = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    if not np.all(lens > 0):
        raise ConfigError(f"polygon_knot has a zero-length edge after vertex "
                          f"{int(np.argmin(lens))} (a repeated vertex)")
    verts = tuple(map(tuple, v))
    edges = np.roll(v, -1, axis=0) - v
    cum = np.concatenate([[0.0], np.cumsum(lens)])

    def locate(u):
        # the edge index and arc length along it of each row of u
        s = np.mod(np.atleast_2d(u)[:, 0], cum[-1])
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
        return idx, s - cum[idx]

    def chart(u):
        # arc-length chart over [0, L); piecewise linear
        idx, s = locate(u)
        return v[idx] + (s / lens[idx])[:, None] * edges[idx]

    def jacobian(u):
        idx, _ = locate(u)
        return (edges[idx] / lens[idx][:, None])[:, :, None]

    total = float(lens.sum())
    patch = Patch(box=((0.0, total),), chart=chart, periodic=(True,), label="polygon-chart",
                  jacobian=jacobian)
    return ManifoldSpec(kind="polygon_knot", m=1, n=3, patches=(patch,),
                        params={"vertices": verts})


def scaled(spec: ManifoldSpec, c: float) -> ManifoldSpec:
    """The image c * M of a builtin shape under a homothety, as a fresh spec."""
    c = float(c)
    kind = spec.kind
    if kind == "circle":
        return circle(c * spec.params["r"])
    if kind == "sphere":
        return sphere(spec.params["m"], c * spec.params["r"])
    if kind in ("ellipse",):
        return ellipse(c * spec.params["a"], c * spec.params["b"])
    if kind in ("ellipsoid", "spheroid"):
        return ellipsoid(tuple(c * a for a in spec.params["semiaxes"]))
    if kind == "torus":
        return torus(c * spec.params["R"], c * spec.params["r"])
    if kind == "ball":
        return ball(spec.params["n"], c * spec.params["r"])
    if kind == "ellipsoid_body":
        return ellipsoid_body(tuple(c * a for a in spec.params["semiaxes"]))
    if kind == "polygon_knot":
        return polygon_knot([tuple(c * x for x in p) for p in spec.params["vertices"]])
    raise ConfigError(f"no scaling rule for kind {kind!r}")


def parallel_body(body: ManifoldSpec, eps: float) -> ManifoldSpec:
    """Outward eps-parallel body; boundary chart offset along the unit normal.

    Valid for |eps| below the reach of the boundary.
    """
    if not body.is_body:
        raise ConfigError("parallel_body needs a body spec")
    if body.kind == "ball":
        return ball(body.params["n"], body.params["r"] + eps)
    from .quadrature import normals_on_patch
    bnd = body.boundary
    eps = float(eps)

    def make(p: Patch) -> Patch:
        # parallel hypersurfaces share normal lines: keep the base normals
        def normal(u, _p=p):
            return normals_on_patch(bnd, _p, u)

        def chart(u, _p=p):
            return _p.chart(u) + eps * normal(u)

        return Patch(box=p.box, chart=chart, periodic=p.periodic,
                     label=p.label + f"+par{eps}", normal=normal)

    patches = tuple(make(p) for p in bnd.patches)
    new_bnd = ManifoldSpec(kind="offset", m=bnd.m, n=bnd.n, patches=patches,
                           params={"base": bnd.kind, "eps": eps})
    return ManifoldSpec(kind="offset_body", m=body.m, n=body.n, patches=patches,
                        params={"base": body.kind, "eps": eps}, is_body=True,
                        boundary=new_bnd)


# ---------------------------------------------------------------------------
# text configuration
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_array(ncols):
    """A list of finite numbers (ncols None) or of finite ncols-vectors."""
    def check(v):
        try:
            arr = np.asarray(v, dtype=float)
        except (TypeError, ValueError):
            return False
        if ncols is None:
            shape_ok = arr.ndim == 1
        else:
            shape_ok = arr.ndim == 2 and arr.shape[1] == ncols
        return shape_ok and bool(np.all(np.isfinite(arr)))
    return check


# the largest sphere dimension m and ball dimension n a config may ask for:
# the round closed forms fit m//2 + 5 coefficients, and the arrays grow with m
MAX_DIMENSION = 64

_NUMBER = (_is_number, "a finite number")
_DIMENSION = (lambda v: _is_integer(v) and 1 <= v <= MAX_DIMENSION,
              f"an integer from 1 to {MAX_DIMENSION}")
_NUMBERS = (_finite_array(None), "a list of finite numbers")
_POINTS3 = (_finite_array(3), "a list of 3-vectors")

# kind -> (builder, {param: (check, description)})
_BUILTINS = {
    "circle": (circle, {"r": _NUMBER}),
    "ellipse": (ellipse, {"a": _NUMBER, "b": _NUMBER}),
    "sphere": (sphere, {"m": _DIMENSION, "r": _NUMBER}),
    "spheroid": (spheroid, {"a": _NUMBER}),
    "ellipsoid": (ellipsoid, {"semiaxes": _NUMBERS}),
    "torus": (torus, {"R": _NUMBER, "r": _NUMBER}),
    "clifford_torus": (clifford_torus, {"r1": _NUMBER, "r2": _NUMBER}),
    "ball": (ball, {"n": _DIMENSION, "r": _NUMBER}),
    "ellipsoid_body": (ellipsoid_body, {"semiaxes": _NUMBERS}),
    "polygon_knot": (polygon_knot, {"vertices": _POINTS3}),
}


def from_config(doc) -> ManifoldSpec:
    """Build a spec from a JSON-compatible mapping: {kind, params, orientation?}."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise ConfigError(f"shape config is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("shape config must be a mapping")
    unknown = set(doc) - {"kind", "params", "orientation"}
    if unknown:
        raise ConfigError(f"unknown shape config keys: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in _BUILTINS:
        raise ConfigError(f"unknown shape kind {kind!r}; valid: {sorted(_BUILTINS)}")
    fn, types = _BUILTINS[kind]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{kind} params must be a mapping, got {params!r}")
    bad = set(params) - set(types)
    if bad:
        raise ConfigError(f"unknown params for {kind}: {sorted(bad)}")
    if doc.get("orientation", "outward") != "outward":
        raise ConfigError("only outward orientation is supported")
    for name, value in params.items():
        check, what = types[name]
        if not check(value):
            raise ConfigError(f"{kind} param {name!r} must be {what}, got {value!r}")
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"bad params for {kind}: {exc}") from None
    return fn(**params)


def load_config(path: str) -> ManifoldSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read shape config {path!r}: {exc}") from None
    return from_config(text)
