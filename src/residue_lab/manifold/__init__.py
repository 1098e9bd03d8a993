"""Embedded manifolds: shapes, quadrature, and local curvature data."""

from .shapes import (ManifoldSpec, Patch, ball, circle, clifford_torus, ellipse,
                     ellipsoid, ellipsoid_body, from_config, load_config,
                     parallel_body, polygon_knot, scaled, sphere, spheroid, torus)
from .quadrature import NodeSet, body_volume, sample_quadrature, sphere_monomial_integral
from .frames import (CurvatureFrame, curvature_frame, laplacian_invariants,
                     nu_weight, reach_estimate)

__all__ = [
    "ManifoldSpec", "Patch", "ball", "circle", "clifford_torus", "ellipse",
    "ellipsoid", "ellipsoid_body", "from_config", "load_config", "parallel_body",
    "polygon_knot", "scaled", "sphere", "spheroid", "torus",
    "NodeSet", "body_volume", "sample_quadrature",
    "sphere_monomial_integral",
    "CurvatureFrame", "curvature_frame", "laplacian_invariants", "nu_weight",
    "reach_estimate",
]
