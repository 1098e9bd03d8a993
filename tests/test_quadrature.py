import math

import numpy as np
import pytest

import residue_lab.manifold as M
from residue_lab.manifold.quadrature import (DegenerateJacobianError, gauss_on,
                                             sphere_monomial_integral)
from residue_lab.manifold.shapes import Patch, ManifoldSpec
from residue_lab.oracles import sphere_volume


def test_circle_circumference():
    assert M.sample_quadrature(M.circle(1.0), 50).total_weight == pytest.approx(
        2 * math.pi, abs=1e-10)


def test_sphere_area():
    assert M.sample_quadrature(M.sphere(2, 1.0), 40).total_weight == pytest.approx(
        4 * math.pi, abs=1e-8)


def test_spheroid_volume_against_reduced_element():
    # independent 1-D quadrature of the reduced volume element
    a = math.sqrt(2)
    ts, ws = gauss_on(0.0, math.pi, 200)
    vol_1d = 2 * math.pi ** 2 * float(
        np.sum(ws * np.sqrt(a * a * np.sin(ts) ** 2 + np.cos(ts) ** 2) * np.sin(ts) ** 3))
    vol_4d = M.sample_quadrature(M.spheroid(a), 24).total_weight
    assert vol_4d == pytest.approx(vol_1d, abs=1e-8)


def test_torus_area():
    assert M.sample_quadrature(M.torus(2, 1), 40).total_weight == pytest.approx(
        4 * math.pi ** 2 * 2, rel=1e-12)


def test_ball_volume():
    assert M.body_volume(M.ball(3, 1.0), 40) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert M.body_volume(M.ellipsoid_body((1.0, 2.0, 0.5)), 40) == pytest.approx(
        4 * math.pi / 3 * 1.0 * 2.0 * 0.5, rel=1e-10)


def test_degenerate_jacobian_reported():
    def chart(u):
        u = np.atleast_2d(u)
        return np.stack([u[:, 0] ** 3, np.zeros(len(u))], axis=1)

    patch = Patch(box=((-1.0, 1.0),), chart=chart, periodic=(False,), label="cusp")
    spec = ManifoldSpec(kind="ellipse", m=1, n=2, patches=(patch,))
    with pytest.raises(DegenerateJacobianError, match="cusp"):
        M.sample_quadrature(spec, 3)  # odd order puts a node on the cusp


def test_sphere_monomial_integrals_match_tables():
    m = 4
    o3 = sphere_volume(3)
    assert sphere_monomial_integral(m, (4,)) == pytest.approx(3 * o3 / (m * (m + 2)), rel=1e-14)
    assert sphere_monomial_integral(m, (2, 2)) == pytest.approx(o3 / (m * (m + 2)), rel=1e-14)
    assert sphere_monomial_integral(m, (6,)) == pytest.approx(
        15 * o3 / (m * (m + 2) * (m + 4)), rel=1e-14)
    assert sphere_monomial_integral(m, (4, 2)) == pytest.approx(
        3 * o3 / (m * (m + 2) * (m + 4)), rel=1e-14)
    assert sphere_monomial_integral(m, (2, 2, 2)) == pytest.approx(
        o3 / (m * (m + 2) * (m + 4)), rel=1e-14)
    # odd powers vanish
    assert sphere_monomial_integral(m, (3, 2)) == 0.0
    # n = 2 moment used by the relative residues
    assert sphere_monomial_integral(3, (2,)) == pytest.approx(sphere_volume(2) / 3, rel=1e-14)


def test_sphere_monomials_monte_carlo_parity():
    # fixed-seed spot check that odd-power monomials integrate to ~0 and an
    # even one matches, directly against sampling on S^3
    rng = np.random.default_rng(7)
    w = rng.normal(size=(200000, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    o3 = sphere_volume(3)
    odd = float(np.mean(w[:, 0] ** 3 * w[:, 1] ** 2)) * o3
    even = float(np.mean(w[:, 0] ** 2 * w[:, 1] ** 2 * w[:, 2] ** 2)) * o3
    assert abs(odd) < 5e-3
    assert even == pytest.approx(sphere_monomial_integral(4, (2, 2, 2)), abs=5e-3)


def test_reparametrization_invariance_torus():
    # same torus, parameters swapped and shifted
    R, r = 2.0, 1.0

    def chart(u):
        u = np.atleast_2d(u)
        ph, th = u[:, 0], u[:, 1] + 0.7
        w = R + r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r * np.sin(th)], axis=1)

    patch = Patch(box=((0.0, 2 * math.pi), (0.0, 2 * math.pi)), chart=chart,
                  periodic=(True, True), label="torus-alt")
    alt = ManifoldSpec(kind="torus_alt", m=2, n=3, patches=(patch,),
                       params={"R": R, "r": r})
    a1 = M.sample_quadrature(M.torus(R, r), 32).total_weight
    a2 = M.sample_quadrature(alt, 32).total_weight
    assert a1 == pytest.approx(a2, rel=1e-10)
    from residue_lab.residues import residue_second
    r1 = residue_second(M.torus(R, r), order=32)
    r2 = residue_second(alt, order=32)
    assert r1 == pytest.approx(r2, rel=1e-7)


def test_node_sequence_protocol():
    # a node set is its arrays, one row per node
    nodes = M.sample_quadrature(M.sphere(2, 1.0), 6)
    assert len(nodes) == 36
    assert nodes.u.shape == (36, 2) and nodes.x.shape == nodes.nu.shape == (36, 3)
    assert np.all(nodes.w > 0)
    assert np.linalg.norm(nodes.x, axis=1) == pytest.approx(np.ones(36), rel=1e-12)
    assert np.linalg.norm(nodes.nu, axis=1) == pytest.approx(np.ones(36), rel=1e-12)
    assert math.fsum(nodes.w) == pytest.approx(nodes.total_weight, rel=1e-14)


def test_polygon_jacobian_is_the_unit_edge_tangent():
    verts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 1.0, 0.5], [0.0, 1.5, -0.2]])
    patch = M.polygon_knot(verts).patches[0]
    edges = np.roll(verts, -1, axis=0) - verts
    lens = np.linalg.norm(edges, axis=1)
    starts = np.concatenate([[0.0], np.cumsum(lens)[:-1]])
    for frac in (0.1, 0.5, 0.9):
        J = patch.jacobian((starts + frac * lens)[:, None])[:, :, 0]
        assert np.allclose(np.linalg.norm(J, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(J, edges / lens[:, None], rtol=0, atol=1e-15)


def test_offset_normals_are_the_base_normals():
    from residue_lab.manifold.quadrature import patch_grid, patch_jacobian
    body = M.ellipsoid_body((1.0, 0.8, 0.6))
    base = body.boundary.patches[0]
    off = M.parallel_body(body, 0.1).boundary.patches[0]
    u, _ = patch_grid(base, 6)
    assert np.array_equal(off.normal(u), base.normal(u))
    # parallel hypersurfaces share normal lines: the base normal is normal
    # to the offset chart (whose Jacobian is finite-differenced)
    tang = np.einsum("nia,ni->na", patch_jacobian(off, u), off.normal(u))
    assert np.max(np.abs(tang)) < 1e-8


def _user_torus(swap):
    R, r = 2.0, 1.0

    def chart(u):
        u = np.atleast_2d(u)
        ph, th = (u[:, 1], u[:, 0]) if swap else (u[:, 0], u[:, 1])
        w = R + r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r * np.sin(th)], axis=1)

    patch = Patch(box=((0.0, 2 * math.pi), (0.0, 2 * math.pi)), chart=chart,
                  periodic=(True, True), label="user-torus")
    return ManifoldSpec(kind="user_torus", m=2, n=3, patches=(patch,))


def test_user_patch_normals_follow_the_parametrization():
    from residue_lab.manifold.probe import GraphProbe
    from residue_lab.manifold.quadrature import normals_on_patch, patch_grid
    spec, swapped = _user_torus(False), _user_torus(True)
    patch = spec.patches[0]
    u, _ = patch_grid(patch, 8)
    ph, th = u[:, 0], u[:, 1]
    outward = np.stack([np.cos(ph) * np.cos(th), np.sin(ph) * np.cos(th), np.sin(th)], axis=1)
    batch = normals_on_patch(spec, patch, u)
    rows = np.concatenate([normals_on_patch(spec, patch, u[i:i + 1]) for i in range(len(u))])
    probe = np.stack([GraphProbe(spec, patch, ui).NB[0] for ui in u])
    for nu in (batch, rows, probe):
        assert np.allclose(nu, outward, rtol=0, atol=1e-8)
    # the (theta, phi) chart is the same surface with the opposite orientation
    assert np.array_equal(normals_on_patch(swapped, swapped.patches[0], u[:, ::-1]), -batch)


def _on_axis_image(spec):
    from residue_lab import mobius as MB
    center = (0.0,) * (spec.n - 1) + (3.0,)
    return MB.transform_spec(spec, MB.MobiusMap((MB.Inversion(center=center, radius=1.0),)))


@pytest.mark.parametrize("spec, order", [
    (M.torus(2.0, 1.0), 16), (M.sphere(2, 1.0), 16), (M.sphere(3, 0.5), 10),
    (M.ellipsoid((1.0, 1.0, 0.7)), 16), (M.ball(3, 1.0), 16), (M.spheroid(1.3), 16),
    (_on_axis_image(M.torus(2.0, 1.0)), 16), (_on_axis_image(M.ellipsoid((1.0, 1.0, 0.7))), 16)],
    ids=["torus", "sphere2", "sphere3", "ellipsoid-110.7", "ball3", "spheroid", "torus-image",
         "ellipsoid-image"])
def test_orbit_rows_carry_the_row_sums_of_the_tensor_grid(spec, order):
    from residue_lab.manifold.quadrature import integration_grid, patch_grid, volume_element
    patch = spec.surface().patches[0]
    (pi, u, w), = integration_grid(spec, order)
    u_grid, wp = patch_grid(patch, order)
    rows = (wp * volume_element(patch, u_grid)).reshape(order, -1).sum(axis=1)
    assert pi == 0 and u.shape == (order, spec.surface().m)
    assert np.array_equal(u[:, 0], u_grid.reshape(order, -1, u.shape[1])[:, 0, 0])
    assert np.max(np.abs(w / rows - 1.0)) <= 1e-14


def test_generic_shapes_keep_the_tensor_grid():
    from residue_lab.manifold.quadrature import integration_grid, patch_grid, volume_element
    spec = M.ellipsoid((1.0, 1.3, 0.8))
    patch = spec.patches[0]
    (pi, u, w), = integration_grid(spec, 8)
    u_grid, wp = patch_grid(patch, 8)
    assert pi == 0 and np.array_equal(u, u_grid)
    assert np.array_equal(w, wp * volume_element(patch, u_grid))


def _one_array_grid(box, periodic, counts):
    """The tensor grid built as one array: a meshgrid of the axis rules, and
    weights as outer products taken left to right."""
    from residue_lab.manifold.quadrature import _axis_rule
    rules = [_axis_rule(a, b, c, p) for (a, b), c, p in zip(box, counts, periodic)]
    mesh = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    w = rules[0][1]
    for _, wi in rules[1:]:
        w = np.multiply.outer(w, wi)
    return np.stack([mm.ravel() for mm in mesh], axis=1), w.ravel()


@pytest.mark.parametrize("periodic, order", [
    ((True,), 7), ((False,), 5),
    ((True, False), 6), ((False, True), (5, 3)), ((True, True), 4),
    ((False, False, True), (4, 3, 5)), ((True, False, False), 3),
    ((False, False, False, True), (3, 4, 2, 5)), ((True, True, False, False), 4),
])
def test_patch_grid_blocks_concatenate_to_the_one_array_grid(periodic, order):
    # one block per node of the first axis, in grid order; rows and weights
    # bit-identical to the grid built as one array
    from residue_lab.manifold.quadrature import patch_grid, patch_grid_blocks
    m = len(periodic)
    box = tuple((0.1 * k, 1.3 + 0.7 * k) for k in range(m))
    patch = Patch(box=box, chart=lambda u: u, periodic=periodic)
    counts = [int(c) for c in np.broadcast_to(order, (m,))]
    blocks = list(patch_grid_blocks(patch, order))
    assert len(blocks) == counts[0]
    for u, w in blocks:
        assert u.shape == (math.prod(counts[1:]), m) and w.shape == (len(u),)
        assert np.all(u[:, 0] == u[0, 0])
    u_ref, w_ref = _one_array_grid(box, periodic, counts)
    u, w = patch_grid(patch, order)
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), u_ref)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), w_ref)
    assert np.array_equal(u, u_ref) and np.array_equal(w, w_ref)
