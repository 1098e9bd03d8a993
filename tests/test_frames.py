import math

import numpy as np
import pytest

import residue_lab.manifold as M
from residue_lab.manifold.frames import (curvature_frame, laplacian_invariants,
                                         nu_weight, reach_estimate)
from residue_lab._util import NumericError
from residue_lab.manifold.probe import GraphProbe
from residue_lab.manifold.quadrature import patch_jacobian
from residue_lab.residues import frame_integral


def test_unit_sphere_convention():
    fr = curvature_frame(M.sphere(2, 1.0), [1.1, 0.7])
    assert fr.kappa == pytest.approx([-1.0, -1.0], abs=1e-12)
    assert fr.H == pytest.approx(-2.0, abs=1e-12)
    assert fr.scalar_curvature == pytest.approx(2.0, abs=1e-11)


def test_spheroid_principal_curvatures_at_equator():
    a = math.sqrt(2)
    fr = curvature_frame(M.spheroid(a), [math.pi / 2, 1.0, 1.3, 0.7])
    assert fr.kappa == pytest.approx([-0.5, -1.0, -1.0, -1.0], abs=1e-12)


def test_sphere4_graph_coefficients():
    # in the frame with kappa = +1 (f = r^2/2 + r^4/8 + ...) the quartic
    # coefficients are d_iiii = 1/8 and d_iijj = 1/4; the computed frame uses
    # the outward normal (kappa = -1), so the joint sign flip applies
    fr = curvature_frame(M.sphere(4, 1.0), [1.0, 1.3, 0.7, 2.0])
    sign = -1.0 if fr.kappa[0] < 0 else 1.0
    assert sign * fr.d_mono(0, 0, 0, 0) == pytest.approx(1.0 / 8.0, abs=1e-10)
    assert sign * fr.d_mono(0, 0, 1, 1) == pytest.approx(1.0 / 4.0, abs=1e-10)
    assert fr.c_mono(0, 0, 1) == pytest.approx(0.0, abs=1e-11)


def test_torus_analytic_curvatures():
    R, r = 2.0, 1.0
    for th, ph in ((0.3, 1.0), (2.0, 4.1), (math.pi, 0.5)):
        fr = curvature_frame(M.torus(R, r), [th, ph])
        expected = sorted([-1.0 / r, -math.cos(th) / (R + r * math.cos(th))], reverse=True)
        assert fr.kappa == pytest.approx(expected, abs=1e-7)


def test_spheroid_third_order_coefficients():
    a, t1 = math.sqrt(2), 0.8
    A = math.cos(t1) ** 2 + a * a * math.sin(t1) ** 2
    c_ii4 = a * (a * a - 1) * math.cos(t1) * math.sin(t1) / (2 * A ** 2)
    c_444 = a * (a * a - 1) * math.cos(t1) * math.sin(t1) / (2 * A ** 3)
    fr = curvature_frame(M.spheroid(a), [t1, 1.0, 1.3, 0.7])
    # frame order: the distinct curvature -a/A^(3/2) sorts first (index 0).
    # The sign of that eigenvector is a frame choice; c entries with an odd
    # count of index 0 flip jointly with it, so compare magnitudes and the
    # relative sign.
    assert fr.kappa[0] == pytest.approx(-a / A ** 1.5, abs=1e-12)
    sign = math.copysign(1.0, fr.c_mono(0, 0, 0)) * math.copysign(1.0, c_444)
    assert fr.c_mono(0, 0, 0) == pytest.approx(sign * c_444, abs=1e-10)
    for i in (1, 2, 3):
        assert fr.c_mono(i, i, 0) == pytest.approx(sign * c_ii4, abs=1e-10)
    assert fr.c_mono(1, 2, 3) == pytest.approx(0.0, abs=1e-11)
    # |grad H|^2 cross-check through the c-formula
    grad_ref = 36.0 * (c_444 + c_ii4) ** 2
    assert fr.grad_H_sq() == pytest.approx(grad_ref, rel=1e-9)


def test_probe_matches_exact_series_on_torus():
    import dataclasses
    tor = M.torus(2.0, 1.0)
    u = np.array([0.9, 2.1])
    fr_exact = curvature_frame(tor, u)
    stripped = dataclasses.replace(tor, implicit=None)
    fr_probe = curvature_frame(stripped, u)
    assert fr_probe.kappa == pytest.approx(fr_exact.kappa, abs=1e-9)
    assert np.max(np.abs(np.abs(fr_probe.f3) - np.abs(fr_exact.f3))) < 1e-7
    assert np.max(np.abs(np.abs(fr_probe.f4) - np.abs(fr_exact.f4))) < 1e-4


def test_nu_weight_basics():
    E1 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    E2 = np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    assert nu_weight(E1, E1) == pytest.approx(1.0, abs=1e-15)
    assert nu_weight(E1, E2) == pytest.approx(0.0, abs=1e-15)
    # basis choice within an oriented plane does not matter
    th = 0.63
    R = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
    assert nu_weight(R @ E1, E1) == pytest.approx(1.0, abs=1e-14)


def test_nu_weight_equals_normal_product_on_hypersurface():
    sp = M.sphere(2, 1.0)
    fx = curvature_frame(sp, [0.9, 0.5])
    fy = curvature_frame(sp, [2.0, 3.9])
    assert nu_weight(fx, fy) == pytest.approx(float(np.dot(fx.nu, fy.nu)), abs=1e-12)
    # antipodal points: opposite normals
    fz = curvature_frame(sp, [math.pi - 0.9, 0.5 + math.pi])
    assert np.allclose(fz.x, -fx.x, atol=1e-12)
    assert nu_weight(fx, fz) == pytest.approx(-1.0, abs=1e-12)


def test_grassmann_weight_times_area_density_is_one():
    # hypersurface case: lambda_nu = <nu_x, nu_y> and A_f = sqrt(1+|grad f|^2)
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    u0 = np.array([0.8, 1.9])
    probe = GraphProbe(tor, patch, u0)
    s = np.array([[0.17, -0.08]])
    h = 1e-5
    grad = np.array([
        (probe.graph_values(s + [[h, 0]]) - probe.graph_values(s - [[h, 0]]))[0, 0],
        (probe.graph_values(s + [[0, h]]) - probe.graph_values(s - [[0, h]]))[0, 0],
    ]) / (2 * h)
    area_density = math.sqrt(1.0 + float(grad @ grad))
    # lambda_nu at (x, y(s)): normals from the analytic field
    x0 = patch.chart(u0[None, :])[0]
    y = x0 + s[0] @ probe.E + probe.graph_values(s)[0] @ probe.NB
    # recover the parameter of y by nearest-point; use the implicit normal
    gx = tor.implicit.gradient(y[None, :])[0]
    nu_y = gx / np.linalg.norm(gx)
    nu_x = patch.normal(u0[None, :])[0]
    lam = float(np.dot(nu_x, nu_y))
    assert lam * area_density == pytest.approx(1.0, abs=1e-8)


def test_codim2_frames_clifford():
    cl = M.clifford_torus(1.0, 1.0)
    fr = curvature_frame(cl, [0.7, 1.9], max_order=2)
    # flat intrinsic geometry: Sc = 0; |H|^2 = 2 for the square Clifford torus
    assert fr.scalar_curvature == pytest.approx(0.0, abs=1e-9)
    assert fr.mean_sq == pytest.approx(2.0, rel=1e-8)


def _space_curve(chart):
    patch = M.Patch(box=((-1.0, 1.0),), chart=chart, periodic=(False,), label="curve")
    return M.ManifoldSpec(kind="curve", m=1, n=3, patches=(patch,), closed=False), patch


def test_graph_probe_raises_on_a_nan_chart():
    def chart(u):
        t = u[:, 0]
        x = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=1)
        return np.where(np.abs(t - 0.3)[:, None] > 1e-3, np.nan, x)

    spec, patch = _space_curve(chart)
    probe = GraphProbe(spec, patch, [0.3])
    with pytest.raises(NumericError, match="graph probe Newton did not converge"):
        probe.graph_values(np.array([[0.01]]))


def test_graph_probe_raises_on_a_chart_that_folds_inside_the_stencil():
    # the tangent projection u - c u^3 of the curve folds at |s| = 2 / (3 sqrt(3c)),
    # 3.8e-3, inside the 1e-2 stencil of the second derivatives
    def chart(u):
        t = u[:, 0]
        return np.stack([t - 1e4 * t ** 3, t * t, 0.0 * t], axis=1)

    spec, patch = _space_curve(chart)
    probe = GraphProbe(spec, patch, [0.0])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="did not converge"):
        probe.derivative_tensors(2)


@pytest.mark.parametrize("r1, r2", [(1.0, 1.0), (1000.0, 2000.0)])
def test_graph_probe_converges_on_clifford_tori(r1, r2):
    # the absolute stop 1e-14 never fires on the large torus, whose
    # residual sits at ~1e-13; the rounding floor accepts it
    fr = curvature_frame(M.clifford_torus(r1, r2), [0.7, 1.9])
    assert fr.mean_sq == pytest.approx(1.0 / r1 ** 2 + 1.0 / r2 ** 2, rel=1e-4)


def test_laplacian_invariants_sphere_and_spheroid():
    li = laplacian_invariants(M.sphere(4, 1.0), [1.0, 1.3, 0.7, 2.0])
    for key in ("delta_sc", "delta_mean_sq", "delta_H", "grad_H_sq"):
        assert abs(li[key]) < 1e-10
    # divergence theorem: the Laplacian fields integrate to zero on closed M
    sp = M.spheroid(math.sqrt(2))
    int_dsc = frame_integral(sp, lambda fr: fr.delta_sc(), order=48, max_order=4)
    int_dh2 = frame_integral(sp, lambda fr: fr.delta_mean_sq(), order=48, max_order=4)
    int_dh = frame_integral(sp, lambda fr: fr.delta_H(), order=48, max_order=4)
    assert abs(int_dsc) < 1e-8
    assert abs(int_dh2) < 1e-8
    assert abs(int_dh) < 1e-8


def test_degenerate_frame_rotation_leaves_integrands_invariant():
    # rotations inside the repeated-curvature eigenspace change c and d but
    # not the local residue integrands
    from residue_lab.residues import local_r8_nu_raw, local_r8_raw
    import dataclasses
    fr = curvature_frame(M.spheroid(math.sqrt(2)), [0.8, 1.0, 1.3, 0.7])
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    Q3, _ = np.linalg.qr(A)
    R = np.eye(4)
    R[1:, 1:] = Q3
    rot = dataclasses.replace(
        fr,
        f2=np.einsum("ia,jb,ijq->abq", R, R, fr.f2),
        f3=np.einsum("ia,jb,kc,ijkq->abcq", R, R, R, fr.f3),
        f4=np.einsum("ia,jb,kc,ld,ijklq->abcdq", R, R, R, R, fr.f4),
        kappa=fr.kappa.copy(),
    )
    assert local_r8_raw(rot) == pytest.approx(local_r8_raw(fr), rel=1e-10)
    assert local_r8_nu_raw(rot) == pytest.approx(local_r8_nu_raw(fr), rel=1e-10)


def test_orientation_flip_invariance():
    # the joint flip (kappa, c, d) -> (-kappa, -c, -d) fixes every residue
    # integrand; delta_H is odd
    from residue_lab.residues import (local_r8_modified, local_r8_nu_modified,
                                      local_r8_nu_raw, local_r8_raw)
    import dataclasses
    fr = curvature_frame(M.spheroid(1.7), [1.1, 1.0, 1.3, 0.7])
    # keep kappa aligned with the tensor axes; the integrands are symmetric
    # and do not require the descending order
    flip = dataclasses.replace(fr, f2=-fr.f2, f3=-fr.f3, f4=-fr.f4, kappa=-fr.kappa)
    for fn in (local_r8_raw, local_r8_nu_raw, local_r8_modified, local_r8_nu_modified):
        assert fn(flip) == pytest.approx(fn(fr), rel=1e-11)
    assert flip.delta_H() == pytest.approx(-fr.delta_H(), rel=1e-10)
    assert flip.delta_sc() == pytest.approx(fr.delta_sc(), rel=1e-10)
    assert flip.delta_mean_sq() == pytest.approx(fr.delta_mean_sq(), rel=1e-10)


def test_reach_estimates():
    assert reach_estimate(M.sphere(2, 1.0)) == pytest.approx(1.0 / math.sqrt(2), rel=1e-6)
    assert reach_estimate(M.circle(2.0)) == pytest.approx(2.0, rel=1e-6)


def _oriented_tangent_frame(spec, patch, u) -> np.ndarray:
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


def test_oriented_tangent_frame_continuity():
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    E1 = _oriented_tangent_frame(tor, patch, [0.5, 1.0])
    E2 = _oriented_tangent_frame(tor, patch, [0.5 + 1e-4, 1.0])
    assert np.max(np.abs(E1 - E2)) < 1e-3


def test_graph_frame_agrees_with_fundamental_form_route():
    # frame-free route: g = J^T J, h_ab = <d2 chart, nu>, shape operator g^-1 h
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    u0 = np.array([0.7, 1.9])

    def chart1(u):
        return patch.chart(np.atleast_2d(u))[0]

    def tensors(h_step):
        es = (np.array([h_step, 0.0]), np.array([0.0, h_step]))
        J = np.stack([(chart1(u0 + e) - chart1(u0 - e)) / (2 * h_step) for e in es],
                     axis=1)
        nu = patch.normal(u0[None, :])[0]
        hmat = np.empty((2, 2))
        for a, ea in enumerate(es):
            for b, eb in enumerate(es):
                d2 = (chart1(u0 + ea + eb) - chart1(u0 + ea - eb)
                      - chart1(u0 - ea + eb) + chart1(u0 - ea - eb)) / (4 * h_step ** 2)
                hmat[a, b] = float(np.dot(d2, nu))  # <d2 x, nu_out>; sphere -> -1/r
        return J.T @ J, hmat

    g1, h1 = tensors(1e-3)
    g2, h2 = tensors(5e-4)
    g = (4 * g2 - g1) / 3
    hmat = (4 * h2 - h1) / 3
    shape_op = np.linalg.solve(g, hmat)
    tr1 = float(np.trace(shape_op))
    tr2 = float(np.trace(shape_op @ shape_op))
    sc = tr1 ** 2 - tr2
    fr = curvature_frame(tor, u0)
    assert float(np.sum(fr.kappa)) == pytest.approx(tr1, abs=1e-8)
    assert float(np.sum(fr.kappa ** 2)) == pytest.approx(tr2, abs=1e-8)
    assert fr.scalar_curvature == pytest.approx(sc, abs=1e-8)


def _mul_loop_reference(a, b):
    # the former loop over the nonzero entries of a, kept as the reference
    deg = a.shape[0] - 1
    out = np.zeros_like(a)
    for idx in np.argwhere(a != 0.0):
        if sum(idx) > deg:
            continue
        dst = tuple(slice(k, deg + 1) for k in idx)
        src = tuple(slice(0, deg + 1 - k) for k in idx)
        out[dst] += a[tuple(idx)] * b[src]
    out[np.indices(a.shape).sum(axis=0) > deg] = 0.0
    return out


def test_series_mul_is_bit_identical_to_the_loop():
    from residue_lab.manifold import series
    rng = np.random.default_rng(7)
    for m in (1, 2, 4):
        for deg in (0, 2, 4):
            shape = (deg + 1,) * m
            a = rng.normal(size=shape) * (rng.random(shape) < 0.6)
            b = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4)
            # the packed product, unpacked into the dense cube
            at = tuple(np.array(series.monomials(m, deg)).T)
            got = np.zeros(shape)
            got[at] = series.mul(a[at], b[at], m)
            assert np.array_equal(got, _mul_loop_reference(a, b))


def test_a_series_above_the_bound_raises_before_its_table_is_built():
    # sphere(64) to degree 6: 1.3e8 coefficients and 7.2e9 coefficient
    # products; the bound is read before any monomial is enumerated
    import time
    from residue_lab.manifold import series
    sph = M.sphere(64, 1.0)
    p, U = np.eye(65)[-1], np.eye(65)[:64]
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="coefficients"):
        series.implicit_graph(sph.implicit.ring, p, U, p, 6)
    with pytest.raises(NumericError, match="coefficients"):
        frame_integral(sph, lambda fr: fr.H, order=4, max_order=6)
    assert time.perf_counter() - t0 < 5.0
    assert series.size(16, 2) == 153 and series.size(4, 4) == 70


def test_series_graph_solve_checks_its_residual():
    from residue_lab._util import NumericError
    from residue_lab.manifold import series
    ring = M.sphere(2, 1.0).implicit.ring
    p, U = np.array([0.0, 0.0, 1.0]), np.eye(3)[:2]
    f = series.implicit_graph(ring, p, U, p, 4)
    # f = sqrt(1 - |u|^2) - 1 = -|u|^2/2 - |u|^4/8 - ...
    at = series.monomials(2, 4).index
    assert f[at((2, 0))] == pytest.approx(-0.5, abs=1e-15)
    assert f[at((2, 2))] == pytest.approx(-0.25, abs=1e-15)
    assert f[at((4, 0))] == pytest.approx(-0.125, abs=1e-15)

    def wrong_slope(X, grad, m):
        if not grad:
            return ring(X, False, m)
        F, g = ring(X, True, m)
        return F, 0.5 * g

    with pytest.raises(NumericError):
        series.implicit_graph(wrong_slope, p, U, p, 4)


def _torus_image():
    from residue_lab import mobius as MB
    return MB.transform_spec(M.torus(2.0, 1.0),
                             MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 3.0)),)))


@pytest.mark.parametrize("spec, max_order", [
    (M.torus(2.0, 1.0), 2), (M.torus(2.0, 1.0), 3), (M.torus(2.0, 1.0), 4),
    (M.spheroid(1.7), 2), (M.spheroid(1.7), 3), (M.spheroid(1.7), 4),
    (M.ellipsoid((1.0, 1.3, 0.8)), 4), (_torus_image(), 4), (M.ellipse(1.0, 0.6), 4),
    (M.sphere(4, 1.0), 4), (M.clifford_torus(1.0, 1.0), 4)],
    ids=["torus-2", "torus-3", "torus-4", "spheroid-2", "spheroid-3", "spheroid-4",
         "ellipsoid", "torus-image", "ellipse", "sphere4", "clifford-probe"])
def test_stacked_frame_equals_its_one_row_frames(spec, max_order):
    # sphere(4) has four equal kappa, so its tangent rows rest on the tie-break
    box = spec.surface().patches[0].box
    rng = np.random.default_rng(18)
    u = np.stack([rng.uniform(a + 0.05, b - 0.05, 9) for a, b in box], axis=1)
    stacked = curvature_frame(spec, u, max_order=max_order)
    ones = [curvature_frame(spec, row, max_order=max_order) for row in u]
    for name in ("x", "tangent", "normal_basis", "f2", "f3", "f4", "kappa"):
        got = getattr(stacked, name)
        if getattr(ones[0], name) is None:
            assert got is None
            continue
        want = np.stack([getattr(fr, name) for fr in ones])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name
    assert np.array_equal(stacked.H, [fr.H for fr in ones])
    assert np.array_equal(stacked.hs_norm_sq, [fr.hs_norm_sq for fr in ones])
