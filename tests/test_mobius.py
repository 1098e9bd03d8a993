import math
import re
import warnings

import numpy as np
import pytest

import residue_lab.continuation as cont
import residue_lab.manifold as M
import residue_lab.mobius as MB
from residue_lab._util import NumericError


def test_inversion_distance_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 3))
    inv = MB.Inversion(center=(0.0, 0.0, 0.0), radius=1.0)
    lhs = (np.linalg.norm(inv.apply(x) - inv.apply(y), axis=1)
           * np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inversion_maps_circles_to_circles():
    circ = M.circle(1.0)
    mp = MB.MobiusMap((MB.Inversion(center=(2.5, 0.0), radius=1.0),))
    img = MB.transform_spec(circ, mp)
    pts = img.patches[0].chart(np.linspace(0, 2 * math.pi, 64)[:, None])
    A = np.concatenate([2 * pts, np.ones((len(pts), 1))], axis=1)
    b = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.max(np.abs(A @ sol - b)) < 1e-10


def test_unit_inversion_scales_centered_spheres():
    sp = M.sphere(3, 0.5)
    mp = MB.MobiusMap((MB.Inversion(center=(0.0,) * 4, radius=1.0),))
    img = MB.transform_spec(sp, mp)
    pts = img.patches[0].chart(np.array([[0.3, 1.0, 2.0], [1.4, 2.2, 0.1]]))
    assert np.linalg.norm(pts, axis=1) == pytest.approx([2.0, 2.0], rel=1e-12)


def test_transformed_curvature_examples():
    # off-center unit sphere through (1,0,0)-(3,0,0): image radius 1/3
    kt = MB.transformed_curvatures(np.array([-1.0, -1.0]), p=np.array([3.0, 0, 0]),
                                   nu=np.array([1.0, 0, 0]))
    assert np.abs(kt) == pytest.approx([3.0, 3.0], rel=1e-14)
    # the centered unit sphere is preserved
    kt2 = MB.transformed_curvatures(np.array([-1.0, -1.0]), p=np.array([0, 1.0, 0]),
                                    nu=np.array([0, 1.0, 0]))
    assert np.abs(kt2) == pytest.approx([1.0, 1.0], rel=1e-14)


def test_guard_ball_violation():
    # the guard is checked on the spec samples; park the center on one
    circ = M.circle(1.0)
    node = M.sample_quadrature(circ, 16).x[0]
    mp = MB.MobiusMap((MB.Inversion(center=tuple(node), radius=1.0),))
    with pytest.raises(NumericError):
        MB.transform_spec(circ, mp)


def _weyl_decomposition_identity(rm_sq: float, ric_sq: float, sc_sq: float) -> float:
    """Residual of -3|Rm|^2 + 8|Ric|^2 + 5 Sc^2 = -2|W|^2 - 4X + (20/3) Sc^2.

    |W|^2 = |Rm|^2 - 2|Ric|^2 + Sc^2/3 and X = (|Rm|^2 - 4|Ric|^2 + Sc^2)/4;
    the identity is algebraic, so the residual vanishes for any inputs.
    """
    w2 = rm_sq - 2.0 * ric_sq + sc_sq / 3.0
    x = 0.25 * (rm_sq - 4.0 * ric_sq + sc_sq)
    lhs = -3.0 * rm_sq + 8.0 * ric_sq + 5.0 * sc_sq
    rhs = -2.0 * w2 - 4.0 * x + 20.0 / 3.0 * sc_sq
    return float(lhs - rhs)


def test_weyl_decomposition_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rm, ric, sc = np.abs(rng.normal(size=3)) * 5
        assert abs(_weyl_decomposition_identity(rm, ric, sc)) < 1e-12


def test_knot_value_invariance_ellipse():
    # odd dimension: the value B(-2) is the Moebius invariant
    ell = M.ellipse(1.0, 0.6)
    prof = cont.distance_profile(ell)
    before = cont.beta_eval(prof, -2.0).value.real
    mp = MB.MobiusMap((MB.Inversion(center=(2.2, 0.4), radius=1.0),))
    img = MB.transform_spec(ell, mp)
    prof_t = cont.distance_profile(img)
    after = cont.beta_eval(prof_t, -2.0).value.real
    assert after == pytest.approx(before, rel=5e-8)


def test_scaling_shifts_finite_part_by_residue_log(torus_profile):
    # E_{cM}(-4) = E_M(-4) + R_M(-4) ln c when z = -2m; the finite part is
    # exactly not scale invariant when the residue is nonzero
    c = 2.0
    prof_c = cont.distance_profile(M.torus(2.0 * c, 1.0 * c))
    e1 = cont.hadamard_finite_part(torus_profile, -4.0).real
    e2 = cont.hadamard_finite_part(prof_c, -4.0).real
    r4 = cont.residue_from_profile(torus_profile, -4.0)[0]
    assert e2 - e1 == pytest.approx(r4 * math.log(c), rel=1e-5)
    assert abs(r4 * math.log(c)) > 1.0  # the shift is far from zero


def test_nu_residue_m4_invariance_torus():
    tor = M.torus(2.0, 1.0)
    mp = MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 2.5), radius=1.0),))
    rep = MB.invariance_report(tor, mp, "nu_residue_m4", order=32)
    assert rep["rel"] < 1e-6


def test_invariance_report_checks_the_symmetry_it_is_told_of():
    tor = M.torus(2.0, 1.0)
    off_axis = MB.MobiusMap((MB.Inversion(center=(0.3, 0.0, 3.0), radius=1.0),))
    with pytest.raises(NumericError):
        MB.invariance_report(tor, off_axis, "residue_m4", axis_symmetric=True)
    on_axis = MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 3.0), radius=1.0),))
    rep = MB.invariance_report(tor, on_axis, "residue_m4", axis_symmetric=True)
    assert rep["rel"] < 1e-6


def test_invariance_quantities_unknown():
    with pytest.raises(NumericError):
        MB._quantity(M.sphere(2, 1.0), "bogus", 16)


# --- exact jets on Moebius images -------------------------------------------

def _verify_inversion():
    # the inversion of the acceptance suite's mobius-spheroid-R(-8) check
    return MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 0.0, 0.0, 3.0), radius=1.0),))


def test_spheroid_image_carries_an_exact_implicit():
    img = MB.transform_spec(M.spheroid(math.sqrt(2)), _verify_inversion())
    assert img.implicit is not None
    u = np.array([[0.4, 1.0, 1.3, 0.7], [1.2, 0.6, 2.0, 4.0], [2.5, 1.4, 0.9, 2.2]])
    assert np.max(np.abs(img.implicit.value(img.patches[0].chart(u)))) <= 1e-12


def test_spheroid_image_curvatures_follow_the_transformation_law():
    from residue_lab.manifold.frames import curvature_frame
    sp = M.spheroid(math.sqrt(2))
    img = MB.transform_spec(sp, _verify_inversion())
    for u in ([0.4, 1.0, 1.3, 0.7], [1.2, 0.6, 2.0, 4.0], [2.5, 1.4, 0.9, 2.2]):
        src = curvature_frame(sp, u, max_order=2)
        fr = curvature_frame(img, u, max_order=2)
        assert np.allclose(fr.x, MB.Inversion((0.0, 0.0, 0.0, 0.0, 3.0)).apply(src.x)[0],
                           atol=1e-12)
        kt = MB.transformed_curvatures(src.kappa, src.x, src.nu,
                                       center=(0.0, 0.0, 0.0, 0.0, 3.0))
        # the center lies outside, so the outward image takes the + branch
        assert np.max(np.abs(np.sort(fr.kappa) - np.sort(kt))) < 1e-10


def test_spheroid_image_r8_paths_agree():
    from residue_lab import residues as res
    img = MB.transform_spec(M.spheroid(math.sqrt(2)), _verify_inversion())
    r8 = res.residue_m8(img, order=40)
    assert r8["spread"] <= 1e-8


@pytest.mark.parametrize("center, sign", [((0.0, 0.3, 0.5), -1.0), ((0.0, 0.0, 2.5), 1.0)])
def test_image_frame_normal_is_outward_and_transported(center, sign):
    # an interior center turns the transported normal inward; the image is
    # oriented outward, so its normal is -apply_normal there, +apply_normal
    # for an exterior center
    from residue_lab.manifold.frames import curvature_frame
    sph = M.sphere(2, 1.0)
    mp = MB.MobiusMap((MB.Inversion(center=center, radius=1.0),))
    img = MB.transform_spec(sph, mp)
    assert img.implicit is not None
    # image of the unit sphere: a round sphere; its center from the images
    # of the diametral pair on the line through the inversion center
    c = np.asarray(center)
    d = c / np.linalg.norm(c)
    ends = mp.apply(np.stack([d, -d]))
    mid = ends.mean(axis=0)
    rad = 0.5 * np.linalg.norm(ends[0] - ends[1])
    for u in ([0.7, 0.4], [1.6, 2.9], [2.4, 5.0]):
        fr = curvature_frame(img, u)
        x_src = sph.patches[0].chart(np.array([u]))
        nu_src = sph.patches[0].normal(np.array([u]))
        moved = mp.apply_normal(x_src, nu_src)[0]
        assert np.allclose(fr.nu, sign * moved / np.linalg.norm(moved), atol=1e-12)
        assert np.allclose(fr.nu, (fr.x - mid) / rad, atol=1e-10)
        assert np.allclose(fr.nu, img.patches[0].normal(np.array([u]))[0], atol=1e-12)
        assert np.allclose(fr.kappa, [-1.0 / rad, -1.0 / rad], atol=1e-10)


def test_negative_scale_keeps_image_normals_outward():
    from residue_lab.manifold.frames import curvature_frame
    mp = MB.MobiusMap((MB.Similarity(-0.5, None, (1.0, 0.0, 0.0)),))
    img = MB.transform_spec(M.sphere(2, 1.0), mp)
    u = np.array([[0.7, 0.4]])
    fr = curvature_frame(img, u[0])
    outward = (fr.x - np.array([1.0, 0.0, 0.0])) / 0.5
    assert np.allclose(fr.nu, outward, atol=1e-12)
    assert np.allclose(img.patches[0].normal(u)[0], outward, atol=1e-12)


def test_inversion_differential_is_the_scaled_radial_reflection():
    # rho^2/|w|^2 (I - 2 w w^T/|w|^2): conformal with factor lam = rho^2/|w|^2,
    # -lam on the radial direction w, +lam on its orthogonal complement
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3))
    inv = MB.Inversion(center=(0.2, -0.1, 0.4), radius=1.3)
    w = x - np.asarray(inv.center)
    lam = 1.3 ** 2 / np.einsum("ni,ni->n", w, w)
    D = inv.differential(x)
    perp = np.cross(w, rng.normal(size=(6, 3)))
    for Di, wi, li, pi in zip(D, w, lam, perp):
        assert np.allclose(Di @ Di.T, li ** 2 * np.eye(3), rtol=0, atol=1e-14 * li ** 2)
        assert np.allclose(Di @ wi, -li * wi, rtol=0, atol=1e-14 * li * np.linalg.norm(wi))
        assert np.allclose(Di @ pi, li * pi, rtol=0, atol=1e-14 * li * np.linalg.norm(pi))


def test_image_jacobian_matches_central_differences_of_the_image_chart():
    c, s = math.cos(0.3), math.sin(0.3)
    rot = ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
    mp = MB.MobiusMap((MB.Inversion(center=(0.0, 0.4, 2.5), radius=1.2),
                       MB.Similarity(-0.7, rot, (0.1, 0.0, -0.2))))
    patch = MB.transform_spec(M.torus(2.0, 1.0), mp).patches[0]
    u = np.random.default_rng(5).uniform(0.0, 2 * math.pi, size=(20, 2))
    J = patch.jacobian(u)
    h = 1e-5
    fd = np.stack([(patch.chart(u + h * e) - patch.chart(u - h * e)) / (2 * h)
                   for e in np.eye(2)], axis=2)
    assert J.shape == (20, 3, 2)
    assert np.max(np.abs(J - fd)) <= 1e-8 * np.max(np.abs(J))


# --- the cap path on Moebius images --------------------------------------------

def _sphere_image():
    # |x - c| runs over [2, 4] on the unit sphere, so the image under the unit
    # inversion about c = (0, 0, 3) is a round sphere of radius 1/8
    mp = MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 3.0), radius=1.0),))
    return MB.transform_spec(M.sphere(2, 1.0), mp)


def test_sphere_image_profile_through_the_caps(monkeypatch):
    # the image keeps the symmetry about the last axis: one cap per orbit
    centers = []
    cap = cont._cap_masses_implicit
    monkeypatch.setattr(cont, "_cap_masses_implicit",
                        lambda *a: centers.append(len(a[1])) or cap(*a))
    prof = cont.distance_profile(_sphere_image())
    assert sum(centers) == 32
    monkeypatch.undo()
    r2 = cont.beta_eval(prof, -2.0)
    assert r2.at_pole and abs(r2.residue / (math.pi ** 2 / 8) - 1.0) <= 1e-10
    assert abs(cont.beta_eval(prof, -4.0).residue) <= 1e-10
    ref = cont.beta_eval(cont.distance_profile(M.sphere(2, 0.125)), 1.0).value.real
    assert abs(cont.beta_eval(prof, 1.0).value.real / ref - 1.0) <= 1e-4


@pytest.mark.parametrize("spec", [
    M.torus(2.0, 1.0), M.ellipsoid((1.0, 1.3, 0.8)),
    MB.transform_spec(M.torus(2.0, 1.0),
                      MB.MobiusMap((MB.Inversion(center=(0.5, -0.2, 2.5), radius=1.5),
                                    MB.Similarity(scale=0.7, translation=(0.1, 0.0, -0.3)))))],
    ids=["torus", "ellipsoid", "torus-image"])
def test_pointwise_implicit_matches_the_ring(spec):
    # the constant and linear terms of F(p + u) on series are F(p) and grad F(p)
    u = np.array([[0.3, 1.1], [2.0, 4.0], [1.2, 0.5]])
    x = spec.patches[0].chart(u) + 0.05
    F, g = spec.implicit.value_and_gradient(x)
    assert np.array_equal(spec.implicit.value(x), F)
    from residue_lab.manifold import series
    # packed coefficient index of u_0, u_1, u_2 in a degree-1 series
    lin = [series.monomials(3, 1).index(tuple(e)) for e in np.eye(3, dtype=int).tolist()]
    for p, Fp, gp in zip(x, F, g):
        X = np.zeros((3, 4))
        X[:, 0] = p
        X[[0, 1, 2], lin] = 1.0
        ring_F, ring_g = spec.implicit.ring(X, True, 3)
        scale = np.max(np.abs(gp))
        assert abs(ring_F[0] - Fp) <= 1e-13 * scale
        assert np.max(np.abs(ring_F[lin] - gp)) <= 1e-13 * scale
        assert np.max(np.abs(ring_g[:, 0] - gp)) <= 1e-13 * scale


def test_the_guard_reads_the_chart_points_of_the_grid():
    # an inversion center on a node of the order-16 patch grid raises; a far
    # center does not
    from residue_lab.manifold.quadrature import patch_grid
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    node = patch.chart(patch_grid(patch, 16)[0])[37]
    with pytest.raises(NumericError):
        MB.transform_spec(tor, MB.MobiusMap((MB.Inversion(center=tuple(node)),)))
    image = MB.transform_spec(tor, MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 3.0)),)))
    assert image.implicit is not None


class _Unread:
    def apply(self, x):
        raise AssertionError("a point was mapped after the last inversion")


def test_a_second_inversion_center_is_checked_against_the_first_image():
    # the first image of the torus lies within 0.5 of (0, 0, 3), 1.5 or more
    # from the torus itself: a second center on the image of a grid node
    # raises only if the guard reads the mapped points
    from residue_lab.manifold.quadrature import patch_grid
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    first = MB.Inversion(center=(0.0, 0.0, 3.0))
    x = patch.chart(patch_grid(patch, 16)[0])
    node = first.apply(x)[37]
    assert np.min(np.linalg.norm(x - node, axis=1)) > 1.0
    with pytest.raises(NumericError, match="guard ball"):
        MB.transform_spec(tor, MB.MobiusMap((first, MB.Inversion(center=tuple(node)))))
    image = MB.transform_spec(tor, MB.MobiusMap((first, MB.Inversion(center=(0.0, 0.0, -3.0)))))
    assert image.implicit is not None
    # no step after the last inversion maps the points
    MB.MobiusMap((first, MB.Inversion(center=(0.0, 0.0, -3.0)), _Unread())).check_guard([x])


def _torus_guard_blocks():
    from residue_lab.manifold.quadrature import patch_grid_blocks
    tor = M.torus(2.0, 1.0)
    patch = tor.patches[0]
    return tor, [patch.chart(u) for u, _ in patch_grid_blocks(patch, 16)]


def test_the_guard_names_the_first_center_too_close_in_step_order():
    # the second center sits on the first image of a node of block 2, the
    # first center next to a node of block 10: the stream meets the second
    # hit first, and the guard still names the first center
    tor, blocks = _torus_guard_blocks()
    near = blocks[10][3] + np.array([0.0, 0.0, 0.01])
    first = MB.Inversion(center=tuple(near))
    second = MB.Inversion(center=tuple(first.apply(blocks[2])[5]))
    assert np.min(np.linalg.norm(np.concatenate(blocks[:10]) - near, axis=1)) > 0.1
    for mmap in (MB.MobiusMap((first, second)), MB.MobiusMap((first, second, _Unread()))):
        with pytest.raises(NumericError, match=re.escape(str(first.center))):
            mmap.check_guard(iter(blocks))
    with pytest.raises(NumericError, match=re.escape(str(first.center))):
        MB.transform_spec(tor, MB.MobiusMap((first, second)))
    # with the first center moved away, the second is the one named
    far = MB.Inversion(center=(0.0, 0.0, 3.0))
    second = MB.Inversion(center=tuple(far.apply(blocks[2])[5]))
    with pytest.raises(NumericError, match=re.escape(str(second.center))):
        MB.transform_spec(tor, MB.MobiusMap((far, second)))


def test_a_center_on_a_grid_node_refuses_without_a_numpy_warning():
    # mapping the node's block through the first inversion divides by zero;
    # the guard still refuses on the first center, and prints nothing
    tor, blocks = _torus_guard_blocks()
    first = MB.Inversion(center=tuple(blocks[4][7]))
    mmap = MB.MobiusMap((first, MB.Inversion(center=(0.0, 0.0, -3.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=re.escape(str(first.center))):
            MB.transform_spec(tor, mmap)
        with pytest.raises(NumericError, match=re.escape(str(first.center))):
            mmap.check_guard(blocks)


def test_the_guard_streams_the_4d_grid():
    # the order-16 guard grid of a 4-D shape has 65,536 points; charted one
    # first-axis node (4,096 rows) at a time, the transform holds under 2 MB
    import tracemalloc
    spec = M.spheroid(math.sqrt(2.0))
    mmap = MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 0.0, 0.0, 3.0)),))
    MB.transform_spec(spec, mmap)
    tracemalloc.start()
    try:
        MB.transform_spec(spec, mmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
