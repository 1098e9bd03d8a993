import math

import numpy as np
import pytest

import residue_lab.manifold as M
import residue_lab.residues as R
from residue_lab.manifold import quadrature as Q
from residue_lab.manifold.frames import curvature_frame
from residue_lab.oracles import sphere_volume


def test_residue_first_examples():
    assert R.residue_first(M.circle(1.0), order=48) == pytest.approx(4 * math.pi, rel=1e-10)
    assert R.residue_first(M.sphere(2, 1.0), order=32) == pytest.approx(
        8 * math.pi ** 2, rel=1e-10)
    # homogeneity degree m: Sphere(2, c) -> c^2 * 8 pi^2
    assert R.residue_first(M.sphere(2, 1.7), order=32) == pytest.approx(
        1.7 ** 2 * 8 * math.pi ** 2, rel=1e-10)


def _residue_second_surface_form(spec, order):
    """(pi/8) int (kappa_1 - kappa_2)^2 for closed surfaces in R^3; equals residue_second."""
    return (math.pi / 8.0) * R.frame_integral(
        spec, lambda fr: (fr.kappa[..., 0] - fr.kappa[..., 1]) ** 2, order=order, max_order=2)


def _body_residue_n3_crosscheck(body, order):
    """The (3 H^2 - 2 Sc) form of the -n-3 body residue; equals the ||h||, |H| form."""
    n = body.n
    return sphere_volume(n - 2) / (24.0 * (n * n - 1)) * R.frame_integral(
        body, lambda fr: 3.0 * fr.H ** 2 - 2.0 * fr.scalar_curvature, order=order, max_order=2)


def test_residue_second_examples():
    assert R.residue_second(M.sphere(2, 1.0), order=24) == pytest.approx(0.0, abs=1e-12)
    assert R.residue_second(M.circle(1.0), order=48) == pytest.approx(
        math.pi / 2, rel=1e-10)
    # surface form (pi/8) int (k1 - k2)^2 agrees on surfaces
    tor = M.torus(2.0, 1.0)
    assert R.residue_second(tor, order=40) == pytest.approx(
        _residue_second_surface_form(tor, order=40), rel=1e-12)


def test_body_residues_ball3():
    rep = R.body_residues(M.ball(3, 1.0), order=32)
    assert rep.value(-3) == pytest.approx(16 * math.pi ** 2 / 3, rel=1e-12)
    assert rep.value(-4) == pytest.approx(-4 * math.pi ** 2, rel=1e-12)
    assert rep.value(-6) == pytest.approx(math.pi ** 2 / 3, rel=1e-12)
    # the (3H^2 - 2Sc) cross-check form
    assert _body_residue_n3_crosscheck(M.ball(3, 1.0), order=32) == pytest.approx(
        math.pi ** 2 / 3, rel=1e-12)


def test_relative_residues_ball3():
    rep = R.relative_residues(M.ball(3, 1.0), order=32)
    assert rep.value(-3) == pytest.approx(8 * math.pi ** 2, rel=1e-12)
    assert rep.value(-4) == pytest.approx(-4 * math.pi ** 2, rel=1e-12)
    # difference field vanishes identically on round spheres (H constant)
    assert rep.metadata["difference_field"] == "relative_difference_density"
    fr = curvature_frame(M.sphere(2, 1.0), [0.8, 0.3], max_order=4)
    assert R.relative_difference_density(fr, 3) == pytest.approx(0.0, abs=1e-12)


def test_residue_report_serialization():
    rep = R.body_residues(M.ball(3, 1.0), order=16)
    text = rep.to_text()
    assert text.startswith("RESIDUE-REPORT 1")
    assert "residue -3 " in text
    assert text == R.body_residues(M.ball(3, 1.0), order=16).to_text()
    rel = R.relative_residues(M.ball(3, 1.0), order=16).to_text()
    assert "0x" not in rel
    assert rel == R.relative_residues(M.ball(3, 1.0), order=16).to_text()


def _tensor_grid(mp):
    """Force the tensor grid: no shape counts as axis-symmetric."""
    mp.setattr(Q, "axis_symmetric", lambda s: False)


def test_vector_integrand_matches_scalar_calls(monkeypatch):
    fns = (lambda fr: fr.H, lambda fr: fr.hs_norm_sq, lambda fr: fr.scalar_curvature)
    cases = ((M.torus(2.0, 1.0), 12, 2, True),              # patch grid
             (M.torus(2.0, 1.0), 12, 2, False),             # orbit rows
             (M.spheroid(1.7), 16, 3, False),               # orbit rows
             (M.spheroid(1.7), 3, 2, True))                 # 4-parameter grid
    for spec, order, max_order, grid in cases:
        with monkeypatch.context() as mp:
            if grid:
                _tensor_grid(mp)
            vec = R.frame_integral(spec, lambda fr: [f(fr) for f in fns], order=order,
                                   max_order=max_order)
            tup = R.frame_integral(spec, lambda fr: tuple(f(fr) for f in fns), order=order,
                                   max_order=max_order)
            assert vec.shape == (3,)
            for k, f in enumerate(fns):
                one = R.frame_integral(spec, f, order=order, max_order=max_order)
                assert isinstance(one, float)
                assert vec[k] == one and tup[k] == one


def test_m8_requires_four_dim():
    from residue_lab._util import NumericError
    for fn in (R.residue_m8, R.nu_residue_m8, R.m8_residues):
        with pytest.raises(NumericError):
            fn(M.sphere(2, 1.0))


def _rows(u) -> int:
    """Parameter rows in a curvature_frame call: one row or a stack."""
    return len(np.atleast_2d(u))


def test_m8_residues_share_one_frame_pass(monkeypatch):
    built = []

    def counting_frame(*args, **kw):
        built.extend([kw["max_order"]] * _rows(args[1]))
        return curvature_frame(*args, **kw)

    monkeypatch.setattr(R, "curvature_frame", counting_frame)
    for spec, order, grid in ((M.spheroid(1.7), 16, False),    # orbit rows
                              (M.spheroid(1.7), 3, True)):     # 4-parameter grid
        with monkeypatch.context() as mp:
            if grid:
                _tensor_grid(mp)
            built.clear()
            r8, r8nu = R.m8_residues(spec, order=order)
            nodes = len(built)
            assert set(built) == {4}
            assert r8 == R.residue_m8(spec, order=order)
            assert r8nu == R.nu_residue_m8(spec, order=order)
            assert len(built) == 3 * nodes


def test_r8_sums_are_formed_once_per_frame(monkeypatch):
    # energy_breakdown and m8_residues share the kappa and c sums of a frame
    # block among all their z = -8 integrands
    from residue_lab import conformal
    counts = {"blocks": 0, "rows": 0, "kappa": 0, "c": 0}

    def counting(key, fn):
        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)
        return wrapper

    def counting_frame(*args, **kw):
        counts["rows"] += _rows(args[1])
        return counting("blocks", curvature_frame)(*args, **kw)

    monkeypatch.setattr(R, "curvature_frame", counting_frame)
    monkeypatch.setattr(R, "_kappa_sums", counting("kappa", R._kappa_sums))
    monkeypatch.setattr(R, "_c_sums", counting("c", R._c_sums))
    conformal.energy_breakdown(M.spheroid(1.7), order=8)
    R.m8_residues(M.spheroid(1.7), order=8)
    assert counts["rows"] == 16
    assert counts["kappa"] == counts["c"] == counts["blocks"] == 2


def test_clifford_residues_from_the_exact_chart_jacobian():
    # the flat torus S^1 x S^1 in R^4 has area 4 pi^2: R(-2) = 2 pi area
    assert R.residue_first(M.clifford_torus(1.0, 1.0), order=32) == pytest.approx(
        8 * math.pi ** 3, rel=1e-13)
    assert R.residue_second(M.clifford_torus(1.0, 1.0), order=32) == pytest.approx(
        math.pi ** 3, rel=3e-11)


def test_weyl_tube_k2():
    out = R.weyl_tube_k2(M.sphere(2, 1.0), order=24)
    assert out["direct"] == pytest.approx(4 * math.pi, rel=1e-10)
    assert out["residues"] == pytest.approx(4 * math.pi, rel=1e-10)
    # torus in R^3: both paths agree
    out_t = R.weyl_tube_k2(M.torus(2.0, 1.0), order=40)
    assert out_t["direct"] == pytest.approx(out_t["residues"], rel=1e-6)
    # flat Clifford-style torus in R^4: int Sc = 0
    out_c = R.weyl_tube_k2(M.clifford_torus(1.0, 1.0), order=16)
    assert abs(out_c["direct"]) < 1e-6
    assert abs(out_c["residues"]) < 1e-6


def test_lk_ball3_closed_values():
    C = R.lk_curvatures(M.ball(3, 1.0), order=32)
    assert C[3] == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert C[2] == pytest.approx(2 * math.pi, rel=1e-12)
    assert C[1] == pytest.approx(4.0, rel=1e-12)
    assert C[0] == pytest.approx(1.0, rel=1e-12)
    # Steiner polynomial reproduces the parallel-ball volume exactly
    vol = R.steiner_volume(M.ball(3, 1.0), 0.1, order=32)
    assert vol == pytest.approx(4 * math.pi / 3 * 1.1 ** 3, rel=1e-12)


def test_lk_two_dim_body():
    # ellipse body: C2 = area, C1 = perimeter / 2, C0 = 1
    body = M.ellipsoid_body((1.0, 0.6))
    C = R.lk_curvatures(body, order=64)
    assert C[2] == pytest.approx(math.pi * 0.6, rel=1e-10)
    assert C[0] == pytest.approx(1.0, rel=1e-10)
    CR = R.lk_from_residues(body, order=64)
    for k, v in CR.items():
        assert v == pytest.approx(C[k], rel=1e-8)


def test_intrinsic_residues_and_heat():
    s3 = R.sphere_intrinsic_data(3, 1.0)
    rr = R.intrinsic_residues(s3)
    assert rr[-3] == pytest.approx(8 * math.pi ** 3, rel=1e-12)
    assert rr[-5] == pytest.approx(-8 * math.pi ** 3 / 3, rel=1e-12)
    s2 = R.sphere_intrinsic_data(2, 1.0)
    a0, a1, a2 = R.heat_coefficients(s2)
    assert a0 == pytest.approx(4 * math.pi, rel=1e-14)
    assert a1 == pytest.approx(8 * math.pi / 6, rel=1e-14)
    assert a2 == pytest.approx(4 * math.pi / 15, rel=1e-13)
    # first two intrinsic residues match a0, a1 up to fixed constants
    rr2 = R.intrinsic_residues(s2)
    assert rr2[-2] == pytest.approx(sphere_volume(1) * 4 * math.pi, rel=1e-13)
    flat = R.flat_torus_intrinsic_data(2, 4 * math.pi ** 2)
    rrf = R.intrinsic_residues(flat)
    assert rrf[-4] == 0.0 and rrf[-6] == 0.0
    assert R.heat_coefficients(flat)[1:] == (0.0, 0.0)


def test_scalar_meansq_unit_sphere_values():
    fr = curvature_frame(M.sphere(2, 1.0), [1.0, 0.5])
    assert R.local_residue_m2_nu(fr) == pytest.approx(-math.pi, abs=1e-12)
    assert R.local_residue_m2(fr) == pytest.approx(0.0, abs=1e-13)
    assert R.scalar_from_residues(fr) == pytest.approx(2.0, abs=1e-11)
    assert R.meansq_from_residues(fr) == pytest.approx(4.0, abs=1e-11)


def test_residue_m8_sphere_and_duality():
    r8 = R.residue_m8(M.sphere(4, 1.0), order=40)
    assert abs(r8["modified"]) < 1e-10
    assert r8["spread"] < 1e-10
    r8nu = R.nu_residue_m8(M.sphere(4, 1.0), order=40)
    assert r8nu["modified"] == pytest.approx(2 * math.pi ** 4 / 3, rel=1e-12)
    from residue_lab.oracles import beta_ball_residue
    dual = -(-8.0) * (-8.0 + 3.0) * beta_ball_residue(5, -10)
    assert r8nu["modified"] == pytest.approx(dual, rel=1e-12)


def test_line_reduction_only_on_rotation_symmetric_shapes(monkeypatch):
    # a generic ellipsoid has no fiber symmetry, so it keeps the grid
    el = M.ellipsoid((1.0, 1.2, 0.9, 1.1, 1.3))
    kw = dict(order=5, max_order=2)
    unforced = R.frame_integral(el, lambda fr: 1.0, **kw)
    with monkeypatch.context() as mp:
        _tensor_grid(mp)
        assert unforced == R.frame_integral(el, lambda fr: 1.0, **kw)
    # an ellipsoid with four equal semiaxes is a scaled spheroid: it is reduced
    sp = M.ellipsoid((2.0, 2.0, 2.0, 2.0, 2.0 * math.sqrt(2)))
    assert M.shapes.axis_symmetric(sp) and not M.shapes.axis_symmetric(el)
    line = R.frame_integral(sp, lambda fr: 1.0, order=24, max_order=2)
    assert line == pytest.approx(2.0 ** 4 * R.volume(M.spheroid(math.sqrt(2)), order=24),
                                 rel=1e-12)


def test_residue_m8_full_grid_path(monkeypatch):
    # the generic 4-D tensor-product path; on the round sphere the integrand
    # is constant, so a coarse grid already gives the exact value
    _tensor_grid(monkeypatch)
    grid = R.nu_residue_m8(M.sphere(4, 1.0), order=8)["modified"]
    assert grid == pytest.approx(2 * math.pi ** 4 / 3, rel=1e-5)


def _counting_frames(monkeypatch):
    built = []

    def counting_frame(*args, **kw):
        built.extend([1] * _rows(args[1]))
        return curvature_frame(*args, **kw)

    monkeypatch.setattr(R, "curvature_frame", counting_frame)
    return built


def test_torus_frame_integral_builds_one_frame_per_orbit(monkeypatch):
    tor = M.torus(2.0, 1.0)
    fn = lambda fr: 2.0 * fr.hs_norm_sq - fr.mean_sq  # noqa: E731
    built = _counting_frames(monkeypatch)
    orbit = R.frame_integral(tor, fn, order=24)
    assert len(built) == 24
    _tensor_grid(monkeypatch)
    grid = R.frame_integral(tor, fn, order=24)
    assert len(built) == 24 + 24 ** 2
    assert orbit == pytest.approx(grid, rel=1e-13)


def test_generic_ellipsoid_keeps_the_tensor_grid(monkeypatch):
    el = M.ellipsoid((1.0, 1.3, 0.8))
    fn = lambda fr: (fr.H, fr.hs_norm_sq)  # noqa: E731
    built = _counting_frames(monkeypatch)
    vals = R.frame_integral(el, fn, order=10)
    assert len(built) == 100
    _tensor_grid(monkeypatch)
    assert np.array_equal(vals, R.frame_integral(el, fn, order=10))


def test_residue_second_of_the_five_sphere():
    # unit S^5: every kappa is 1, so 2 ||h||^2 - |H|^2 = 10 - 25 on all of it;
    # 16 orbit rows integrate sin^4 to rounding (12 leave 4.8e-13)
    want = sphere_volume(4) / 40.0 * (10.0 - 25.0) * sphere_volume(5)
    assert R.residue_second(M.sphere(5, 1.0), order=16) == pytest.approx(want, rel=1e-13)


# Per-node loops of the z = -8 and conformal sums, the references for their
# array forms.

def _loop_kappa_sums(k):
    s_k2k2 = sum(k[i] ** 2 * k[j] ** 2 for i in range(4) for j in range(i + 1, 4))
    s_kk3 = sum(k[i] * k[j] ** 3 for i in range(4) for j in range(4) if i != j)
    s_kkk2 = sum(k[i] * k[j] * k[l] ** 2 for i in range(4) for j in range(i + 1, 4)
                 for l in range(4) if l != i and l != j)
    return sum(k ** 4), s_k2k2, s_kk3, s_kkk2, np.prod(k)


def _loop_c_sums(fr):
    c = fr.c_mono
    return (sum(c(i, i, i) ** 2 for i in range(4)),
            sum(c(i, i, j) ** 2 for i in range(4) for j in range(4) if i != j),
            sum(c(i, j, k) ** 2 for i in range(4) for j in range(i + 1, 4)
                for k in range(j + 1, 4)),
            sum(c(i, i, k) * c(j, j, k) for i in range(4) for j in range(i + 1, 4)
                for k in range(4) if k != i and k != j),
            sum(c(i, i, i) * c(i, j, j) for i in range(4) for j in range(4) if i != j))


def _loop_d_sums(fr, h):
    k, d = fr.kappa, fr.d_mono
    return (sum((4.0 * k[i] + h) * d(i, i, i, i) for i in range(4)),
            sum((2.0 * k[i] + 2.0 * k[j] + h) * d(i, i, j, j)
                for i in range(4) for j in range(i + 1, 4)))


def _loop_weyl(k):
    s1 = sum(k[j] ** 2 * k[l] ** 2 for j in range(4) for l in range(j + 1, 4))
    s2 = sum(k[i] ** 2 * k[j] * k[l] for j in range(4) for l in range(j + 1, 4)
             for i in range(4) if i != j and i != l)
    return 4.0 / 3.0 * s1 - 4.0 / 3.0 * s2 + 8.0 * np.prod(k)


def _loop_q(k):
    s31 = sum(k[i] ** 3 * k[j] for i in range(4) for j in range(4) if i != j)
    s22 = sum(k[j] ** 2 * k[l] ** 2 for j in range(4) for l in range(j + 1, 4))
    return 3.0 * sum(k ** 4) - 4.0 * s31 + 6.0 * s22 - 3.0 * _loop_weyl(k)


def _loop_elementary(k):
    e = [1.0] + [0.0] * len(k)
    for x in k:
        e = [e[0]] + [e[i] + x * e[i - 1] for i in range(1, len(e))]
    return e


@pytest.mark.parametrize("spec", [M.spheroid(1.7), M.ellipsoid((1.0, 1.2, 0.9, 1.1, 1.3))],
                         ids=["spheroid", "ellipsoid"])
def test_array_integrands_match_one_row_frames(spec):
    from residue_lab import conformal as CF
    rng = np.random.default_rng(5)
    u = np.stack([rng.uniform(a + 0.05, b - 0.05, 12) for a, b in spec.patches[0].box], axis=1)
    stacked = curvature_frame(spec, u, max_order=4)
    ones = [curvature_frame(spec, row, max_order=4) for row in u]
    kappa4 = float(np.max(np.abs(stacked.kappa))) ** 4
    # |W|^2 and q cancel terms whose absolute values add up to < 200 kappa^4
    quartic = 200.0 * kappa4
    checks = {  # name: (array integrand, one-row reference, scale floor)
        "kappa_sums": (lambda f: R._kappa_sums(f.kappa), lambda f: _loop_kappa_sums(f.kappa),
                       kappa4),
        "c_sums": (R._c_sums, _loop_c_sums, 0.0),
        "d_sums": (lambda f: R._d_sums(f, -f.H), lambda f: _loop_d_sums(f, -f.H), 0.0),
        "weyl": (lambda f: CF.weyl_norm_hyp(f.kappa), lambda f: _loop_weyl(f.kappa), quartic),
        "q": (lambda f: CF.q_energy(f.kappa), lambda f: _loop_q(f.kappa), quartic),
        "chern": (lambda f: CF.chern_density(f.kappa), lambda f: 6.0 * np.prod(f.kappa), 0.0),
        "esym": (lambda f: R._elementary_symmetric(f.kappa), lambda f: _loop_elementary(f.kappa),
                 kappa4),
        "m2": (lambda f: (R.local_residue_m2(f), R.local_residue_m2_nu(f)),) * 2 + (0.0,),
        "m8": (R._m8_integrands, R._m8_integrands, 0.0),
        "energy": (CF._energy_densities, CF._energy_densities, 0.0),
        "laplacians": ((lambda f: (f.delta_sc(), f.delta_mean_sq(), f.delta_H(), f.grad_H_sq())),)
        * 2 + (0.0,),
    }
    for name, (array_fn, one_fn, floor) in checks.items():
        got = np.asarray(R._node_values(array_fn(stacked), len(u)))
        want = np.stack([np.asarray(one_fn(fr), dtype=float) for fr in ones], axis=-1)
        assert got.shape == want.shape, name
        scale = np.maximum(np.max(np.abs(want), axis=-1, keepdims=True), floor)
        assert np.all(np.abs(got - want) <= 1e-14 * scale), name


@pytest.mark.parametrize("fn, max_order, spec, order, grid", [
    (R._m8_integrands, 4, M.spheroid(1.7), 24, False),
    (R._m8_integrands, 4, M.spheroid(1.7), 3, True),
    (lambda fr: fr.H, 2, M.spheroid(1.7), 24, False),
    (lambda fr: fr.H, 2, M.torus(2.0, 1.0), 12, True)],
    ids=["m8-orbits", "m8-grid", "H-orbits", "H-torus-grid"])
def test_frame_integral_does_not_depend_on_the_block_split(fn, max_order, spec, order, grid,
                                                           monkeypatch):
    if grid:
        _tensor_grid(monkeypatch)
    whole = R.frame_integral(spec, fn, order=order, max_order=max_order)
    nodes = sum(len(u) for _, u, _ in Q.integration_grid(spec, order))
    # blocks of about half the nodes: the first block ends mid-grid
    per_row = math.comb(spec.m + max(2, max_order), spec.m)
    monkeypatch.setattr(R, "BLOCK_COEFFS", per_row * ((nodes + 1) // 2))
    calls = []
    monkeypatch.setattr(R, "curvature_frame",
                        lambda *a, **kw: calls.append(1) or curvature_frame(*a, **kw))
    split = R.frame_integral(spec, fn, order=order, max_order=max_order)
    assert len(calls) == 2
    assert np.all(np.abs(split - whole) <= 1e-15 * np.abs(whole))
