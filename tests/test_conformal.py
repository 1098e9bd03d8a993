import itertools
import math

import numpy as np
import pytest

import residue_lab.conformal as CF
import residue_lab.manifold as M
import residue_lab.oracles as O
from residue_lab._util import NumericError
from residue_lab.manifold.frames import curvature_frame


def _weyl_norm_hyp_product_form(kappa) -> float:
    """|W|^2 via the alternating product over all permutations."""
    k = np.asarray(kappa, dtype=float)
    total = 0.0
    for i, j, l, p in itertools.permutations(range(4)):
        total += (k[i] - k[j]) * (k[j] - k[l]) * (k[l] - k[p]) * (k[p] - k[i])
    return total / 6.0


def _q_energy_product_form(kappa) -> float:
    k = np.asarray(kappa, dtype=float)
    total = 0.0
    for i, j, l, p in itertools.permutations(range(4)):
        total += (k[i] - k[j]) ** 2 * (k[i] - k[l]) * (k[i] - k[p])
    return total / 2.0


def test_weyl_two_forms_agree():
    rng = np.random.default_rng(1)
    for k in rng.normal(size=(40, 4)):
        a = CF.weyl_norm_hyp(k)
        b = _weyl_norm_hyp_product_form(k)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        assert a >= -1e-12


def test_weyl_zero_iff_three_equal():
    assert CF.weyl_norm_hyp((2.0, 2.0, 2.0, -1.0)) == pytest.approx(0.0, abs=1e-13)
    assert CF.weyl_norm_hyp((1.0, 1.0, 2.0, 2.0)) > 0.1


def test_q_forms_and_equality_cases():
    rng = np.random.default_rng(2)
    for k in rng.normal(size=(40, 4)):
        a = CF.q_energy(k)
        b = _q_energy_product_form(k)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))
        assert a >= -1e-11
    assert CF.q_energy((0.4, 0.4, -2.0, -2.0)) == pytest.approx(0.0, abs=1e-13)
    assert CF.q_energy((1.0, 1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-13)
    # umbilic: both invariants vanish
    assert CF.weyl_norm_hyp((3.0,) * 4) == pytest.approx(0.0, abs=1e-12)


def test_graham_witten_sphere_and_spheroids():
    assert CF.graham_witten(M.sphere(4, 1.0), order=40) == pytest.approx(
        math.pi ** 2, rel=1e-10)
    for a in (math.sqrt(2), 2.0):
        assert CF.graham_witten(M.spheroid(a), order=40) == pytest.approx(
            O.spheroid_gw(a), rel=1e-9)


def test_grad_h_sq_matches_finite_differences():
    # exact graph-f3 |grad H|^2 against central differences of H in parameter space
    sp = M.spheroid(math.sqrt(2))
    for t in (0.3, 0.7, 1.1, 1.9, 2.5, 2.9):
        u = np.array([t, 1.0, 1.3, 0.7])
        exact = curvature_frame(sp, u, max_order=3).grad_H_sq()
        fd = CF._grad_h_sq_intrinsic(sp, 0, u)
        assert exact == pytest.approx(fd, rel=1e-8)


def test_graham_witten_generic_ellipsoid_scale_invariant():
    # no rotation symmetry: the full 4-parameter grid, exact jets throughout
    el = M.ellipsoid((1.0, 1.2, 0.9, 1.1, 1.3))
    gw = CF.graham_witten(el, order=6)
    gw2 = CF.graham_witten(M.scaled(el, 2.0), order=6)
    assert math.isfinite(gw)
    assert gw2 == pytest.approx(gw, rel=1e-10)


def test_energy_breakdown_identity():
    eb = CF.energy_breakdown(M.sphere(4, 1.0), order=40)
    assert abs(eb.identity_residual) < 1e-10
    assert abs(eb.weyl) < 1e-10
    assert abs(eb.z_energy) < 1e-10
    assert eb.chern / (8 * math.pi ** 2) == pytest.approx(2.0, abs=1e-10)
    eb2 = CF.energy_breakdown(M.spheroid(math.sqrt(2)), order=40)
    assert abs(eb2.identity_residual) < 1e-8 * abs(eb2.gw)
    assert eb2.z_energy > 0
    assert eb2.chern / (8 * math.pi ** 2) == pytest.approx(2.0, abs=1e-8)


def test_classification_harness():
    for a in (math.sqrt(2), math.sqrt(3)):
        assert abs(CF.classification_harness(3, -4, 6, a)) < 1e-10
    assert abs(CF.classification_harness(1, 0, 0, math.sqrt(2))) > 1e-3
    d1 = CF.classification_harness(1.0, 2.0, -0.5, 1.7)
    d2 = CF.classification_harness(3.0, 6.0, -1.5, 1.7)
    assert d2 == pytest.approx(3.0 * d1, rel=1e-12)
    with pytest.raises(NumericError):
        CF.classification_harness(1, 0, 0, 1.0)


def test_spheroid_relative_check_closed_forms():
    chk = CF.spheroid_relative_check(math.sqrt(2))
    assert chk["r_a"] == pytest.approx(chk["r_a_closed"], rel=1e-12)
    assert chk["r_tilde"] == pytest.approx(chk["r_tilde_closed"], rel=1e-12)
    assert chk["sum_below_2r1"]
    chk1 = CF.spheroid_relative_check(1.0 + 1e-12)
    assert chk1["r_a_closed"] == pytest.approx(5 * math.pi / 2, rel=1e-8)
    assert chk1["r_tilde_closed"] == pytest.approx(5 * math.pi / 2, rel=1e-8)


def test_spheroid_inverted_curvature_formula_vs_transform_law():
    # tabulated image-curvature formulas against the general inversion law
    from residue_lab.mobius import transformed_curvatures
    a, t1 = math.sqrt(2), 0.9
    A = a * a * math.sin(t1) ** 2 + math.cos(t1) ** 2
    p = np.zeros(5)
    p[0] = math.sin(t1)
    p[4] = a * math.cos(t1)
    nu = np.zeros(5)
    nu[0] = math.sin(t1) / math.sqrt(A) * a / a
    nu[0] = a * math.sin(t1) / math.sqrt(a * a * math.sin(t1) ** 2 + math.cos(t1) ** 2)
    nu[4] = math.cos(t1) / a * a / math.sqrt(A)
    nu /= np.linalg.norm(nu)
    k1, kr = CF.spheroid_principal_curvatures(a, t1)
    tk1, tkr = CF.spheroid_inverted_curvatures(a, t1)
    law = transformed_curvatures(np.array([k1, kr]), p, nu)
    # the tabulated image curvatures are the (-) branch of the law
    assert -law[0] == pytest.approx(tk1, rel=1e-12)
    assert -law[1] == pytest.approx(tkr, rel=1e-12)


def test_independence_rank():
    assert CF.independence_defect(order=40) > 1e-6
