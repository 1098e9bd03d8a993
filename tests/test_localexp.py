"""The polynomial expansion engine against the closed-form local formulas.

Random graph jets exercise the generic direction-sphere expansion; the
closed-form kappa/c/d formulas for the local residues must agree exactly.
"""

import math

import numpy as np
import pytest

import residue_lab.manifold as M
from residue_lab.manifold.frames import CurvatureFrame, curvature_frame
from residue_lab.manifold.localexp import (local_residue_graph,
                                           relative_local_residue)
from residue_lab.residues import (extrinsic_ball_t6, local_r8_nu_raw, local_r8_raw,
                                  local_residue_m2, local_residue_m2_nu,
                                  meansq_from_residues, scalar_from_residues)
from residue_lab.oracles import sphere_volume


def random_frame(m: int, q: int, seed: int) -> CurvatureFrame:
    rng = np.random.default_rng(seed)

    def sym(order):
        t = rng.normal(size=(m,) * order + (q,))
        acc = np.zeros_like(t)
        for perm_axes in _perms(order):
            acc += np.transpose(t, perm_axes + (order,))
        return acc / math.factorial(order)

    f2 = sym(2)
    if q == 1:
        # principal frame for the hypersurface formulas
        lam, R = np.linalg.eigh(f2[..., 0])
        order_idx = np.argsort(-lam)
        lam = lam[order_idx]
        R = R[:, order_idx]
        f2 = np.einsum("ia,jb,ij->ab", R, R, f2[..., 0])[..., None]
        f3 = np.einsum("ia,jb,kc,ijkq->abcq", R, R, R, sym(3))
        f4 = np.einsum("ia,jb,kc,ld,ijklq->abcdq", R, R, R, R, sym(4))
        kappa = lam
    else:
        f3, f4, kappa = sym(3), sym(4), None
    n = m + q
    E = np.eye(n)[:m]
    NB = np.eye(n)[m:]
    return CurvatureFrame(x=np.zeros(n), tangent=E, normal_basis=NB,
                          f2=f2, f3=f3, f4=f4, kappa=kappa)


def _perms(order):
    import itertools
    return [p for p in itertools.permutations(range(order))]


@pytest.mark.parametrize("m,q,seed", [(2, 1, 0), (3, 1, 1), (4, 1, 2), (2, 2, 3), (4, 3, 4)])
def test_engine_matches_closed_m2_formulas(m, q, seed):
    fr = random_frame(m, q, seed)
    assert local_residue_graph(fr, 1, "one") == pytest.approx(
        local_residue_m2(fr), rel=1e-11)
    assert local_residue_graph(fr, 1, "nu") == pytest.approx(
        local_residue_m2_nu(fr), rel=1e-11)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_closed_m8_formulas(seed):
    fr = random_frame(4, 1, 10 + seed)
    assert local_residue_graph(fr, 2, "one") == pytest.approx(
        local_r8_raw(fr), rel=1e-10)
    assert local_residue_graph(fr, 2, "nu") == pytest.approx(
        local_r8_nu_raw(fr), rel=1e-10)


def test_first_coefficient_is_unit_sphere_volume():
    fr = random_frame(3, 1, 7)
    assert local_residue_graph(fr, 0, "one") == pytest.approx(
        sphere_volume(2), rel=1e-12)
    assert local_residue_graph(fr, 0, "nu") == pytest.approx(
        sphere_volume(2), rel=1e-12)


def test_scalar_and_meansq_recovery():
    # the closed-form linear combinations reproduce Sc and |H|^2 from the two
    # local residues, for any jet and codimension
    for m, q, seed in ((2, 1, 21), (3, 2, 22), (4, 1, 23)):
        fr = random_frame(m, q, seed)
        assert scalar_from_residues(fr) == pytest.approx(fr.scalar_curvature, rel=1e-10)
        assert meansq_from_residues(fr) == pytest.approx(fr.mean_sq, rel=1e-10)
    # unit S^2 values quoted in the examples
    fr = curvature_frame(M.sphere(2, 1.0), [1.1, 0.7])
    assert local_residue_m2_nu(fr) == pytest.approx(-math.pi, abs=1e-12)
    assert local_residue_m2(fr) == pytest.approx(0.0, abs=1e-12)
    assert scalar_from_residues(fr) == pytest.approx(2.0, abs=1e-11)
    assert meansq_from_residues(fr) == pytest.approx(4.0, abs=1e-11)
    flat = CurvatureFrame(x=np.zeros(3), tangent=np.eye(3)[:2],
                          normal_basis=np.eye(3)[2:],
                          f2=np.zeros((2, 2, 1)), f3=np.zeros((2, 2, 2, 1)),
                          f4=np.zeros((2, 2, 2, 2, 1)), kappa=np.zeros(2))
    assert scalar_from_residues(flat) == 0.0
    assert meansq_from_residues(flat) == 0.0


def test_relative_local_residues_closed_forms():
    # boundary-local and local relative residues at -n-1 both equal
    # o_{n-2}/(2(n-1)) H; the -n-3 combinations give the reference cubic and
    # Laplacian forms
    for m, seed in ((2, 31), (3, 32), (4, 33)):
        fr = random_frame(m, 1, seed)
        n = m + 1
        o = sphere_volume(n - 2)
        h = float(fr.kappa.sum())
        tgt = o / (2 * (n - 1)) * h
        assert relative_local_residue(fr, 0, "boundary") == pytest.approx(tgt, rel=1e-10)
        assert relative_local_residue(fr, 0, "local") == pytest.approx(tgt, rel=1e-10)
        rb = relative_local_residue(fr, 1, "boundary")
        rl = relative_local_residue(fr, 1, "local")
        cubic = o / (48.0 * (n * n - 1)) * (
            4.0 * float(np.sum(fr.kappa ** 3)) - h ** 3)
        assert 0.5 * (-rb + 3.0 * rl) == pytest.approx(cubic, rel=1e-9)
        lap = o / (12.0 * (n * n - 1)) * fr.delta_H()
        assert rb - rl == pytest.approx(lap, rel=1e-9)


def test_relative_difference_vanishes_on_spheres():
    fr = curvature_frame(M.sphere(2, 1.0), [1.3, 0.4])
    rb = relative_local_residue(fr, 1, "boundary")
    rl = relative_local_residue(fr, 1, "local")
    assert rb - rl == pytest.approx(0.0, abs=1e-13)


def _extrinsic_ball_t6_graph_oracle(frame: CurvatureFrame) -> float:
    """Independent value: one sixth of the graph-method local residue at -6."""
    return local_residue_graph(frame, j=2, weight="one") / 6.0


def test_extrinsic_ball_t6_cross_method():
    # unit sphere, torus point, flat plane
    fr_s = curvature_frame(M.sphere(2, 1.0), [1.1, 0.7])
    assert extrinsic_ball_t6(fr_s) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_s), rel=1e-6)
    fr_t = curvature_frame(M.torus(2.0, 1.0), [0.8, 2.0])
    assert extrinsic_ball_t6(fr_t) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_t), rel=1e-5)
    flat = CurvatureFrame(x=np.zeros(3), tangent=np.eye(3)[:2],
                          normal_basis=np.eye(3)[2:],
                          f2=np.zeros((2, 2, 1)), f3=np.zeros((2, 2, 2, 1)),
                          f4=np.zeros((2, 2, 2, 2, 1)), kappa=np.zeros(2))
    assert extrinsic_ball_t6(flat) == 0.0
    # random jets too
    fr_r = random_frame(2, 1, 41)
    assert extrinsic_ball_t6(fr_r) == pytest.approx(
        _extrinsic_ball_t6_graph_oracle(fr_r), rel=1e-9)
