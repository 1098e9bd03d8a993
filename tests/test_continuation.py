import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residue_lab.continuation as cont
import residue_lab.manifold as M
import residue_lab.oracles as O
from residue_lab._util import ConfigError, NumericError
from residue_lab.continuation import ReachError, WeightKind
from residue_lab.manifold import quadrature


# --- profiles ---------------------------------------------------------------

def test_circle_leading_coefficient(circle_profile):
    # abar_0 = o_0 = 2 for the constant weight
    assert circle_profile.coeffs[0] == pytest.approx(2.0, rel=1e-3)
    assert circle_profile.coeffs[1] == pytest.approx(0.25, rel=1e-6)


def test_sphere_leading_coefficient(sphere2_profile):
    assert sphere2_profile.coeffs[0] == pytest.approx(2 * math.pi, rel=1e-3)


def test_torus_leading_coefficient(torus_profile):
    assert torus_profile.coeffs[0] == pytest.approx(2 * math.pi, rel=1e-3)


def test_geodesic_sphere_profile():
    prof = cont.distance_profile(M.sphere(2, 1.0), geodesic=True)
    assert prof.coeffs[0] == pytest.approx(2 * math.pi, rel=1e-9)
    assert prof.coeffs[1] == pytest.approx(-math.pi / 3, rel=1e-7)
    with pytest.raises(NumericError):
        cont.distance_profile(M.torus(2, 1), geodesic=True)


def evenness_diagnostic(spec, profile, weight=WeightKind.ONE):
    """Refit the small-t model allowing odd powers; return max |odd| / abar_0.

    Exact-mode profiles refit the closed-form bins of their own weight and
    distance (chord or arc); empirical profiles recompute the cap masses at
    the stored order. The refit takes the powers 0 .. 2 ncoef - 2, with
    ncoef the profile's own coefficient count on surfaces and 3 on curves:
    at 5 the curve refit has 9 powers on 18 bins, condition ~2e18, and reads
    its own rounding.
    """
    m, delta = profile.m, profile.cut[1]
    ncoef = 3 if m == 1 else len(profile.coeffs)
    if profile.mode == "exact":
        geodesic = profile.weight.endswith("-geodesic")
        near = cont._round_near_density(m, profile.metadata["r"],
                                        WeightKind(profile.weight.removesuffix("-geodesic")),
                                        geodesic)
        nbin = max(3 * ncoef, 18)
        edges = delta * np.arange(nbin + 1) / nbin
        masses = profile.vol * cont._cell_gauss(edges, 24, lambda ts: (near(ts),))[0]
    else:
        nbin = max(3 * (2 * ncoef) + 4, 24)
        t_grid = delta * np.arange(1, nbin + 1) / nbin
        masses = cont._near_masses(spec, weight, delta, t_grid,
                                   max(6, profile.metadata.get("order", 24) // 2), 32)
        edges = np.concatenate([[0.0], t_grid])
    # least squares in t / delta, rows normalized by the bins' t^(m-1) mass
    expo = np.arange(0, 2 * ncoef - 1)
    s0, s1 = edges[:-1] / delta, edges[1:] / delta
    rows = (s1 ** m - s0 ** m) / m
    A = np.stack([(s1 ** (m + e) - s0 ** (m + e)) / (m + e) for e in expo], axis=1)
    c = np.linalg.lstsq(A / rows[:, None], masses / (delta ** m * rows), rcond=None)[0]
    return float(np.max(np.abs(c[expo % 2 == 1])) / abs(c[0]))


def test_profile_evenness(circle_profile, torus_profile):
    leak = evenness_diagnostic(M.circle(1.0), circle_profile)
    assert leak < 1e-3
    leak_t = evenness_diagnostic(M.torus(2.0, 1.0), torus_profile)
    assert leak_t < 1e-3


def test_evenness_of_a_geodesic_profile_reads_the_arc_density():
    # arc length on the circle has the constant density 2, so no odd power
    # leaks; the chord density 2/sqrt(1 - t^2/4) would leak ~1e-4 at 3
    # coefficients
    prof = cont.distance_profile(M.circle(1.0), geodesic=True, fit_degree=3)
    assert evenness_diagnostic(M.circle(1.0), prof) <= 1e-10


def test_reach_refusal():
    with pytest.raises(ReachError):
        cont.distance_profile(M.torus(2.0, 1.0), delta=2.0)


def test_profile_serialization_roundtrip(circle_profile):
    text = circle_profile.to_text()
    back = cont.DistanceProfile.from_text(text)
    assert back.to_text() == text
    v0 = cont.beta_eval(circle_profile, 1.0).value
    v1 = cont.beta_eval(back, 1.0).value
    # the deserialized profile evaluates tails through the cell table
    assert abs(v0 - v1) / abs(v0) < 1e-6
    r0 = cont.residue_from_profile(circle_profile, -3)[0]
    r1 = cont.residue_from_profile(back, -3)[0]
    assert r0 == r1


def test_profile_text_without_a_cut_line_is_a_sharp_cut(circle_profile):
    # the format before the smooth cut wrote "delta e2" where "cut e1 e2" is now
    e2 = cont.fmt_float(circle_profile.cut[1])
    text = circle_profile.to_text()
    old = text.replace(f"cut {e2} {e2}\n", f"delta {e2}\n")
    assert old != text
    prof = cont.DistanceProfile.from_text(old)
    assert prof.cut == circle_profile.cut
    d = prof.cut[1]

    def near(z, skip=None):
        # the sharp-cut near part as written before the cut: vol sum_j a_j d^p / p
        total = 0.0 + 0.0j
        for j, a in enumerate(prof.coeffs):
            if j == skip:
                total += a * math.log(d)
                continue
            p = z + prof.m + 2 * j
            total += a * d ** p / p
        return prof.vol * total

    for z in (1.0, -0.5, -1.5, -2.5):
        zc = complex(z)
        assert cont.beta_eval(prof, z).value == near(zc) + cont._tail_part(prof, zc)
    assert cont.beta_eval(prof, -3.0).finite_part == near(-3.0, 1) + cont._tail_part(prof, -3.0)


def test_smooth_cut_moments_match_direct_quadrature(circle_profile):
    # M(p) = int_0^inf t^(p-1) chi dt = e1^p / p + int_e1^e2 t^(p-1) chi dt, and
    # the finite part -int ln t chi' dt = ln e1 + int_e1^e2 chi(t) / t dt
    from dataclasses import replace
    from residue_lab.manifold.quadrature import gauss_on
    e1, e2 = 0.15, 0.6
    rule = replace(circle_profile, cut=(e1, e2)).cut_rule
    assert math.fsum(w for _, w in rule) == pytest.approx(1.0, abs=1e-14)
    t, w = gauss_on(e1, e2, 400)
    chi = 1.0 - cont._smooth_ramp(e1, e2)[0](t)
    for p in (0.5, 1.0, 2.5, -1.5):
        direct = e1 ** p / p + np.sum(w * t ** (p - 1) * chi)
        assert sum(wk * tk ** p for tk, wk in rule) / p == pytest.approx(direct, rel=1e-12)
    direct = math.log(e1) + np.sum(w * chi / t)
    assert sum(wk * math.log(tk) for tk, wk in rule) == pytest.approx(direct, rel=1e-12)


def test_malformed_profile_text_is_a_numeric_error(circle_profile):
    text = circle_profile.to_text()
    lines = text.splitlines()
    coeffs = next(i for i, ln in enumerate(lines) if ln.startswith("coeffs "))
    bad = ["", "RLPROFILE 2\n" + text.split("\n", 1)[1],       # header
           text[:len(text) // 2], "\n".join(lines[:12]),        # truncated
           "\n".join(lines[:-2]), text.replace("tail_end", "tail_edge"),
           text.replace(lines[coeffs], lines[coeffs] + " nan"),
           text.replace(lines[coeffs], "coeffs inf"),
           text.replace(lines[-2], "tail_end -inf")]
    for t in bad:
        with pytest.raises(NumericError, match="unknown profile format"):
            cont.DistanceProfile.from_text(t)


_TOKENS = st.sampled_from(["", "0", "1", "-1", "3", "-3", "0.5", "nan", "inf", "-inf",
                           "1e400", "9" * 30, "x", "RLPROFILE", "tail_cells", "tail_end",
                           "end", "coeffs", "\n", " "])


@st.composite
def _profile_texts(draw):
    # arbitrary text, truncations and token mutations of a real to_text()
    text = cont.distance_profile(M.circle(1.0)).to_text()
    kind = draw(st.sampled_from(["text", "header", "truncate", "mutate"]))
    if kind == "text":
        return draw(st.text(max_size=200))
    if kind == "header":
        return "RLPROFILE 1\n" + draw(st.text(max_size=200))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    parts = re.split(r"(\s+)", text)
    for _ in range(draw(st.integers(1, 4))):
        k = 2 * draw(st.integers(0, len(parts) // 2 - 1))
        parts[k] = draw(_TOKENS)
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(text=_profile_texts())
def test_from_text_gives_a_profile_or_a_numeric_error(text):
    try:
        prof = cont.DistanceProfile.from_text(text)
    except NumericError:
        return
    assert isinstance(prof, cont.DistanceProfile)


def test_string_weights_match_their_kinds():
    ellipse = M.ellipse(1.0, 0.6)
    by_name = cont.distance_profile(ellipse, weight="nu", order=128)
    by_kind = cont.distance_profile(ellipse, weight=WeightKind.NU, order=128)
    assert by_name.to_text() == by_kind.to_text()
    # the hypersurface-only check sees the string too
    with pytest.raises(NumericError, match="Grassmann"):
        cont.distance_profile(M.clifford_torus(), weight="nu")
    with pytest.raises(ConfigError, match="unknown weight 'custom'"):
        cont.distance_profile(ellipse, weight="custom")


def test_nonfinite_z_is_a_config_error(circle_profile):
    from residue_lab._util import ConfigError
    for z in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):
        with pytest.raises(ConfigError, match="must be finite"):
            cont.beta_eval(circle_profile, z)
        with pytest.raises(ConfigError, match="must be finite"):
            cont.hadamard_finite_part(circle_profile, z)


# --- beta evaluation ---------------------------------------------------------

def test_beta_circle_values(circle_profile):
    assert cont.beta_eval(circle_profile, 0.0).value.real == pytest.approx(
        (2 * math.pi) ** 2, rel=1e-9)
    assert cont.beta_eval(circle_profile, 1.0).value.real == pytest.approx(
        16 * math.pi, rel=1e-9)
    assert abs(cont.beta_eval(circle_profile, -2.0).value) < 1e-6


def test_beta_matches_direct_double_quadrature(circle_profile, torus_profile):
    for z in (2.0, 1.0, -0.4):
        d = cont.direct_double_quadrature(M.circle(1.0), z)
        b = cont.beta_eval(circle_profile, z).value
        assert abs(b - d) / abs(d) < 1e-7
    # torus: z = 2 makes the pair integrand polynomial, so the plain pair sum
    # is spectrally accurate too
    d = cont.direct_double_quadrature(M.torus(2.0, 1.0), 2.0, order=48)
    b = cont.beta_eval(torus_profile, 2.0).value
    assert abs(b - d) / abs(d) < 1e-7
    # at z = 1 the all-pairs sum carries the diagonal kink error
    d = cont.direct_double_quadrature(M.torus(2.0, 1.0), 1.0, order=48)
    b = cont.beta_eval(torus_profile, 1.0).value
    assert abs(b - d) / abs(d) < 1e-4


def test_beta_complex_z(circle_profile):
    z = 0.5 + 1.25j
    ref = O.beta_sphere(2, z)
    val = cont.beta_eval(circle_profile, z).value
    assert abs(val - ref) / abs(ref) < 1e-9


def test_pole_guard_returns_residue_and_finite_part(circle_profile):
    be = cont.beta_eval(circle_profile, -1.0 + 1e-5)
    assert be.at_pole
    assert be.nearest_pole == -1.0
    assert be.residue == pytest.approx(4 * math.pi, rel=1e-6)
    assert be.value == be.finite_part


def test_homogeneity_circle():
    prof1 = cont.distance_profile(M.circle(1.0))
    prof2 = cont.distance_profile(M.circle(2.0))
    for z in (1.3, -0.5, -2.0):
        b1 = cont.beta_eval(prof1, z).value
        b2 = cont.beta_eval(prof2, z).value
        assert abs(b2 - 2.0 ** (z + 2) * b1) <= 1e-9 * max(abs(b2), 1.0)
    # residue homogeneity R_{cM}(k) = c^(k+2m) R_M(k), m = 1
    r1 = cont.residue_from_profile(prof1, -3)[0]
    r2 = cont.residue_from_profile(prof2, -3)[0]
    assert r2 == pytest.approx(2.0 ** (-3 + 2) * r1, rel=1e-9)


def test_homogeneity_empirical(ellipse_profile):
    scaled = cont.distance_profile(M.ellipse(2.0, 1.2))
    for z in (1.0, -2.0):
        b1 = cont.beta_eval(ellipse_profile, z).value
        b2 = cont.beta_eval(scaled, z).value
        assert abs(b2 - 2.0 ** (z + 2) * b1) <= 1e-6 * max(abs(b2), abs(b1), 1.0)


# --- Hadamard finite parts ---------------------------------------------------

def test_hadamard_equals_beta_off_poles(circle_profile):
    assert cont.hadamard_finite_part(circle_profile, -2.0) == pytest.approx(
        cont.beta_eval(circle_profile, -2.0).value, abs=1e-12)


def test_round_circle_minimizes_regularized_energy(ellipse_profile, circle_profile):
    e_circle = cont.hadamard_finite_part(circle_profile, -2.0).real
    e_ellipse = cont.hadamard_finite_part(ellipse_profile, -2.0).real
    assert abs(e_circle) < 1e-6
    assert e_ellipse > 1e-3


def test_ball_finite_part_matches_closed_form_limit():
    body = M.ball(3, 1.0)
    be = cont.body_beta(body, -3.0)
    assert be.at_pole
    h = 1e-5
    res = O.beta_ball_residue(3, -3)
    lim = 0.5 * (O.beta_ball(3, -3 + h) - res / h + O.beta_ball(3, -3 - h) + res / h)
    assert be.residue == pytest.approx(res, rel=1e-9)
    assert be.finite_part.real == pytest.approx(lim.real, rel=1e-5)


# --- bodies ------------------------------------------------------------------

def test_body_beta_matches_oracle_all_z():
    body = M.ball(3, 1.0)
    prof = cont.body_profile(body)
    for z in (3.3, 1.1, -0.7, -2.9, -2.0):
        ref = O.beta_ball(3, z)
        val = cont.body_beta(body, z, profile=prof).value
        assert abs(val - ref) / abs(ref) < 1e-6


def test_body_residues_from_profile_ball2():
    body = M.ball(2, 1.0)
    prof = cont.body_profile(body)
    # poles of the disc energy: -2 (volume) and -3, -5 (boundary ladder)
    assert cont.body_residue_from_profile(body, -2, profile=prof) == pytest.approx(
        O.beta_ball_residue(2, -2), rel=1e-6)
    assert cont.body_residue_from_profile(body, -3, profile=prof) == pytest.approx(
        O.beta_ball_residue(2, -3), rel=1e-8)


def test_relative_beta_parallel_body_difference():
    # (1/2) d/deps B_{Omega_eps}(z) at eps = 0 by central differences
    body = M.ball(2, 1.0)
    z = 1.0
    eps = 1e-3
    bp = cont.body_beta(M.parallel_body(body, eps), z).value
    bm = cont.body_beta(M.parallel_body(body, -eps), z).value
    fd = 0.5 * (bp - bm) / (2 * eps)
    rel = cont.relative_beta(body, z).value
    assert abs(fd - rel) / abs(rel) < 1e-4


def test_relative_residue_no_pole_at_minus_n_plus_1():
    body = M.ball(3, 1.0)
    prof = cont.relative_profile(body)
    val, err = cont.residue_from_profile(prof, -2)  # z = -n+1 on the boundary ladder
    assert abs(val) < 1e-8


def test_nu_body_duality_ball():
    # R_{boundary,nu}(z) = -z (z+n-2) R_body(z-2) at z = -n-1 and z = -n-3,
    # with the two sides computed independently
    n = 3
    body = M.ball(n, 1.0)
    prof = cont.body_profile(body)
    z = -n - 1.0
    lhs = cont.residue_from_profile(prof, z)[0]
    from residue_lab.residues import body_residues
    rhs = -z * (z + n - 2) * body_residues(body, order=32).value(z - 2)
    assert lhs == pytest.approx(rhs, rel=1e-8)
    # z = -n-3: both sides vanish for the ball (the nu-weighted chord model is
    # exactly quadratic; the closed-form residue carries a 1/Gamma(-1) zero)
    z2 = -n - 3.0
    lhs2 = cont.residue_from_profile(prof, z2)[0]
    rhs2 = -z2 * (z2 + n - 2) * oracles_ball_residue(n, z2 - 2.0)
    assert abs(lhs2) < 1e-8
    assert abs(rhs2) < 1e-14


def oracles_ball_residue(n, pole):
    from residue_lab.oracles import beta_ball_residue
    return beta_ball_residue(n, pole)


def test_nu_body_duality_ellipsoid():
    n = 3
    body = M.ellipsoid_body((1.0, 1.15, 0.9))
    prof = cont.distance_profile(body.boundary, weight=WeightKind.NORMAL_PRODUCT,
                                 order=48)
    z = -n - 1.0
    lhs = cont.residue_from_profile(prof, z)[0]
    from residue_lab.residues import body_residues
    rhs = -z * (z + n - 2) * body_residues(body, order=32).value(z - 2)
    assert lhs == pytest.approx(rhs, rel=2e-2)


# --- pointwise relative residues ----------------------------------------------

def test_boundary_local_relative_residue_constant():
    from residue_lab.oracles import sphere_volume
    body = M.ball(3, 1.0)
    target = sphere_volume(2) / 2
    for u in ([0.6, 0.9], [1.2, 0.9], [2.0, 4.0]):
        val = cont.relative_local_residue_at_point(body, u, "boundary", order=96)
        assert val == pytest.approx(target, rel=1e-3)


def test_local_relative_residue_nonconstant_on_ellipse():
    eb = M.ellipsoid_body((1.0, 0.6))
    us = ([0.3], [0.9], [1.5], [2.2])
    bl = [cont.relative_local_residue_at_point(eb, u, "boundary", order=512) for u in us]
    loc = [cont.relative_local_residue_at_point(eb, u, "local", order=512) for u in us]
    for v in bl:
        assert v == pytest.approx(math.pi, rel=1e-3)
    assert max(loc) - min(loc) > 0.5  # genuinely non-constant


# --- polygonal knots -----------------------------------------------------------

_SQUARE = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]


def test_polygon_residues_match_oracle():
    # the seed-29 6-gon has a sharp corner
    polys = [_SQUARE] + [np.random.default_rng(seed).normal(size=(k, 3))
                         for seed, k in ((11, 5), (3, 6), (29, 6))]
    for poly in polys:
        for pole, ref in zip((-1.0, -2.0), O.polygon_knot_residues(poly)):
            be = cont.polygon_beta(poly, pole)
            assert be.at_pole
            assert be.residue == pytest.approx(ref, rel=1e-13, abs=0)


def test_polygon_beta_against_brute_quadrature():
    # z = 2: the pair integrand is a polynomial, so a plain high-order tensor
    # rule over every edge pair (including self) is exact
    z = 2.0
    from residue_lab.manifold.quadrature import gauss_on
    v = np.asarray(_SQUARE, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    total = 0.0
    s, w = gauss_on(0.0, 1.0, 24)
    for i in range(4):
        for j in range(4):
            p = v[i][None, :] + s[:, None] * edges[i][None, :]
            q = v[j][None, :] + s[:, None] * edges[j][None, :]
            d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
            total += np.einsum("i,ij,j->", w, d ** z, w)
    be = cont.polygon_beta(_SQUARE, z)
    assert be.value.real == pytest.approx(total, rel=1e-10)


def test_polygon_beta_pole_rows():
    be = cont.polygon_beta(_SQUARE, -2.0)
    assert be.at_pole
    assert be.residue == pytest.approx(-8 + 4 * math.pi, rel=1e-8)
    be1 = cont.polygon_beta(_SQUARE, -1.0)
    assert be1.residue == pytest.approx(8.0, rel=1e-12)


def test_distance_profile_rejects_polygons():
    with pytest.raises(NumericError):
        cont.distance_profile(M.polygon_knot(_SQUARE))


# --- worker determinism ---------------------------------------------------------

def test_worker_count_bit_stable(ellipse_spec):
    # the ellipse's ~977 nodes pair in two chunks, the torus orbit rows in
    # eight, and the nu weight reads the row normals
    for weight in (WeightKind.ONE, WeightKind.NU):
        p1 = cont.distance_profile(ellipse_spec, weight, workers=1)
        p4 = cont.distance_profile(ellipse_spec, weight, workers=4)
        assert p1.to_text() == p4.to_text()
        assert np.array_equal(p1.tail_w, p4.tail_w)
    torus = M.torus(2.0, 1.0)
    for weight in (WeightKind.ONE, WeightKind.NU):
        t1 = cont.distance_profile(torus, weight, order=24, workers=1)
        t2 = cont.distance_profile(torus, weight, order=24, workers=2)
        assert t1.to_text() == t2.to_text()


# --- hot loops against their reference loops ------------------------------------

def test_uniform_cell_matches_searchsorted():
    rng = np.random.default_rng(3)
    for delta, diam in ((0.2, 6.0), (0.0414, 2.0), (0.1, 3.3)):
        edges = delta + (diam - delta) * np.arange(4097) / 4096
        d = np.concatenate([rng.uniform(delta - 0.05, diam + 0.05, 200000), edges,
                            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        ref = np.clip(np.searchsorted(edges, d, side="right") - 1, 0, 4095)
        assert np.array_equal(cont._uniform_cell(edges, d), ref)


def _tail_moments_reference(x, wq, nus, weight, delta, edges):
    """The chunked pair sum with searchsorted binning and np.add.at."""
    from residue_lab._util import chunked_map_reduce
    N, ncell = x.shape[0], len(edges) - 1
    chunks = [np.arange(s, min(s + 512, N)) for s in range(0, N, 512)]

    def work(idx):
        xs = x[idx]
        nx = None if nus is None else nus[idx]
        d = np.sqrt(np.maximum(((xs[:, None, :] - x[None, :, :]) ** 2).sum(axis=2), 0.0))
        lam = cont._pair_weight(weight, xs, nx, x, nus)
        wmat = wq[idx][:, None] * wq[None, :] * lam
        for r, gi in enumerate(idx):
            d[r, gi] = -1.0
        sel = d >= delta
        dv, wv = d[sel], wmat[sel]
        cell = np.clip(np.searchsorted(edges, dv, side="right") - 1, 0, ncell - 1)
        out = np.zeros((3, ncell))
        np.add.at(out[0], cell, wv)
        np.add.at(out[1], cell, wv * dv)
        np.add.at(out[2], cell, wv * dv * dv)
        return out

    return chunked_map_reduce(work, chunks, workers=1)


def test_tail_moments_match_reference(torus_spec):
    from residue_lab.manifold.quadrature import sample_quadrature
    nodes = sample_quadrature(torus_spec, 24, with_normals=True)
    edges = 0.2 + (6.0 - 0.2) * np.arange(4097) / 4096
    for weight in (WeightKind.ONE, WeightKind.NU):
        ref = _tail_moments_reference(nodes.x, nodes.w, nodes.nu, weight, 0.2, edges)
        got = cont._tail_moments(nodes.x, nodes.w, nodes.nu, weight, (0.2, 0.2), edges,
                                 workers=1)
        for k in range(3):
            assert np.array_equal(got[k], ref[k])


def test_exact_tail_cells_match_per_cell_dot():
    from residue_lab.manifold.quadrature import gauss_on
    m, r, delta = 2, 1.3, 0.26
    prof = cont.distance_profile(M.sphere(m, r), weight=WeightKind.NU, delta=delta)
    vol = cont._round_chord_sphere_volume(m, r)
    lam = cont._round_weight_factor(WeightKind.NU, r)
    edges = prof.tail_edges
    assert len(edges) == 2049
    phis = np.arcsin(np.clip(edges / (2.0 * r), 0.0, 1.0))
    o = O.sphere_volume(m - 1)
    for k in range(len(edges) - 1):
        ph, wp = gauss_on(phis[k], phis[k + 1], 6)
        t = 2.0 * r * np.sin(ph)
        dens = vol * o * lam(t) * t ** (m - 1) * np.cos(ph) ** (m - 1) * 2.0 * r
        assert (prof.tail_w[k], prof.tail_wd[k], prof.tail_wd2[k]) == (
            float(np.dot(wp, dens)), float(np.dot(wp, dens * t)),
            float(np.dot(wp, dens * t * t)))


# --- convergence checks ---------------------------------------------------------

def _paraboloid(c, slope_scale=1.0):
    """z = c |s|^2 in R^3 as a bare implicit spec; a wrong slope on request."""
    from residue_lab.manifold.shapes import ImplicitPoly, ManifoldSpec

    def poly(X, grad, ar):
        F = c * (ar.mul(X[0], X[0]) + ar.mul(X[1], X[1])) - X[2]
        if not grad:
            return F
        return F, slope_scale * np.stack([2 * c * X[0], 2 * c * X[1], -np.ones_like(X[2])])

    return ManifoldSpec(kind="paraboloid", m=2, n=3, patches=(),
                        implicit=ImplicitPoly(poly))


def _cap(surf, t_grid, x0=np.zeros(3), ng=12):
    from residue_lab.manifold.quadrature import gauss_rule
    gx, gw = gauss_rule(ng)
    dirs, dirw = cont._direction_set(surf.m, 32)
    return cont._cap_masses_implicit(surf, x0, WeightKind.ONE, t_grid, dirs, dirw,
                                     0.5 * (gx + 1.0), 0.5 * gw)


def _graph_newton_from_zero(surf, radii):
    # the graph Newton from f = 0 over tangent points at the given radii
    imp = surf.implicit
    g0 = imp.gradient(np.zeros((1, 3)))[0]
    nu = g0 / np.linalg.norm(g0)
    base = np.array([[r, 0.0, 0.0] for r in radii] + [[0.0, r, 0.0] for r in radii])
    return cont._graph_f(imp, base, nu, np.zeros(len(base)))


def test_cap_masses_converge_on_a_paraboloid():
    # one Newton step is exact; the cap area is pi t^2 + O(c^4 t^6)
    t = np.array([0.05, 0.1])
    assert _cap(_paraboloid(0.1), t) == pytest.approx(math.pi * t ** 2, rel=1e-6)


def test_cap_graph_newton_nonconvergence_raises():
    # a slope ten times too steep makes the Newton iteration contract by 0.9
    spec = _paraboloid(0.1, slope_scale=10.0)
    with pytest.raises(NumericError, match="angle Newton"):
        _cap(spec, np.array([0.05, 0.1]))
    with pytest.raises(NumericError, match="graph Newton"):
        _graph_newton_from_zero(spec, [0.05, 0.1])


def test_cap_graph_newton_cycle_raises():
    # g(w) = w^3 - 2w + 2 of w = z - c|s|^2: Newton from 0 falls into the
    # super-attracting cycle 0 -> 1 -> 0, whose steps stop shrinking far
    # above the rounding floor; that must not count as converged
    from residue_lab.manifold.shapes import ImplicitPoly, ManifoldSpec

    def poly(X, grad, ar):
        w = X[2] - 0.1 * (ar.mul(X[0], X[0]) + ar.mul(X[1], X[1]))
        F = ar.shift(ar.mul(ar.mul(w, w), w) - 2.0 * w, 2.0)
        if not grad:
            return F
        g = ar.shift(3.0 * ar.mul(w, w), -2.0)
        return F, np.stack([ar.mul(g, -0.2 * X[0]), ar.mul(g, -0.2 * X[1]), g])

    spec = ManifoldSpec(kind="cycle", m=2, n=3, patches=(),
                        implicit=ImplicitPoly(poly))
    with pytest.raises(NumericError, match="angle Newton"):
        _cap(spec, np.array([0.05, 0.1]))
    with pytest.raises(NumericError, match="graph Newton"):
        _graph_newton_from_zero(spec, [0.05, 0.1])


def _cap_nested_reference(surf, x0, t_grid, gx, gw, n_ang):
    """The cap-radius fixed point around a graph Newton from 0 that the angle
    Newton replaced: (rho, cap masses) for weight one."""
    imp, m = surf.implicit, surf.m
    g0 = imp.gradient(x0[None, :])[0]
    nu = g0 / np.linalg.norm(g0)
    wvals, V = np.linalg.eigh(np.eye(surf.n) - np.outer(nu, nu))
    E = V[:, wvals > 0.5].T
    dirs, dirw = cont._direction_set(m, n_ang)
    nd, nt = len(dirs), len(t_grid)
    tt = np.broadcast_to(np.asarray(t_grid)[None, :], (nd, nt))

    def graph_f(S):
        base = x0[None, :] + S @ E
        f = np.zeros(S.shape[0])
        last = math.inf
        for _ in range(60):
            y = base + f[:, None] * nu[None, :]
            step = imp.value(y) / (imp.gradient(y) @ nu)
            f = f - step
            smax = np.max(np.abs(step))
            if smax < 1e-14 or (smax >= last
                                and smax < 1e-10 * max(1.0, np.max(np.abs(base)))):
                return f, base + f[:, None] * nu[None, :]
            last = smax
        raise NumericError("graph Newton")

    rho = tt.copy()
    dd = np.repeat(dirs, nt, axis=0)
    last = math.inf
    for _ in range(60):
        f, _ = graph_f(rho.reshape(-1, 1) * dd)
        d = np.sqrt(rho.reshape(-1) ** 2 + f ** 2).reshape(nd, nt)
        ratio = tt / d
        rho = rho * ratio
        err = np.max(np.abs(ratio - 1.0))
        if err < 5e-14 or (err >= last and err < 1e-10):
            break
        last = err
    else:
        raise NumericError("fixed point")
    rr = rho[:, :, None] * gx[None, None, :]
    f, y = graph_f(rr.reshape(-1, 1) * np.repeat(dirs, nt * len(gx), axis=0))
    grad = imp.gradient(y)
    gs = -(grad @ E.T) / (grad @ nu)[:, None]
    dens = np.sqrt(1.0 + np.sum(gs ** 2, axis=1)).reshape(rr.shape)
    return rho, dirw @ ((dens * rr ** (m - 1)) @ gw * rho)


@pytest.mark.parametrize("spec", [M.torus(2.0, 1.0), M.ellipse(1.0, 0.6),
                                  M.ellipsoid((1.0, 1.3, 0.8))],
                         ids=["torus", "ellipse", "ellipsoid"])
def test_cap_angle_newton_matches_nested_loop(spec):
    from residue_lab.manifold.quadrature import gauss_rule, patch_grid
    gx, gw = gauss_rule(12)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    imp, m = spec.implicit, spec.m
    dirs, dirw = cont._direction_set(m, 32)
    t = 0.2 * M.reach_estimate(spec) * np.arange(1, 17) / 16
    u0s, _ = patch_grid(spec.patches[0], 6)
    for u0 in u0s[::2]:
        x0 = spec.patches[0].chart(u0[None, :])[0]
        rho_ref, mass_ref = _cap_nested_reference(spec, x0, t, gx, gw, 32)
        g0 = imp.gradient(x0[None, :])[0]
        nu = g0 / np.linalg.norm(g0)
        wvals, V = np.linalg.eigh(np.eye(spec.n) - np.outer(nu, nu))
        e = dirs @ V[:, wvals > 0.5].T
        rho, _ = cont._cap_boundary(imp, x0, nu, np.repeat(e, len(t), axis=0),
                                    np.tile(t, len(dirs)))
        assert np.max(np.abs(rho.reshape(rho_ref.shape) / rho_ref - 1.0)) <= 1e-12
        mass = cont._cap_masses_implicit(spec, x0, WeightKind.ONE, t, dirs, dirw, gx, gw)
        assert np.max(np.abs(mass / mass_ref - 1.0)) <= 1e-12


def test_sphere_caps_are_archimedean_until_the_equator():
    # the unit-sphere cap within chord t has area pi t^2; past t = sqrt(2) the
    # cap boundary lies beyond the equator, off the tangent-graph sheet
    sphere, pole = M.sphere(2, 1.0), np.array([0.0, 0.0, 1.0])
    t = np.array([0.5, 1.0])
    assert np.max(np.abs(_cap(sphere, t, pole, ng=24) / (math.pi * t ** 2) - 1.0)) <= 1e-10
    for t in (1.5, 1.9):
        with pytest.raises(NumericError, match="tangent-graph sheet"):
            _cap(sphere, np.array([t]), pole)
    # on z = |s|^2 at t = 1.4 the angle Newton lands on the opposite ray
    with pytest.raises(NumericError, match="tangent-graph sheet"):
        _cap(_paraboloid(1.0), np.array([1.4]))


def test_cap_solve_takes_nine_point_evaluations_per_torus_node(torus_spec):
    # one F-and-gradient pass per Newton step: the normal at the node, the
    # angle and graph Newton steps, and the gradient at the converged points
    from dataclasses import replace
    from residue_lab.manifold import series
    calls = []

    def poly(X, grad, ar):
        if ar is series.POINTS:
            calls.append(X.shape[1])
        return torus_spec.implicit.poly(X, grad, ar)

    t = 0.2 * M.reach_estimate(torus_spec) * np.arange(1, 17) / 16
    spec = replace(torus_spec, implicit=replace(torus_spec.implicit, poly=poly))
    x0 = spec.patches[0].chart(np.array([[0.3, 1.1]]))[0]
    _cap(spec, t, x0)
    assert len(calls) <= 9


def _near_masses_per_node(spec, weight, t_grid, order_sub, n_ang=32):
    """The cap loop over every node of the tensor grid, with no orbit reduction."""
    from residue_lab.manifold.quadrature import gauss_rule, patch_grid, volume_element
    surf = spec.surface()
    dirs, dirw = cont._direction_set(surf.m, n_ang)
    gx, gw = gauss_rule(12)
    patch = surf.patches[0]
    u0s, wp = patch_grid(patch, order_sub)
    wq = wp * volume_element(patch, u0s)
    masses = np.zeros(len(t_grid))
    for u0, wx in zip(u0s, wq):
        x0 = patch.chart(u0[None, :])[0]
        masses += wx * cont._cap_masses_implicit(surf, x0, weight, t_grid, dirs, dirw,
                                                 0.5 * (gx + 1.0), 0.5 * gw)
    return np.diff(np.concatenate([[0.0], masses]))


def _torus_image():
    from residue_lab import mobius as MB
    inv = MB.MobiusMap((MB.Inversion(center=(0.0, 0.0, 3.0), radius=1.0),))
    return MB.transform_spec(M.torus(2.0, 1.0), inv)


def test_axis_symmetric_shapes():
    from residue_lab import mobius as MB
    c, s = math.cos(0.3), math.sin(0.3)
    rot = ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
    yes = [M.torus(2.0, 1.0), M.sphere(2, 1.0), M.sphere(3, 0.5), M.spheroid(1.3),
           M.ellipsoid((1.0, 1.0, 0.7)), M.ellipsoid((2.0, 2.0, 2.0, 2.0, 1.0)), _torus_image()]
    no = [M.circle(1.0), M.ellipse(1.0, 0.6), M.ellipsoid((1.0, 1.3, 0.8)),
          M.ellipsoid((1.0, 1.0, 1.0, 1.2, 1.0)), M.clifford_torus(1.0, 1.0),
          M.polygon_knot([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
          MB.transform_spec(M.torus(2.0, 1.0), MB.MobiusMap(
              (MB.Inversion(center=(0.3, 0.0, 3.0), radius=1.0),))),
          MB.transform_spec(M.torus(2.0, 1.0), MB.MobiusMap(
              (MB.Similarity(rotation=rot),)))]
    assert all(M.shapes.axis_symmetric(s) for s in yes)
    assert not any(M.shapes.axis_symmetric(s) for s in no)


@pytest.mark.parametrize("spec, weight", [
    (M.torus(2.0, 1.0), WeightKind.ONE), (M.torus(2.0, 1.0), WeightKind.NU),
    (M.ellipsoid((1.0, 1.0, 0.7)), WeightKind.ONE), (_torus_image(), WeightKind.ONE)],
    ids=["torus-one", "torus-nu", "ellipsoid-110.7", "torus-image"])
def test_orbit_reduced_near_masses_match_the_per_node_loop(spec, weight, monkeypatch):
    # cap masses are rotation invariant: one cap per grid row {u[0] = c}
    delta = 0.2 * M.reach_estimate(spec)
    t = delta * np.arange(1, 17) / 16
    calls = []
    cap = cont._cap_masses_implicit
    monkeypatch.setattr(cont, "_cap_masses_implicit",
                        lambda *a: calls.append(1) or cap(*a))
    reduced = cont._near_masses(spec, weight, delta, t, 10, 32)
    monkeypatch.undo()
    assert len(calls) == 10
    ref = _near_masses_per_node(spec, weight, t, 10)
    assert np.max(np.abs(reduced / ref - 1.0)) <= 1e-13


def test_generic_ellipsoid_keeps_one_cap_per_node(monkeypatch):
    spec = M.ellipsoid((1.0, 1.3, 0.8))
    delta = 0.2 * M.reach_estimate(spec)
    t = delta * np.arange(1, 17) / 16
    calls = []
    cap = cont._cap_masses_implicit
    monkeypatch.setattr(cont, "_cap_masses_implicit",
                        lambda *a: calls.append(1) or cap(*a))
    masses = cont._near_masses(spec, WeightKind.ONE, delta, t, 8, 32)
    assert len(calls) == 64
    monkeypatch.undo()
    assert np.array_equal(masses, _near_masses_per_node(spec, WeightKind.ONE, t, 8))
    # the reduction would be wrong here: the caps vary along each row
    monkeypatch.setattr(quadrature, "axis_symmetric", lambda s: True)
    wrong = cont._near_masses(spec, WeightKind.ONE, delta, t, 8, 32)
    assert np.max(np.abs(wrong / masses - 1.0)) > 1e-6


def test_orbit_rows_reproduce_the_full_pair_sum(torus_spec):
    # the midpoint grid is closed under the phi-step rotation, so the nodes at
    # phi index 0, weighted by the phi count, see the distances of every node
    from residue_lab.manifold.quadrature import sample_quadrature
    nodes = sample_quadrature(torus_spec, (24, 40), with_normals=True)
    first = np.arange(0, len(nodes), 40)
    edges = 0.15 + (6.0 - 0.15) * np.arange(4097) / 4096
    for weight in (WeightKind.ONE, WeightKind.NU):
        full = cont._tail_moments(nodes.x, nodes.w, nodes.nu, weight, (0.15, 0.6), edges,
                                  workers=1)
        rows = (nodes.x[first], 40.0 * nodes.w[first], nodes.nu[first])
        orbit = cont._tail_moments(nodes.x, nodes.w, nodes.nu, weight, (0.15, 0.6), edges,
                                   workers=1, rows=rows)
        for k in range(3):
            assert np.max(np.abs(orbit[k] - full[k])) <= 1e-13 * np.max(np.abs(full[k]))


def test_torus_profile_pairs_one_row_per_orbit(monkeypatch):
    # R = 2.1 is the widest torus of the benchmark; its ramp-resolving grid
    # stays within 6.3M (row, node) pairs
    pairs = []
    tail = cont._tail_moments

    def counted(x, *args, rows=None, **kw):
        pairs.append(len(rows[0]) * len(x))
        return tail(x, *args, rows=rows, **kw)

    monkeypatch.setattr(cont, "_tail_moments", counted)
    prof = cont.distance_profile(M.torus(2.1, 1.0))
    assert len(pairs) == 1 and pairs[0] <= 6.3e6
    assert prof.cut[0] < prof.cut[1]


@pytest.mark.parametrize("weight", ["one", "nu"])
def test_a_pair_grid_over_the_budget_shrinks_to_fit(weight, monkeypatch):
    # the grid that resolves the ramp of a 3-dimensional ellipsoid of
    # revolution needs ~8e8 pairs; a smaller budget keeps the test quick
    budget = 1 << 22
    monkeypatch.setattr(cont, "_MAX_ORBIT_PAIRS", budget)
    pairs = []
    tail = cont._tail_moments

    def counted(x, *args, rows=None, **kw):
        pairs.append(len(rows[0]) * len(x))
        return tail(x, *args, rows=rows, **kw)

    monkeypatch.setattr(cont, "_tail_moments", counted)
    prof = cont.distance_profile(M.ellipsoid((1.0, 1.0, 1.0, 0.7)), weight=weight)
    assert len(pairs) == 1 and budget / 2 < pairs[0] <= budget
    # the energy at z = 0 is vol^2 for weight one, |int nu|^2 = 0 for nu
    b0 = cont.beta_eval(prof, 0.0).value.real
    assert abs(b0 - (prof.vol ** 2 if weight == "one" else 0.0)) <= 2e-5 * prof.vol ** 2


def test_torus_values_below_the_first_pole_do_not_depend_on_the_cut(torus_profile,
                                                                     ellipse_profile):
    # torus(2, 1) and ellipse(1, 0.6): (profile, spec, a second delta, {z: tolerance
    # between the two cuts}, {pole: closed-form residue}, residue tolerance)
    R, r = 2.0, 1.0
    s = math.sqrt(R * R - r * r)
    # the ellipse's R(-1) = 2L and R(-3) = 1/4 int kappa^2 ds, by the
    # periodic trapezoid rule
    a, b, n = 1.0, 0.6, 4096
    u = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    speed = np.sqrt(a * a * np.sin(u) ** 2 + b * b * np.cos(u) ** 2)
    length = np.sum(speed) * 2.0 * math.pi / n
    bending = np.sum((a * b) ** 2 / speed ** 5) * 2.0 * math.pi / n
    cases = [(torus_profile, M.torus(R, r), 0.5, {-3.0: 1e-3},
              {-2: 8 * math.pi ** 3 * R * r, -4: math.pi ** 3 * R * R / (2 * r * s)}, 1e-5),
             (ellipse_profile, M.ellipse(a, b), 0.5 * ellipse_profile.metadata["reach"],
              {-2.5: 1e-6, -3.5: 1e-6}, {-1: 2.0 * length, -3: 0.25 * bending}, 1e-7)]
    for prof, spec, delta, values, residues, rel in cases:
        other = cont.distance_profile(spec, delta=delta)
        assert other.cut != prof.cut
        for z, tol in values.items():
            v1, v2 = (cont.beta_eval(p, z).value.real for p in (prof, other))
            assert abs(v1 / v2 - 1.0) <= tol
        for p in (prof, other):
            for pole, ref in residues.items():
                assert cont.residue_from_profile(p, pole)[0] == pytest.approx(ref, rel=rel)


def test_coeff_errors_cover_two_summation_orders_of_the_caps():
    # the orbit-reduced and the per-node cap sums round differently; the
    # coefficients fitted to each may differ only within coeff_errors
    spec = M.ellipsoid((1.0, 1.0, 0.7))
    prof = cont.distance_profile(spec)
    e2, ncoef = prof.cut[1], len(prof.coeffs)
    nbin = max(3 * ncoef + 4, 16)
    t = e2 * np.arange(1, nbin + 1) / nbin
    edges = np.concatenate([[0.0], t])

    def fit(masses):
        return cont._fit_even_model(2, edges, masses / prof.vol, ncoef, 1.0 / e2)[0]

    assert np.array_equal(fit(cont._near_masses(spec, WeightKind.ONE, e2, t, 32, 32)),
                          prof.coeffs)
    per_node = fit(_near_masses_per_node(spec, WeightKind.ONE, t, 32))
    assert np.all(np.abs(per_node - prof.coeffs) <= prof.coeff_errors)


def test_torus_profile_solves_one_cap_per_theta_row(torus_spec, monkeypatch):
    calls = []
    cap = cont._cap_masses_implicit
    monkeypatch.setattr(cont, "_cap_masses_implicit",
                        lambda *a: calls.append(1) or cap(*a))
    cont.distance_profile(torus_spec, order=64)
    assert len(calls) == 32


@pytest.mark.parametrize("R", [20.0, 50.0])
def test_thin_tori_match_direct_quadrature(R):
    # the cap Newton's rounding floor grows like R^2 / r, above any fixed
    # absolute step tolerance; z = 2 makes the pair sum spectrally accurate
    b = cont.beta_eval(cont.distance_profile(M.torus(R, 1.0), order=24), 2.0).value
    d = cont.direct_double_quadrature(M.torus(R, 1.0), 2.0, order=48)
    assert abs(b - d) / abs(d) < 1e-7


def test_homogeneity_large_shapes(ellipse_profile):
    scaled = cont.distance_profile(M.ellipse(200.0, 120.0))
    for z in (1.0, -2.0):
        b1 = cont.beta_eval(ellipse_profile, z).value
        b2 = cont.beta_eval(scaled, z).value
        assert abs(b2 - 200.0 ** (z + 2) * b1) <= 1e-6 * max(abs(b2), abs(b1), 1.0)
    small = cont.distance_profile(M.torus(2.0, 1.0), order=24)
    large = cont.distance_profile(M.torus(200.0, 100.0), order=24)
    for z in (1.0, -0.5):
        b1 = cont.beta_eval(small, z).value
        b2 = cont.beta_eval(large, z).value
        assert abs(b2 - 100.0 ** (z + 4) * b1) <= 1e-6 * max(abs(b2), abs(b1), 1.0)


def test_cap_radius_fixed_point_nonconvergence_raises():
    # t much larger than the curvature radius 1/(2c): the angle Newton's first
    # step is -c t = -100 radians, and it never settles on the periodic G(a)
    with pytest.raises(NumericError, match="angle Newton"):
        _cap(_paraboloid(100.0), np.array([1.0]))


# --- Laurent data of composite energies ---------------------------------------

def _mp_ball(n, z, relative=False):
    """oracles.beta_ball (or beta_ball_relative) in mpmath arithmetic."""
    o = [2 * mpmath.pi ** (mpmath.mpf(k + 1) / 2) / mpmath.gamma(mpmath.mpf(k + 1) / 2)
         for k in (n - 1, n - 2)]
    val = (2 ** (z + n) * o[0] * o[1] / ((n - 1) * (z + n))
           * mpmath.beta((z + n + 1) / 2, mpmath.mpf(n + 1) / 2))
    return val * (z + 2 * n) / 2 if relative else val


def _mp_finite_part(f, pole):
    """lim (f(pole + h) + f(pole - h)) / 2: the 1/h terms cancel, the rest is O(h^2)."""
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")
        return float((f(pole + h) + f(pole - h)) / 2)


def test_ball2_body_pole_matches_the_closed_form():
    body = M.ball(2, 1.0)
    be = cont.body_beta(body, -2.0)
    assert be.at_pole
    assert be.residue == pytest.approx(2 * math.pi ** 2, rel=1e-12, abs=0)
    ref = _mp_finite_part(lambda z: _mp_ball(2, z), -2)
    assert be.finite_part.real == pytest.approx(ref, rel=1e-12, abs=0)
    assert be.finite_part.imag == 0.0


def test_ball3_removable_point_and_pole_match_the_closed_form():
    body = M.ball(3, 1.0)
    prof = cont.body_profile(body)
    be = cont.body_beta(body, -2.0, profile=prof)
    assert not be.at_pole
    assert be.value == pytest.approx(4 * math.pi ** 2, rel=1e-12, abs=0)
    assert be.value.imag == 0.0
    for z in (-2.0 + 1e-7, -2.0 - 1e-7):
        ref = float(_mp_ball(3, mpmath.mpf(z)))
        assert cont.body_beta(body, z, profile=prof).value.real == pytest.approx(
            ref, rel=1e-12, abs=0)
    be = cont.body_beta(body, -3.0, profile=prof)
    ref = _mp_finite_part(lambda z: _mp_ball(3, z), -3)
    assert be.finite_part.real == pytest.approx(ref, rel=1e-12, abs=0)


def test_relative_finite_part_matches_the_closed_form():
    body = M.ball(3, 1.0)
    be = cont.relative_beta(body, -3.0)
    assert be.at_pole
    ref = _mp_finite_part(lambda z: _mp_ball(3, z, relative=True), -3)
    assert be.finite_part.real == pytest.approx(ref, rel=1e-12, abs=0)


def test_off_pole_rows_carry_no_residue(circle_profile):
    body = M.ball(2, 1.0)
    rows = (cont.beta_eval(circle_profile, -0.5),
            cont.body_beta(body, -0.5, profile=cont.body_profile(body)),
            cont.relative_beta(body, -0.5, profile=cont.relative_profile(body)),
            cont.polygon_beta(_SQUARE, -1.5))
    for be in rows:
        assert not be.at_pole
        assert be.residue is None


def test_composite_rows_run_the_contour_only_at_a_pole(monkeypatch):
    body = M.ball(3, 1.0)
    profiles = {cont.body_beta: cont.body_profile(body),
                cont.relative_beta: cont.relative_profile(body)}
    calls = []
    beta_eval = cont.beta_eval

    def counted(profile, z):
        calls.append(z)
        return beta_eval(profile, z)

    monkeypatch.setattr(cont, "beta_eval", counted)
    # -3 is a pole of both; -2 is the body's removable point and a relative pole
    for fn, prof in profiles.items():
        for z, count in ((-0.5, 1), (-2.5, 1), (-3.0, cont._CONTOUR_NODES),
                         (-2.0, cont._CONTOUR_NODES)):
            calls.clear()
            fn(body, z, profile=prof)
            assert len(calls) == count, (fn.__name__, z)


@pytest.mark.parametrize("pole", [-1.0, -2.0])
def test_polygon_finite_part_matches_richardson(pole):
    def sym(h):
        return 0.5 * (cont.polygon_beta(_SQUARE, pole + h).value
                      + cont.polygon_beta(_SQUARE, pole - h).value).real

    a, b, c = sym(0.02), sym(0.01), sym(0.005)
    r1, r2 = (4 * b - a) / 3, (4 * c - b) / 3
    ref = (16 * r2 - r1) / 15
    be = cont.polygon_beta(_SQUARE, pole)
    assert be.at_pole
    assert be.finite_part.real == pytest.approx(ref, rel=0, abs=1e-10)


@pytest.mark.parametrize("delta", [1e-300, 5e-324])
def test_a_rejected_delta_fails_before_the_pair_sum(delta, monkeypatch):
    calls = []
    monkeypatch.setattr(cont, "_tail_moments", lambda *a, **k: calls.append(1))
    with pytest.raises(NumericError):
        cont.distance_profile(M.torus(2.0, 1.0), delta=delta)
    assert calls == []


def test_empirical_profile_beyond_four_dimensions_fails_before_sampling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled an m = 5 surface")

    monkeypatch.setattr(cont, "sample_quadrature", never)
    monkeypatch.setattr(cont, "reach_estimate", never)
    with pytest.raises(NumericError, match="m <= 4"):
        cont.distance_profile(M.ellipsoid((1.0, 1.1, 1.2, 1.3, 1.4, 1.5)))
