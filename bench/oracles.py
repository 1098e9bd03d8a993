"""Independent reference values for every number the benchmark jobs print.

Closed forms where they exist; otherwise a second route written here, so a
change inside ``residue_lab`` cannot move job output and reference together.

Continued energy values of the torus and the ellipse use a smooth-cutoff
split.  With a C-infinity cutoff chi (1 below e1, 0 above e2) and the pair
distance density psi'(t) = t^(m-1) (C_0 + C_1 t^2 + ...), where C_j is the
residue at z = -m-2j,

    B(z) = sum over pairs of d^z (1 - chi(d))  +  sum_j C_j M_{m-1+2j}(z),

with M_k(z) = int_0^inf t^(z+k) chi(t) dt continued by parts,
-1/(z+k+1) int t^(z+k+1) chi'(t) dt.  The pair sum has a smooth integrand
(it vanishes near the diagonal), so the periodic trapezoid rule converges
fast, and C_0, C_1 are closed forms.  Dropping C_2 leaves an error of order
C_2 e2^(z+m+4): at most about 2e-3 relative (the torus z = -3 row and
the finite parts at the second pole), far less elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)


def _step(s):
    """C-infinity step, 0 at s <= 0 and 1 at s >= 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        g = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return f / (f + g)


def _ramp_nodes(cut):
    """Gauss nodes on the cutoff ramp (e1, e2) with weights times chi'(t)."""
    e1, e2 = cut
    w_len = e2 - e1
    s = 0.5 * (_GL_X + 1.0)
    t = e1 + w_len * s
    f, g = np.exp(-1.0 / s), np.exp(-1.0 / (1.0 - s))
    fp, gp = f / s ** 2, -g / (1.0 - s) ** 2
    dstep = (fp * (f + g) - f * (fp + gp)) / (f + g) ** 2
    return t, 0.5 * _GL_W * w_len * (-dstep / w_len)


def _mellin(z: float, k: int, cut) -> float:
    """Continued int_0^inf t^(z+k) chi(t) dt (z+k != -1)."""
    t, wchi = _ramp_nodes(cut)
    p = z + k + 1.0
    return float(-np.sum(wchi * t ** p) / p)


def _mellin_finite_part(cut) -> float:
    """Finite part of the simple pole of _mellin at z+k = -1: -int ln t chi'."""
    t, wchi = _ramp_nodes(cut)
    return float(-np.sum(wchi * np.log(t)))


def _split_value(smooth: float, z: float, m: int, residues, cut) -> float:
    """Smooth pair sum plus near-diagonal model; finite part at a pole."""
    total = smooth
    for j, c in enumerate(residues):
        k = m - 1 + 2 * j
        if abs(z + k + 1.0) < 1e-12:
            total += c * _mellin_finite_part(cut)
        else:
            total += c * _mellin(z, k, cut)
    return total


def _far_weight(d, cut):
    return _step((d - cut[0]) / (cut[1] - cut[0]))


# ---------------------------------------------------------------------------
# torus(R, r) in R^3
# ---------------------------------------------------------------------------

def torus_residues(R: float, r: float, weight: str = "one") -> tuple[float, float]:
    """Residues at z = -2 and z = -4.

    R(-2) = 2 pi Area = 8 pi^3 R r for both weights.  With kappa_1 = 1/r and
    kappa_2 = cos/(R + r cos), int (k1 - k2)^2 dA = 4 pi^2 R^2 / (r s) and
    int (k1^2 + k2^2) dA = 4 pi^2 R^2 / (r s), s = sqrt(R^2 - r^2), so
    R(-4) = (pi/8) int (k1 - k2)^2 = pi^3 R^2 / (2 r s) and the nu-weighted
    R_nu(-4) = -(3 pi/8) int (k1^2 + k2^2) = -3 pi^3 R^2 / (2 r s).
    """
    s = math.sqrt(R * R - r * r)
    r4 = math.pi ** 3 * R * R / (2.0 * r * s)
    return 8.0 * math.pi ** 3 * R * r, (r4 if weight == "one" else -3.0 * r4)


def torus_area(R: float, r: float) -> float:
    return 4.0 * math.pi ** 2 * R * r


_TORUS_CUT = (0.15, 0.4)
_ELLIPSE_CUT = (0.03, 0.09)


def _torus_smooth(R, r, zs, weight, nth=192, nph=512):
    """sum over pairs of d^z (1 - chi(d)); the phi rotation is integrated out."""
    th = 2.0 * math.pi * np.arange(nth) / nth
    cph = np.cos(2.0 * math.pi * np.arange(nph) / nph)
    rho = R + r * np.cos(th)
    jac = r * rho
    out = np.zeros(len(zs))
    for i in range(nth):
        d = np.sqrt(rho[i] ** 2 + rho[:, None] ** 2 - 2.0 * rho[i] * rho[:, None] * cph[None, :]
                    + (r * np.sin(th[i]) - r * np.sin(th)[:, None]) ** 2)
        wgt = jac[i] * jac[:, None] * _far_weight(d, _TORUS_CUT)
        if weight == "nu":
            wgt = wgt * (np.cos(th[i]) * np.cos(th)[:, None] * cph[None, :]
                         + np.sin(th[i]) * np.sin(th)[:, None])
        keep = d > _TORUS_CUT[0]
        ld, wk = np.log(d[keep]), wgt[keep]
        for k, z in enumerate(zs):
            out[k] += float(np.sum(wk * np.exp(z * ld)))
    return 2.0 * math.pi * (2.0 * math.pi / nth) ** 2 * (2.0 * math.pi / nph) * out


def torus_beta(R: float, r: float, zs, weight: str = "one") -> list[float]:
    """Continued energy (finite part at the poles -2, -4) of torus(R, r)."""
    smooth = _torus_smooth(R, r, zs, weight)
    res = torus_residues(R, r, weight)
    return [_split_value(s, z, 2, res, _TORUS_CUT) for s, z in zip(smooth, zs)]


# ---------------------------------------------------------------------------
# ellipse(a, b) in R^2
# ---------------------------------------------------------------------------

def _ellipse_nodes(a, b, n=2048):
    t = 2.0 * math.pi * np.arange(n) / n
    x = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    speed = np.sqrt(a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2)
    return x, speed * (2.0 * math.pi / n), speed


def ellipse_residues(a: float, b: float) -> tuple[float, float]:
    """R(-1) = 2 L and R(-3) = (1/4) int kappa^2 ds, kappa = ab / speed^3."""
    _, w, speed = _ellipse_nodes(a, b)
    kappa = a * b / speed ** 3
    return 2.0 * float(np.sum(w)), 0.25 * float(np.sum(w * kappa ** 2))


def ellipse_length(a: float, b: float) -> float:
    return 0.5 * ellipse_residues(a, b)[0]


def ellipse_beta(a: float, b: float, zs) -> list[float]:
    x, w, _ = _ellipse_nodes(a, b)
    out = np.zeros(len(zs))
    for lo in range(0, len(x), 128):
        d = np.linalg.norm(x[lo:lo + 128, None, :] - x[None, :, :], axis=2)
        wgt = w[lo:lo + 128, None] * w[None, :] * _far_weight(d, _ELLIPSE_CUT)
        keep = d > _ELLIPSE_CUT[0]
        ld, wk = np.log(d[keep]), wgt[keep]
        for k, z in enumerate(zs):
            out[k] += float(np.sum(wk * np.exp(z * ld)))
    res = ellipse_residues(a, b)
    return [_split_value(s, z, 1, res, _ELLIPSE_CUT) for s, z in zip(out, zs)]


# ---------------------------------------------------------------------------
# 4-dimensional a-hyper-spheroid x1^2 + .. + x4^2 + x5^2 / a^2 = 1 in R^5
# ---------------------------------------------------------------------------

_FIBER = 2.0 * math.pi ** 2      # volume of the unit 3-sphere


def _spheroid_line(a: float, n: int = 400):
    """theta nodes, volume weights and principal curvatures (k1, kr, kr, kr).

    The meridian (sin th, a cos th) has speed s = sqrt(cos^2 + a^2 sin^2),
    curvature a / s^3, and the rotational curvature is a / s.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    th = 0.5 * math.pi * (x + 1.0)
    s = np.sqrt(np.cos(th) ** 2 + a * a * np.sin(th) ** 2)
    dv = _FIBER * 0.5 * math.pi * w * np.sin(th) ** 3 * s
    return dv, a / s ** 3, a / s


def spheroid_values(a: float) -> dict:
    """Residues, conformal energies and the nu-weighted R(-8) of the spheroid.

    gw and r8 are the closed forms; r8_nu follows from the identity
    gw = (3 / 2 pi^2)(R_nu(-8) + 2 R(-8)) - (12 |W|^2 + 5 Z) / 2048 with
    |W|^2 = 0 (three equal principal curvatures) and q = 3 (k1 - kr)^4.
    At a = 1 it gives 2 pi^4 / 3.
    """
    from residue_lab import oracles as closed   # closed forms only

    dv, k1, kr = _spheroid_line(a)
    vol = float(np.sum(dv))
    hs = k1 ** 2 + 3.0 * kr ** 2
    H = k1 + 3.0 * kr
    z_energy = float(np.sum(dv * 3.0 * (k1 - kr) ** 4))
    gw, r8 = closed.spheroid_gw(a), closed.spheroid_r8(a)
    return {
        "r4": _FIBER * vol,
        "r6": _FIBER / 32.0 * float(np.sum(dv * (2.0 * hs - H ** 2))),
        "r8": r8,
        "r8_nu": 2.0 * math.pi ** 2 / 3.0 * (gw + 5.0 * z_energy / 2048.0) - 2.0 * r8,
        "gw": gw,
        "z_energy": z_energy,
        "weyl": 0.0,
        "chern": 16.0 * math.pi ** 2,   # 8 pi^2 chi(S^4)
    }
