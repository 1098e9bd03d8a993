"""Closed-form reference values: special functions and exactly solved shapes.

Everything here is an independent oracle for the numerical machinery in the
rest of the package: complex gamma/beta, unit sphere and ball energy
functions with their residues, the hyper-spheroid closed forms, and the
polygonal knot residues.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._util import NumericError

# Lanczos approximation, g = 7, 15 terms. Accurate to ~1e-14 on the strip
# commonly tested (|Im z| <= 30, Re z in [-30, 30] away from poles).
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993227684700473478,
    676.520368121885098567009190444019,
    -1259.13921672240287047156078755283,
    771.3234287776530788486528258894,
    -176.61502916214059906584551354,
    12.507343278686904814458936853,
    -0.13857109526572011689554707,
    9.984369578019570859563e-6,
    1.50563273514931155834e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(z):
    """Complex gamma via Lanczos with reflection for Re z < 0.5."""
    z = complex(z)
    if z.real < 0.5:
        # reflection; sin has zeros at the poles of gamma
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise NumericError(f"gamma pole at z={z}")
        return cmath.pi / (s * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_P[0]
    for i, p in enumerate(_LANCZOS_P[1:], start=1):
        x += p / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * x


def gamma_pole(z, tol=1e-12):
    """Return (is_pole, residue) of gamma at z.

    Poles sit at z = -k (k = 0, 1, 2, ...) with residue (-1)^k / k!.
    """
    zr = complex(z)
    k = round(zr.real)
    if k <= 0 and abs(zr - k) < tol:
        k = -k
        return True, (-1.0) ** k / math.factorial(k)
    return False, 0.0


def beta_fn(a, b):
    """Euler beta B(a, b) = gamma(a) gamma(b) / gamma(a + b) with pole bookkeeping.

    Zeros coming from a pole of gamma(a+b) are taken exactly; a pole of
    gamma(a) or gamma(b) propagates as NumericError.
    """
    pa, _ = gamma_pole(a)
    pb, _ = gamma_pole(b)
    pab, _ = gamma_pole(a + b)
    if (pa or pb) and not pab:
        raise NumericError(f"beta pole at ({a}, {b})")
    if pab and not (pa or pb):
        return 0.0 + 0.0j
    if pab and (pa or pb):
        # finite ratio of poles: B(a,b) = gamma(a)gamma(b)/gamma(a+b); use the
        # limit via reflection-free ratio gamma(a)/gamma(a+b).
        eps = 1e-7
        return (beta_fn(a + eps, b) + beta_fn(a - eps, b)) / 2.0
    return gamma(a) * gamma(b) / gamma(a + b)


def sphere_volume(k: int) -> float:
    """o_k, the k-volume of the unit k-sphere in R^(k+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return float((2.0 * math.pi ** ((k + 1) / 2.0) / gamma((k + 1) / 2.0)).real)


def ball_volume(k: int) -> float:
    """omega_k, the volume of the unit k-ball."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return float((math.pi ** (k / 2.0) / gamma(k / 2.0 + 1.0)).real)


# ---------------------------------------------------------------------------
# Unit sphere / unit ball energy functions
# ---------------------------------------------------------------------------

def beta_sphere(n: int, z):
    """Energy function of the unit (n-1)-sphere in R^n.

    B(z) = 2^(z+n-2) o_{n-1} o_{n-2} B((z+n-1)/2, (n-1)/2).
    """
    if n < 2:
        raise ValueError("beta_sphere needs ambient n >= 2")
    z = complex(z)
    return (2.0 ** (z + n - 2) * sphere_volume(n - 1) * sphere_volume(n - 2)
            * beta_fn((z + n - 1) / 2.0, (n - 1) / 2.0))


def beta_ball(n: int, z):
    """Energy function of the unit n-ball.

    B(z) = 2^(z+n) o_{n-1} o_{n-2} / ((n-1)(z+n)) * B((z+n+1)/2, (n+1)/2).
    """
    if n < 2:
        raise ValueError("beta_ball needs n >= 2")
    z = complex(z)
    if abs(z + n) < 1e-13:
        raise NumericError(f"beta_ball pole at z={z}")
    return (2.0 ** (z + n) * sphere_volume(n - 1) * sphere_volume(n - 2)
            / ((n - 1) * (z + n)) * beta_fn((z + n + 1) / 2.0, (n + 1) / 2.0))


def beta_ball_residue(n: int, z0) -> float:
    """Residue of beta_ball(n, .) at z0 in {-n} u {-n-1-2j}."""
    z0 = complex(z0)
    c = (2.0 ** (z0 + n) * sphere_volume(n - 1) * sphere_volume(n - 2) / (n - 1))
    if abs(z0 + n) < 1e-9:
        return float((c * beta_fn((z0 + n + 1) / 2.0, (n + 1) / 2.0)).real)
    j = (-(z0.real) - (n + 1)) / 2.0
    if abs(j - round(j)) > 1e-9 or round(j) < 0:
        return 0.0
    j = int(round(j))
    res_gamma = 2.0 * (-1.0) ** j / math.factorial(j)
    den_pole, _ = gamma_pole(z0 / 2.0 + n + 1.0)
    if den_pole:
        return 0.0  # 1/Gamma vanishes at the denominator pole
    rest = c / (z0 + n) * gamma((n + 1) / 2.0) / gamma(z0 / 2.0 + n + 1.0)
    return float((res_gamma * rest).real)


def beta_ball_relative(n: int, z):
    """Relative energy function of the unit ball against its boundary sphere.

    B(z) = 2^(z+n-1) (z+2n) o_{n-1} o_{n-2} / ((n-1)(z+n)) * B((z+n+1)/2, (n+1)/2),
    i.e. half the parallel-body derivative of beta_ball at epsilon = 0.
    """
    z = complex(z)
    if abs(z + n) < 1e-13:
        raise NumericError(f"beta_ball_relative pole at z={z}")
    return (2.0 ** (z + n - 1) * (z + 2 * n) * sphere_volume(n - 1) * sphere_volume(n - 2)
            / ((n - 1) * (z + n)) * beta_fn((z + n + 1) / 2.0, (n + 1) / 2.0))


# ---------------------------------------------------------------------------
# 4-dimensional a-hyper-spheroid closed forms
# ---------------------------------------------------------------------------

def _arctan_factor(a: float):
    """arctan(sqrt(a^2-1))/sqrt(a^2-1), continued through a = 1 and 0 < a < 1."""
    if a <= 0:
        raise ValueError("spheroid parameter a must be positive")
    u = a * a - 1.0
    if abs(u) < 1e-8:
        # series in u, enough terms for ~1e-16 at |u| <= 1e-8
        return 1.0 - u / 3.0 + u * u / 5.0
    if u > 0:
        return math.atan(math.sqrt(u)) / math.sqrt(u)
    s = math.sqrt(-u)
    # log((1 + i sqrt(a^2-1))/a) / (i sqrt(a^2-1)) reduces to atanh for a < 1
    return math.atanh(s) / s


def spheroid_gw(a: float) -> float:
    """Closed-form Graham-Witten energy of the 4-dimensional a-hyper-spheroid.

    The bracket vanishes like 17920 u at u = a^2 - 1 = 0, so direct float
    evaluation stays accurate down to |u| ~ 1e-8; below that the exact round
    limit pi^2 is returned.
    """
    a = float(a)
    u = a * a - 1.0
    if abs(u) < 1e-8:
        return math.pi ** 2
    br = (10613 * a ** 8 - 7778 * a ** 6 - 2376 * a ** 4 - 16 * a ** 2 - 128
          + 4725 * a ** 8 * (a * a - 16.0 / 15.0) * _arctan_factor(a))
    return math.pi ** 2 / (17920 * a ** 6 * u) * br


def spheroid_r8(a: float) -> float:
    """Closed-form residue of the spheroid energy function at z = -8.

    The bracket is O(u^2), so the residue tends to 0 linearly at the round
    sphere; the exact limit is substituted for |u| < 1e-8.
    """
    a = float(a)
    u = a * a - 1.0
    if abs(u) < 1e-8:
        return 0.0
    br = (1241 * a ** 8 - 1346 * a ** 6 - 2232 * a ** 4 + 1648 * a ** 2 - 256
          - 1575 * a ** 8 * (a * a - 8.0 / 5.0) * _arctan_factor(a))
    return math.pi ** 4 / (40320 * a ** 6 * u) * br


def spheroid_r8_nu(a: float) -> float:
    """Tabulated closed form for the nu-weighted spheroid residue at z = -8.

    Known-suspect: the bracket does not vanish as a -> 1, so this expression
    cannot reproduce the round-sphere value 2 pi^4 / 3. It is kept verbatim as
    the reference it is; quadrature of the local formulas is the trusted path
    and the verify suite reports the discrepancy.
    """
    a = float(a)
    u = a * a - 1.0
    if abs(u) < 1e-12:
        raise NumericError("spheroid_r8_nu closed form is singular at a = 1")
    br = (105 * a ** 6 - 50 * a ** 4 - 24 * a ** 2 - 16
          - 105 * a ** 6 * (a * a - 8.0 / 7.0) * _arctan_factor(a))
    return math.pi ** 4 / (384 * a ** 4 * u) * br


# ---------------------------------------------------------------------------
# Polygonal knots
# ---------------------------------------------------------------------------

def polygon_knot_residues(vertices) -> tuple[float, float]:
    """Residues (at z = -1 and z = -2) of a closed polygonal knot.

    R(-1) = 2 L;  R(-2) = -2k + 2 sum_j (pi - theta_j)/sin(theta_j), where
    theta_j is the angle at vertex j between the two incident edges.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    k = v.shape[0]
    length = 0.0
    corner = 0.0
    for j in range(k):
        prev = v[(j - 1) % k] - v[j]
        nxt = v[(j + 1) % k] - v[j]
        lp = np.linalg.norm(prev)
        ln = np.linalg.norm(nxt)
        if lp == 0 or ln == 0:
            raise ValueError(f"zero-length edge at vertex {j}")
        length += ln
        cosang = float(np.dot(prev, nxt) / (lp * ln))
        cosang = min(1.0, max(-1.0, cosang))
        theta = math.acos(cosang)
        if theta >= math.pi - 1e-12 or theta <= 1e-12:
            raise NumericError(f"degenerate angle at vertex {j}: theta={theta}")
        corner += (math.pi - theta) / math.sin(theta)
    return 2.0 * length, -2.0 * k + 2.0 * corner
