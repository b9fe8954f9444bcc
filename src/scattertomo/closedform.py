"""Closed-form QFI coefficients for all strategies and detection modes.

Every function here is a rational (or rational-trigonometric) expression in
the squared momentum parameter W = Omega^2; all of them are pinned to the
numerical spectral-decomposition oracle in the test suite, which is the
authority on any transcription question. The kernels broadcast over numpy
arrays; the dataclass-returning wrappers take scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qfi import CARTESIAN, POLAR, QfiMatrix, cr_bound
from .scatter import OMEGA_DOMAIN, OMEGA_MAX, STRATEGIES, DetectionMode
from .states import AXIS_TOL, BlochVector, bloch_to_polar


@dataclass(frozen=True)
class QfiPolarCoeffs:
    """Radial and angular polar QFI coefficients.

    The polar QFI matrix is diag(c_r, c_theta, c_theta sin^2 theta); c_r is
    +inf on the pure-state boundary r = 1. The constructors give floats for
    scalar arguments and arrays for array ones.
    """

    c_r: float
    c_theta: float

    def matrix(self, theta: float) -> QfiMatrix:
        if not math.isfinite(self.c_r):
            raise ValueError("polar QFI matrix undefined at r = 1 (c_r diverges)")
        return QfiMatrix(POLAR, np.diag([
            self.c_r, self.c_theta, self.c_theta * math.sin(theta)**2]))


def _check_omega(omega):
    omega = np.asarray(omega, dtype=float)
    if not ((omega > 0.0) & (omega <= OMEGA_MAX)).all():  # NaN fails both
        raise ValueError(OMEGA_DOMAIN)
    return omega


def _check_radius(r, *, strict: bool):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r < 0.0):
        raise ValueError("r must be finite and nonnegative")
    limit = np.any(r >= 1.0) if strict else np.any(r > 1.0)
    if limit:
        raise ValueError("r must be below the pure-state boundary r = 1")
    return r


def ea_cr(r, omega, mode: DetectionMode):
    """Radial coefficient c_r of the entanglement-assisted polar QFI."""
    return _ea_cr(_check_radius(r, strict=True)**2, _check_omega(omega)**2, mode)


def _ea_cr(r2, w, mode: DetectionMode):
    """c_r at r^2 = r2 and W = Omega^2, without input checks (0 <= r2 < 1, W > 0)."""
    if mode is DetectionMode.BOTH:
        return (8 * w * (1 + 18 * w + 63 * w**2)
                / ((1 - r2) * (1 + w) * (1 + 5 * w) * (1 + 9 * w)**2))
    if mode is DetectionMode.TRANSMISSION:
        return (2 * w * (3 * (1 + 3 * w) * (11 + 76 * w + 117 * w**2)
                         - 2 * r2 * (9 + 50 * w + 45 * w**2))
                / ((1 - r2) * (1 + w) * (1 + 5 * w) * (1 + 9 * w)
                   * (9 * (1 + 3 * w)**2 - 4 * r2)))
    if mode is DetectionMode.REFLECTION:
        return (2 * w * ((1 + 7 * w) * (1 + 36 * w + 207 * w**2)
                         - 2 * r2 * w * (1 + 18 * w + 117 * w**2))
                / ((1 - r2) * (1 + w) * (1 + 9 * w)**2
                   * ((1 + 7 * w)**2 - 4 * r2 * w**2)))
    raise ValueError(f"unknown detection mode {mode}")


# Critical-point polynomial P = N'D - ND' of c_r = N / ((1 - r^2) D), with N and
# D as ``_ea_cr`` writes them and ' = d/dW: row i, column j is the coefficient
# of r^(2i) W^j. sign P = sign dc_r/dW, so the maxima of c_r are where P falls
# through zero. Derived with sympy.
_EA_CR_CRITICAL = {
    DetectionMode.BOTH: ((8, 288, 3416, 14976, 5112, -116640, -204120),),
    DetectionMode.TRANSMISSION: (
        (594, 11772, 85644, 223884, -432864, -4402188, -11952684, -15090300, -7676370),
        (-588, -8832, -39972, 19656, 733932, 2414448, 3105540, 1312200, 0),
        (144, 1600, 5664, 8640, 6480, 0, 0, 0, 0)),
    DetectionMode.REFLECTION: (
        (2, 172, 4764, 62588, 424816, 1338372, 431172, -7287084, -11502162),
        (0, -8, -340, -6320, -61308, -292104, -416844, 1166400, 2796444),
        (0, 0, 0, 0, -16, 576, 3168, -46656, -151632)),
}


def _ea_cr_critical(r2, mode: DetectionMode) -> np.ndarray:
    """Coefficients of W^0, W^1, ... of c_r's critical-point polynomial, one row per r^2."""
    if mode not in _EA_CR_CRITICAL:
        raise ValueError(f"unknown detection mode {mode}")
    table = np.array(_EA_CR_CRITICAL[mode], dtype=float)
    r2_powers = np.asarray(r2, dtype=float)[..., None, None]**np.arange(len(table))[:, None]
    return (r2_powers * table).sum(axis=-2)


def _ea_cperp(r2, w, mode: DetectionMode):
    """c_perp = c_theta / r^2 at r^2 = r2 and W = Omega^2, without input checks.

    The transverse QFI per unit Bloch length; finite at r = 0, where it
    equals c_r because nothing singles out a direction there.
    """
    if mode is DetectionMode.BOTH:
        p9 = 4 * (1 + 9 * w)**2 - r2 * (1 - 9 * w)**2
        p5 = 4 * (1 + 5 * w)**2 - r2 * (1 + 3 * w)**2
        return (32 * w
                * (4 * (1 + 5 * w) * (1 + 9 * w) * (1 + 18 * w + 63 * w**2)
                   - r2 * (1 + 4 * w + 68 * w**2 + 720 * w**3 + 1863 * w**4))
                / ((1 + w) * (1 + 9 * w) * p9 * p5))
    if mode is DetectionMode.TRANSMISSION:
        return (4 * w * (2 * (1 + 5 * w) * (11 + 76 * w + 117 * w**2)
                         - r2 * (1 + 3 * w)**2)
                / (3 * (1 + w) * (1 + 3 * w) * (1 + 9 * w)
                   * (4 * (1 + 5 * w)**2 - r2 * (1 + 3 * w)**2)))
    if mode is DetectionMode.REFLECTION:
        return (4 * w * (2 * (1 + 9 * w) * (1 + 36 * w + 207 * w**2)
                         - r2 * w * (1 - 9 * w)**2)
                / ((1 + w) * (1 + 7 * w) * (1 + 9 * w)
                   * (4 * (1 + 9 * w)**2 - r2 * (1 - 9 * w)**2)))
    raise ValueError(f"unknown detection mode {mode}")


def _polar_coeffs(c_r, c_theta) -> QfiPolarCoeffs:
    """Coefficients as floats for scalar arguments, as arrays otherwise."""
    if np.ndim(c_r) == 0:
        return QfiPolarCoeffs(float(c_r), float(c_theta))
    return QfiPolarCoeffs(c_r, c_theta)


def direct_qfi(r) -> QfiPolarCoeffs:
    """Polar coefficients for direct access to the target: (1/(1-r^2), r^2).

    Independent of theta and phi. Broadcasts over r.
    """
    r = _check_radius(r, strict=False)
    with np.errstate(divide="ignore"):
        return _polar_coeffs(1.0 / (1.0 - r**2), r**2)


def _radial_form(c: float, g: float, den: float, vec) -> QfiMatrix:
    """Cartesian QFI c I + g v v^T / den, built entry by entry from the three floats of v.

    Entry jk is (c if j == k else 0.0) + g (v_j v_k) / den: the bits of numpy's
    ``c * np.eye(3) + g * np.outer(v, v) / den``, with no array temporaries.
    """
    x, y, z = vec
    xy, xz, yz = 0.0 + g * (x * y) / den, 0.0 + g * (x * z) / den, 0.0 + g * (y * z) / den
    return QfiMatrix(CARTESIAN, np.array([[c + g * (x * x) / den, xy, xz],
                                          [xy, c + g * (y * y) / den, yz],
                                          [xz, yz, c + g * (z * z) / den]]))


def direct_cartesian(v: BlochVector) -> QfiMatrix:
    """Cartesian QFI of direct access to the target: I + v v^T / (1 - |v|^2)."""
    den = 1.0 - v.norm**2
    if den <= 0.0:
        raise ValueError("cartesian direct QFI requires |v| < 1")
    return _radial_form(1.0, 1.0, den, v.as_array().tolist())


def ea_polar(r, omega, mode: DetectionMode) -> QfiPolarCoeffs:
    """Entanglement-assisted polar coefficients at radius r and momentum Omega.

    Broadcasts; c_r is +inf where r = 1.
    """
    r2 = _check_radius(r, strict=False)**2
    w = _check_omega(omega)**2
    inside = r2 < 1.0
    c_r = np.where(inside, _ea_cr(np.where(inside, r2, 0.0), w, mode), math.inf)
    return _polar_coeffs(c_r, r2 * _ea_cperp(r2, w, mode))


def nea_qfi(v_z, theta_a, omega, mode: DetectionMode):
    """Single-parameter QFI for v_z with an unentangled pure probe.

    The target Bloch vector lies on the z axis; the probe points at polar
    angle theta_a in the x-z plane. Broadcasts over array arguments; scalar ones
    run as numpy scalars and give a float, the bits of an array call's element.
    """
    v = np.asarray(v_z, dtype=float)
    if not (np.abs(v) < 1.0).all():  # NaN fails too
        raise ValueError("v_z must satisfy |v_z| < 1")
    t = np.asarray(theta_a, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("theta_a must be finite")
    w = _check_omega(omega)**2
    out = _nea_ratio(_nea_factors(v[()], t[()], w, mode), w, mode)
    return float(out) if out.ndim == 0 else out


def axis_vz(v: BlochVector) -> float:
    """v_z of a target on the z axis (|vx|, |vy| < AXIS_TOL), which closed forms in v_z need.

    ``nea_qfi`` is a QFI of v_z alone, and so is the EA c_r(|v_z|) as the zz entry.
    """
    if abs(v.vx) < AXIS_TOL and abs(v.vy) < AXIS_TOL:
        return v.vz
    raise ValueError("closed forms in v_z need a target on the z axis (vx = vy = 0)")


def _nea_factors(v, t, w, mode: DetectionMode) -> tuple:
    """The factors that ``nea_qfi`` combines in ``mode``, without input checks.

    Each factor is a cosine polynomial of degree <= 4 in theta_a = t and a
    polynomial of degree <= 2 in W = w, so a few samples fix it along either
    coordinate (the optimizer's seeding scan and per-lane forms rely on this).
    """
    c1, c2 = np.cos(t), np.cos(2 * t)
    c3, c4 = np.cos(3 * t), np.cos(4 * t)
    # no **: a numpy scalar's ** is C pow, whose rounding differs from the array loop's
    v2, w2 = v * v, w * w

    # shared denominator pieces of the transmitted/reflected branch spectra
    d_t = (4 * (1 + 5 * w) - v2 * (1 + 17 * w)
           - v * (1 + w) * (4 * c1 - v * c2))
    d_r = 4 - v2 - 4 * v * c1 + v2 * c2
    f_t = 3 + 9 * w - 2 * v * c1
    f_r = 1 + 7 * w + 2 * v * w * c1

    if mode is DetectionMode.TRANSMISSION:
        num = (4 * (11 + 96 * w + 181 * w2)
               - v2 * (1 + w) * (1 + 33 * w)
               - 4 * v * (8 + 43 * w + 3 * w2) * c1
               - 4 * (1 - w + 8 * v2 * w) * (1 + w) * c2
               - 4 * v * w * (1 + w) * c3
               + v2 * ((1 + w) * (1 + w)) * c4)
        return d_t, f_t, f_r, num
    if mode is DetectionMode.REFLECTION:
        num = (4 * (5 + 23 * w)
               - v2 * (1 + w)
               - 4 * v * (3 - 2 * w) * c1
               + 4 * (1 - 5 * w) * c2
               - 4 * v * (1 + 2 * w) * c3
               + v2 * (1 + w) * c4)
        den = (3 * (1 + 3 * w) * (1 + 7 * w) - 2 * v2 * w
               - 2 * v * (1 + 4 * w - 9 * w2) * c1 - 2 * v2 * w * c2)
        return d_r, num, den
    if mode is DetectionMode.BOTH:
        g_t = (4 * (5 + 27 * w) - v2 + 4 * (1 - 9 * w) * c2
               - 16 * v * np.power(c1, 3) + v2 * c4)
        g_r = 3 * (1 + 3 * w) - 2 * v * c1
        g_m = (4 * (3 + 48 * w + 181 * w2)
               - v2 * w * (1 + 33 * w)
               - 12 * v * w * (1 + w) * c1
               - 4 * (1 + 8 * w - w2 + 8 * v2 * w2) * c2
               - v * w * (1 + w) * (4 * c3 - v * c4))
        return d_t, d_r, f_t, f_r, g_t, g_r, g_m
    raise ValueError(f"unknown detection mode {mode}")


def _nea_ratio(factors, w, mode: DetectionMode):
    """``nea_qfi`` from the factors ``_nea_factors`` gives for the same mode and W."""
    if mode is DetectionMode.TRANSMISSION:
        d_t, f_t, f_r, num = factors
        return num * w / (d_t * (1 + w) * f_t * f_r)
    if mode is DetectionMode.REFLECTION:
        d_r, num, den = factors
        return num * w / (den * (1 + w) * d_r)
    d_t, d_r, f_t, f_r, g_t, g_r, g_m = factors
    num = f_r * d_t * g_t + d_r * g_r * g_m
    return num * w / (d_t * d_r * f_t * (1 + w) * (1 + 9 * w) * f_r)


def ea_cartesian(v: BlochVector, omega: float, mode: DetectionMode) -> QfiMatrix:
    """Full 3x3 cartesian entanglement-assisted QFI matrix.

    The singlet probe and the exchange coupling are rotation invariant, so the
    matrix is c_perp I + (c_r - c_perp) n n^T with n = v/|v|: c_r along the
    Bloch vector and c_perp = c_theta/r^2 across it (c_perp I at v = 0).
    """
    w = float(_check_omega(omega))**2
    vec = v.as_array()
    # numpy's dot, not |v|**2 (1 - r^2 cancels badly near the boundary) nor
    # x*x + y*y + z*z, which rounds otherwise
    r2 = float(vec @ vec)
    if r2 >= 1.0:
        raise ValueError("cartesian EA QFI requires |v| < 1")
    c_perp = _ea_cperp(r2, w, mode)
    if r2 == 0.0:  # c_perp I: the radial term vanishes
        return _radial_form(c_perp, 0.0, 1.0, (0.0, 0.0, 0.0))
    return _radial_form(c_perp, _ea_cr(r2, w, mode) - c_perp, r2, vec.tolist())


def closed_matrix(strategy: str, v: BlochVector, omega: float, mode: DetectionMode,
                  theta_a: float, basis: str) -> np.ndarray:
    """The QFI matrix of ``scatter.encoding`` in ``basis``, NaN where no closed form exists.

    Direct and EA have every cell. NEA has only the cartesian zz entry, and
    only for a target on the z axis (``axis_vz``).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if basis not in (CARTESIAN, POLAR):
        raise ValueError(f"unknown basis {basis!r}")
    if strategy == "nea":
        h = np.full((3, 3), np.nan)
        if basis == CARTESIAN:
            try:
                v_z = axis_vz(v)
            except ValueError:  # off the axis: no closed form
                return h
            h[2, 2] = nea_qfi(v_z, theta_a, omega, mode)
        return h
    if basis == CARTESIAN:
        return (direct_cartesian(v) if strategy == "direct" else ea_cartesian(v, omega, mode)).h
    coeffs = direct_qfi(v.norm) if strategy == "direct" else ea_polar(v.norm, omega, mode)
    return coeffs.matrix(bloch_to_polar(v).theta).h


def purity_bound(r: float, omega: float, m: int,
                 mode: DetectionMode = DetectionMode.BOTH) -> float:
    """Variance bound for the Bloch radius r: Var[r] >= 1/(M c_r(r, Omega))."""
    return cr_bound(ea_polar(r, omega, mode).c_r, m)


def phase_bound(omega: float, m: int) -> float:
    """Variance bound for the azimuthal phase of a pure equatorial target.

    Specialization of the angular bound 1/(M c_theta) to r = 1, theta = pi/2,
    collecting transmitted and reflected data.
    """
    w = float(_check_omega(omega))**2
    return cr_bound(_ea_cperp(1.0, w, DetectionMode.BOTH), m)
