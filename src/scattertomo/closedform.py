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

from .qfi import CARTESIAN, POLAR, QfiMatrix
from .scatter import DetectionMode
from .states import BlochVector


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
    if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
        raise ValueError("omega must be positive and finite")
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
    return _ea_cr(_check_radius(r, strict=True), _check_omega(omega)**2, mode)


def _ea_cr(r, w, mode: DetectionMode):
    """c_r at radius r and W = Omega^2, without input checks (0 <= r < 1, W > 0)."""
    r2 = r**2
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


def ea_ctheta(r, omega, mode: DetectionMode):
    """Angular coefficient c_theta of the entanglement-assisted polar QFI."""
    r = _check_radius(r, strict=False)
    w = _check_omega(omega)**2
    r2 = r**2
    if mode is DetectionMode.BOTH:
        p9 = 4 * (1 + 9 * w)**2 - r2 * (1 - 9 * w)**2
        p5 = 4 * (1 + 5 * w)**2 - r2 * (1 + 3 * w)**2
        return (32 * r2 * w
                * (4 * (1 + 5 * w) * (1 + 9 * w) * (1 + 18 * w + 63 * w**2)
                   - r2 * (1 + 4 * w + 68 * w**2 + 720 * w**3 + 1863 * w**4))
                / ((1 + w) * (1 + 9 * w) * p9 * p5))
    if mode is DetectionMode.TRANSMISSION:
        return (4 * r2 * w * (2 * (1 + 5 * w) * (11 + 76 * w + 117 * w**2)
                              - r2 * (1 + 3 * w)**2)
                / (3 * (1 + w) * (1 + 3 * w) * (1 + 9 * w)
                   * (4 * (1 + 5 * w)**2 - r2 * (1 + 3 * w)**2)))
    if mode is DetectionMode.REFLECTION:
        return (4 * r2 * w * (2 * (1 + 9 * w) * (1 + 36 * w + 207 * w**2)
                              - r2 * w * (1 - 9 * w)**2)
                / ((1 + w) * (1 + 7 * w) * (1 + 9 * w)
                   * (4 * (1 + 9 * w)**2 - r2 * (1 - 9 * w)**2)))
    raise ValueError(f"unknown detection mode {mode}")


def _polar_coeffs(c_r, c_theta) -> QfiPolarCoeffs:
    """Coefficients as floats for scalar arguments, as arrays otherwise."""
    if np.ndim(c_r) == 0:
        return QfiPolarCoeffs(float(c_r), float(c_theta))
    return QfiPolarCoeffs(c_r, c_theta)


def direct_qfi(r, theta: float = 0.0) -> QfiPolarCoeffs:
    """Polar coefficients for direct access to the target: (1/(1-r^2), r^2).

    Independent of theta and phi; theta is accepted only for interface parity
    with the polar matrix constructors. Broadcasts over r.
    """
    del theta
    r = _check_radius(r, strict=False)
    with np.errstate(divide="ignore"):
        return _polar_coeffs(1.0 / (1.0 - r**2), r**2)


def direct_cartesian(v: BlochVector) -> QfiMatrix:
    """Cartesian QFI of direct access to the target: I + v v^T / (1 - |v|^2)."""
    den = 1.0 - v.norm**2
    if den <= 0.0:
        raise ValueError("cartesian direct QFI requires |v| < 1")
    vec = v.as_array()
    return QfiMatrix(CARTESIAN, np.eye(3) + np.outer(vec, vec) / den)


def ea_polar(r, omega, mode: DetectionMode) -> QfiPolarCoeffs:
    """Entanglement-assisted polar coefficients at radius r and momentum Omega.

    Broadcasts; c_r is +inf where r = 1.
    """
    r = _check_radius(r, strict=False)
    c_theta = ea_ctheta(r, omega, mode)
    inside = r < 1.0
    return _polar_coeffs(np.where(inside, ea_cr(np.where(inside, r, 0.0), omega, mode),
                                  math.inf), c_theta)


def nea_qfi(v_z, theta_a, omega, mode: DetectionMode):
    """Single-parameter QFI for v_z with an unentangled pure probe.

    The target Bloch vector lies on the z axis; the probe points at polar
    angle theta_a in the x-z plane. Broadcasts over array arguments.
    """
    v = np.asarray(v_z, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(np.abs(v) >= 1.0):
        raise ValueError("v_z must satisfy |v_z| < 1")
    t = np.asarray(theta_a, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("theta_a must be finite")
    w = _check_omega(omega)**2
    out = _nea_ratio(_nea_factors(v, t, w, mode), w, mode)
    return float(out) if out.ndim == 0 else out


def _nea_factors(v, t, w, mode: DetectionMode) -> tuple:
    """The factors that ``nea_qfi`` combines in ``mode``, without input checks.

    Each factor is a cosine polynomial of degree <= 4 in theta_a = t and a
    polynomial of degree <= 2 in W = w, so a few samples fix it along either
    coordinate (the optimizer's per-lane forms rely on this).
    """
    c1, c2 = np.cos(t), np.cos(2 * t)
    c3, c4 = np.cos(3 * t), np.cos(4 * t)

    # shared denominator pieces of the transmitted/reflected branch spectra
    d_t = (4 * (1 + 5 * w) - v**2 * (1 + 17 * w)
           - v * (1 + w) * (4 * c1 - v * c2))
    d_r = 4 - v**2 - 4 * v * c1 + v**2 * c2
    f_t = 3 + 9 * w - 2 * v * c1
    f_r = 1 + 7 * w + 2 * v * w * c1

    if mode is DetectionMode.TRANSMISSION:
        num = (4 * (11 + 96 * w + 181 * w**2)
               - v**2 * (1 + w) * (1 + 33 * w)
               - 4 * v * (8 + 43 * w + 3 * w**2) * c1
               - 4 * (1 - w + 8 * v**2 * w) * (1 + w) * c2
               - 4 * v * w * (1 + w) * c3
               + v**2 * (1 + w)**2 * c4)
        return d_t, f_t, f_r, num
    if mode is DetectionMode.REFLECTION:
        num = (4 * (5 + 23 * w)
               - v**2 * (1 + w)
               - 4 * v * (3 - 2 * w) * c1
               + 4 * (1 - 5 * w) * c2
               - 4 * v * (1 + 2 * w) * c3
               + v**2 * (1 + w) * c4)
        den = (3 * (1 + 3 * w) * (1 + 7 * w) - 2 * v**2 * w
               - 2 * v * (1 + 4 * w - 9 * w**2) * c1 - 2 * v**2 * w * c2)
        return d_r, num, den
    if mode is DetectionMode.BOTH:
        g_t = (4 * (5 + 27 * w) - v**2 + 4 * (1 - 9 * w) * c2
               - 16 * v * c1**3 + v**2 * c4)
        g_r = 3 * (1 + 3 * w) - 2 * v * c1
        g_m = (4 * (3 + 48 * w + 181 * w**2)
               - v**2 * w * (1 + 33 * w)
               - 12 * v * w * (1 + w) * c1
               - 4 * (1 + 8 * w - w**2 + 8 * v**2 * w**2) * c2
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

    Diagonal entries are a(r) + b(r) v_i^2 and off-diagonal entries b(r)
    v_i v_j; on-axis targets make the matrix diagonal with the zz entry equal
    to the single-parameter functions of ``nea-to-EA`` form.
    """
    omega = float(_check_omega(omega))
    w = omega**2
    vec = v.as_array()
    v2 = float(vec @ vec)
    if v2 >= 1.0:
        raise ValueError("cartesian EA QFI requires |v| < 1")
    h = np.zeros((3, 3))

    if mode is DetectionMode.BOTH:
        p9 = 4 * (1 + 9 * w)**2 - v2 * (1 - 9 * w)**2
        p5 = 4 * (1 + 5 * w)**2 - v2 * (1 + 3 * w)**2
        pref = 2 * w / ((1 - v2) * (1 + w) * (1 + 5 * w) * (1 + 9 * w)**2 * p9 * p5)
        off = ((1 + 7 * w) * (1 + 9 * w) * (3 + 13 * w)**2 * p9
               + 3 * (1 + 3 * w) * (1 + 5 * w) * (1 + 27 * w)**2 * p5)
        for i in range(3):
            h[i, i] = pref * (
                (1 + 9 * w) * (3 + 13 * w) * p9
                * (vec[i]**2 * (1 + 7 * w) * (3 + 13 * w)
                   + 4 * (1 - v2) * (1 + 5 * w)**2)
                + (1 + 5 * w) * (1 + 27 * w) * p5
                * (3 * vec[i]**2 * (1 + 3 * w) * (1 + 27 * w)
                   + 4 * (1 - v2) * (1 + 9 * w)**2))
            for j in range(i + 1, 3):
                h[i, j] = h[j, i] = pref * vec[i] * vec[j] * off
        return QfiMatrix(CARTESIAN, h)

    if mode is DetectionMode.TRANSMISSION:
        q3 = 9 * (1 + 3 * w)**2 - 4 * v2
        p5 = 4 * (1 + 5 * w)**2 - v2 * (1 + 3 * w)**2
        pref = 2 * w / (3 * (1 - v2) * (1 + w) * (1 + 3 * w) * (1 + 5 * w)
                        * (1 + 9 * w) * q3 * p5)
        off = (3 * (1 + 3 * w) * (1 + 7 * w) * (3 + 13 * w)**2 * q3
               + 8 * (1 - v2) * (1 + 5 * w) * p5)
        for i in range(3):
            rest = v2 - vec[i]**2  # v_j^2 + v_k^2 for the other two axes
            h[i, i] = pref * (
                2 * (1 - v2) * (1 + 5 * w) * p5 * (9 * (1 + 3 * w)**2 - 4 * rest)
                + 3 * (1 + 3 * w) * (3 + 13 * w) * q3
                * (4 * (1 + 5 * w)**2 * (1 - rest) - (1 + 3 * w)**2 * vec[i]**2))
            for j in range(i + 1, 3):
                h[i, j] = h[j, i] = pref * vec[i] * vec[j] * off
        return QfiMatrix(CARTESIAN, h)

    if mode is DetectionMode.REFLECTION:
        r7 = (1 + 7 * w)**2 - 4 * v2 * w**2
        p9 = 4 * (1 + 9 * w)**2 - v2 * (1 - 9 * w)**2
        pref = 2 * w / ((1 - v2) * (1 + w) * (1 + 7 * w) * (1 + 9 * w)**2 * r7 * p9)
        # the second brace term carries +8 Omega^6 (the printed sign fails the
        # spectral oracle), and the last factor is symmetric in the two
        # transverse components
        off = (3 * (1 + 3 * w) * (1 + 7 * w) * (1 + 27 * w)**2 * r7
               + 8 * (1 - v2) * w**3 * (1 + 9 * w) * p9)
        for i in range(3):
            rest = v2 - vec[i]**2
            h[i, i] = pref * (
                (1 + 7 * w) * (1 + 27 * w) * r7
                * (4 * (1 + 9 * w)**2 * (1 - rest) - vec[i]**2 * (1 - 9 * w)**2)
                + 2 * (1 - v2) * w * (1 + 9 * w) * p9
                * ((1 + 7 * w)**2 - 4 * w**2 * rest))
            for j in range(i + 1, 3):
                h[i, j] = h[j, i] = pref * vec[i] * vec[j] * off
        return QfiMatrix(CARTESIAN, h)

    raise ValueError(f"unknown detection mode {mode}")


def purity_bound(r: float, omega: float, m: int,
                 mode: DetectionMode = DetectionMode.BOTH) -> float:
    """Variance bound for the Bloch radius r: Var[r] >= 1/(M c_r(r, Omega))."""
    if int(m) < 1:
        raise ValueError("m must be >= 1")
    c_r = ea_polar(r, omega, mode).c_r
    return 0.0 if math.isinf(c_r) else 1.0 / (int(m) * c_r)


def phase_bound(omega: float, m: int) -> float:
    """Variance bound for the azimuthal phase of a pure equatorial target.

    Specialization of the angular bound to r = 1, theta = pi/2, collecting
    transmitted and reflected data.
    """
    if int(m) < 1:
        raise ValueError("m must be >= 1")
    w = float(_check_omega(omega))**2
    return (3 * (1 + w) * (1 + 3 * w) * (1 + 7 * w) * (1 + 9 * w)
            / (32 * w * (1 + 10 * w + 27 * w**2))) / int(m)
