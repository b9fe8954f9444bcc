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
        c_r, c_theta = float(self.c_r), float(self.c_theta)
        return QfiMatrix.from_entries(POLAR, [c_r, 0.0, 0.0, 0.0, c_theta, 0.0,
                                              0.0, 0.0, c_theta * math.sin(theta)**2])


def _check_omega(omega):
    omega = np.asarray(omega, dtype=float)
    if not ((omega > 0.0) & (omega <= OMEGA_MAX)).all():  # NaN fails both
        raise ValueError(OMEGA_DOMAIN)
    return omega


def _omega_float(omega) -> float:
    """``_check_omega`` for one Omega, as a float; a Python float is checked as it is."""
    if type(omega) is not float:
        return float(_check_omega(omega))
    if not 0.0 < omega <= OMEGA_MAX:  # NaN fails both
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
    return QfiMatrix.from_entries(CARTESIAN, [c + g * (x * x) / den, xy, xz,
                                              xy, c + g * (y * y) / den, yz,
                                              xz, yz, c + g * (z * z) / den])


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
    angle theta_a in the x-z plane. Broadcasts over array arguments. Three Python
    floats are checked and combined as floats, after one ``np.cos`` of theta_a,
    2 theta_a, 3 theta_a and 4 theta_a; other scalars run as numpy scalars.
    Either gives a float, the bits of an array call's element.
    """
    if type(v_z) is float and type(theta_a) is float and type(omega) is float:
        if not abs(v_z) < 1.0:  # NaN fails too
            raise ValueError("v_z must satisfy |v_z| < 1")
        if not math.isfinite(theta_a):
            raise ValueError("theta_a must be finite")
        w = _omega_float(omega)
        w = w * w  # the bits of numpy squaring an array; C pow rounds otherwise
        cosines = np.cos(np.array([theta_a, 2 * theta_a, 3 * theta_a, 4 * theta_a])).tolist()
        return float(_nea_ratio(_nea_terms(v_z, [1.0, *cosines], w, mode), w, mode))
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
    polynomial of degree <= 2 in W = w.
    """
    return _nea_terms(v, (1.0, np.cos(t), np.cos(2 * t), np.cos(3 * t), np.cos(4 * t)), w, mode)


def _nea_terms(v, cosines, w, mode: DetectionMode) -> tuple:
    """``_nea_factors`` from the cosines (cos k theta_a for k = 0, 1, 2, 3, 4).

    Each factor is ``_nea_coefficients``' polynomial in W, evaluated by Horner.
    """
    return tuple([c[0] + w * (c[1] + w * c[2]) if len(c) == 3 else
                  c[0] + w * c[1] if len(c) == 2 else c[0]
                  for c in _nea_coefficients(v, cosines, mode)])


def _nea_small_factors(v, v_c1) -> tuple:
    """(d_r, 1 - v c1, 1 - v^2) at v c1 = v_c1, where d_r = 2((1 - v c1)^2 + (1 - v^2)).

    c1 is cos theta_a. d_r and d_t = d_r + W (d_r + 16 (1 - v^2)) vanish at
    the pure state; as sums of nonnegative terms they keep their digits next
    to it, where the expanded 4 - v^2 - 4 v c1 + v^2 cos 2theta_a loses them.
    """
    gap = (1.0 - v) * (1.0 + v)  # not 1 - v v, which cancels as |v| -> 1
    a = 1.0 - v_c1
    return 2.0 * (a * a + gap), a, gap


def _nea_coefficients(v, cosines, mode: DetectionMode) -> tuple:
    """The factors (d_t, d_r, f_t, f_r, n, m) of ``nea_qfi``, as coefficients of W^0, W^1, ....

    Given the cosines c_k = cos k theta_a, k = 0..4 (c_0 = 1). The first four
    are every mode's; n and m are the mode's own (t: numerator and 1; r:
    numerator and denominator; both: g_t and g_m). The degree in W is the
    tuple's length less one (at most 2). d_t and d_r, which vanish at the pure
    state, are sums of nonnegative terms; the others are affine in the c_k,
    their theta_a-free parts times c_0, so unit cosines give their coefficients.
    """
    c0, c1, c2, c3, c4 = cosines
    # no **: a numpy scalar's ** is C pow, whose rounding differs from the array loop's;
    # float literals: a Python float's arithmetic with an int converts it each time
    v2, vc1, vc3 = v * v, v * c1, v * c3
    v2c2, v2c4 = v2 * c2, v2 * c4
    d_r, _, gap = _nea_small_factors(v, vc1)
    # shared denominator pieces of the transmitted/reflected branch spectra
    d_t = (d_r, d_r + 16.0 * gap)
    f_t = (3.0 * c0 - 2.0 * vc1, 9.0 * c0)
    f_r = (c0, 7.0 * c0 + 2.0 * vc1)

    # the W^0 coefficient of r's numerator and of both's g_t: 16 v c1^3 = 4 v (3 c1 + c3)
    n_0 = (20.0 - v2) * c0 - 12.0 * vc1 + 4.0 * c2 - 4.0 * vc3 + v2c4
    if mode is DetectionMode.REFLECTION:
        n = (n_0,
             (92.0 - v2) * c0 + 8.0 * vc1 - 20.0 * c2 - 8.0 * vc3 + v2c4)
        m = (3.0 * c0 - 2.0 * vc1, (30.0 - 2.0 * v2) * c0 - 8.0 * vc1 - 2.0 * v2c2,
             63.0 * c0 + 18.0 * vc1)
        return d_t, (d_r,), f_t, f_r, n, m
    # the W^2 coefficient of t's numerator and of both's g_m
    m_2 = (724.0 - 33.0 * v2) * c0 - 12.0 * vc1 - 32.0 * v2c2 + 4.0 * c2 - 4.0 * vc3 + v2c4
    if mode is DetectionMode.TRANSMISSION:
        n = ((44.0 - v2) * c0 - 32.0 * vc1 - 4.0 * c2 + v2c4,
             (384.0 - 34.0 * v2) * c0 - 172.0 * vc1 - 32.0 * v2c2 - 4.0 * vc3 + 2.0 * v2c4,
             m_2)
        return d_t, (d_r,), f_t, f_r, n, (c0,)
    if mode is DetectionMode.BOTH:
        g_t = (n_0, 108.0 * c0 - 36.0 * c2)
        g_m = (12.0 * c0 - 4.0 * c2, (192.0 - v2) * c0 - 12.0 * vc1 - 32.0 * c2 - 4.0 * vc3 + v2c4,
               m_2)
        return d_t, (d_r,), f_t, f_r, g_t, g_m
    raise ValueError(f"unknown detection mode {mode}")


# The only statement of each mode's QFI, which nea_qfi and the optimizer read:
# s(W) sum_terms prod_i x_i^e_i over the ``_nea_coefficients`` x = (d_t, d_r, f_t, f_r, n, m),
# s = W/((1 + W)(1 + a W)), as (a, e); every term is one factor over a product of others
_NEA_TERMS = {
    DetectionMode.TRANSMISSION: (0.0, ((-1, 0, -1, -1, 1, 0),)),  # n/(d_t f_t f_r)
    DetectionMode.REFLECTION: (0.0, ((0, -1, 0, 0, 1, -1),)),  # n/(d_r m)
    DetectionMode.BOTH: (9.0, ((0, -1, -1, 0, 1, 0),  # n/(d_r f_t)
                               (-1, 0, 0, -1, 0, 1))),  # m/(d_t f_r)
}


def _nea_ratio(factors, w, mode: DetectionMode):
    """``nea_qfi`` by ``_NEA_TERMS`` from the factors (floats or arrays) ``_nea_factors`` gives."""
    a, terms = _NEA_TERMS[mode]
    total = sum(factors[e.index(1)] / math.prod(x for x, p in zip(factors, e) if p < 0)
                for e in terms)
    return total * w / ((1.0 + w) * (1.0 + a * w))


def ea_cartesian(v: BlochVector, omega: float, mode: DetectionMode) -> QfiMatrix:
    """Full 3x3 cartesian entanglement-assisted QFI matrix.

    The singlet probe and the exchange coupling are rotation invariant, so the
    matrix is c_perp I + (c_r - c_perp) n n^T with n = v/|v|: c_r along the
    Bloch vector and c_perp = c_theta/r^2 across it (c_perp I at v = 0).
    """
    w = _omega_float(omega)**2
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

    Of the settings, it reads what ``scatter.READS`` names for the strategy.
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
    w = _omega_float(omega)**2
    return cr_bound(_ea_cperp(1.0, w, DetectionMode.BOTH), m)
