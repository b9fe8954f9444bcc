"""Input states: Bloch/polar target parametrizations, probe and ancilla states.

Basis convention: |0> is the spin-up eigenvector of sigma_z. Subsystems are
ordered target (X) x probe (A) x ancilla (B), and ``np.kron(a, b)`` is
left-factor-major. Coordinate singularities are made total by convention:
phi := 0 at the poles and at the origin, theta := 0 at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
DENSITY_TOL = 1e-10  # a density matrix's Hermitian skew, trace error and negative eigenvalues
AXIS_TOL = 1e-12  # |vx|, |vy| below this: on the z axis; |g·v| below this: g is across v

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():  # complex: both parts
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


@dataclass(frozen=True)
class BlochVector:
    """Target Bloch vector v = (vx, vy, vz), |v| <= 1."""

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        v = (self.vx, self.vy, self.vz)
        if not all(math.isfinite(c) for c in v):
            raise ValueError("Bloch components must be finite")
        # a component above 1 is refused before the norm, whose squares can overflow
        if max(map(abs, v)) > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch component {max(v, key=abs)} exceeds 1 in magnitude")
        if self.norm > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch vector norm {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)

    @classmethod
    def from_array(cls, v) -> "BlochVector":
        vx, vy, vz = (float(c) for c in v)
        return cls(vx, vy, vz)


@dataclass(frozen=True)
class PolarCoords:
    """Polar target coordinates r in [0,1], theta in [0,pi], phi in [0,2pi)."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0 + NORM_TOL):
            raise ValueError(f"r={self.r} outside [0, 1]")
        if not (0.0 <= self.theta <= math.pi + NORM_TOL):
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not (0.0 <= self.phi < 2 * math.pi + NORM_TOL):
            raise ValueError(f"phi={self.phi} outside [0, 2pi)")


@dataclass(frozen=True)
class ProbeConfig:
    """Probe preparation: pure Bloch angle theta_a for NEA, singlet for EA.

    The probe azimuth is fixed to zero (the coupling is isotropic, so this
    loses no generality); for the entangled strategy theta_a is ignored.
    """

    theta_a: float = 0.0
    entangled: bool = False

    def __post_init__(self):
        if not (0.0 <= self.theta_a <= math.pi + NORM_TOL):
            raise ValueError(f"theta_a={self.theta_a} outside [0, pi]")


def bloch_to_density(v: BlochVector) -> np.ndarray:
    """rho(v) = (1 + v.sigma)/2 as a 2x2 density matrix."""
    x, y, z = v.vx, v.vy, v.vz  # '0.0 +' gives each zero entry the sign a Pauli sum gives
    return 0.5 * np.array([[1.0 + z, complex(0.0 + x, 0.0 - y)],
                           [complex(0.0 + x, 0.0 + y), 1.0 - z]])


def polar_to_bloch(p: PolarCoords) -> BlochVector:
    st = math.sin(p.theta)
    return BlochVector(
        p.r * st * math.cos(p.phi),
        p.r * st * math.sin(p.phi),
        p.r * math.cos(p.theta),
    )


def bloch_to_polar(v: BlochVector) -> PolarCoords:
    r = v.norm
    if r < NORM_TOL:
        return PolarCoords(0.0, 0.0, 0.0)
    theta = math.acos(max(-1.0, min(1.0, v.vz / r)))
    if math.hypot(v.vx, v.vy) < NORM_TOL:
        return PolarCoords(r, theta, 0.0)
    phi = math.atan2(v.vy, v.vx) % (2 * math.pi)
    return PolarCoords(r, theta, phi)


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)  # probe x ancilla


def singlet() -> np.ndarray:
    """Projector onto the singlet (|01> - |10>)/sqrt(2) on probe x ancilla."""
    return np.outer(_SINGLET, _SINGLET.conj())


_SINGLET_RHO = singlet()  # the EA probe input, shared by every channel
_SINGLET_RHO.flags.writeable = False


def is_density_matrix(rho: np.ndarray) -> bool:
    """Whether the square complex matrix rho is a density matrix to within DENSITY_TOL.

    Hermitian and of unit trace to DENSITY_TOL, entry by entry, and with no
    eigenvalue below -DENSITY_TOL. Decided on Python complex numbers, without an
    eigensolve: the Hermitian part plus DENSITY_TOL I must have only positive
    LDL^H pivots.
    """
    tol = DENSITY_TOL
    a = rho.tolist()
    n = len(a)
    if (max(abs(a[i][j] - a[j][i].conjugate()) for i in range(n) for j in range(i, n)) > tol
            or abs(sum(a[i][i] for i in range(n)) - 1.0) > tol):
        return False
    # lower triangle of 0.5 (rho + rho^H) + tol I, eliminated column by column
    h = [[0.5 * (a[i][j] + a[j][i].conjugate()) for j in range(i)] + [a[i][i].real + tol]
         for i in range(n)]
    for k in range(n):
        pivot = h[k][k].real
        if not pivot > 0.0:
            return False
        for i in range(k + 1, n):
            ratio = h[i][k] / pivot
            for j in range(k + 1, i + 1):
                h[i][j] -= ratio * h[j][k].conjugate()
    return True


def _check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = as_cmatrix(u)
    if u.shape != (2, 2) or np.max(np.abs(dagger(u) @ u - ID2)) > tol:
        raise ValueError("expected a 2x2 unitary matrix")
    return u


def max_entangled(u, w) -> np.ndarray:
    """Projector onto (u^dag x w^dag)|singlet>; marginals are both 1/2."""
    u = _check_unitary(u)
    w = _check_unitary(w)
    psi = np.kron(dagger(u), dagger(w)) @ _SINGLET.reshape(4, 1)
    return psi @ dagger(psi)


def probe_state(cfg: ProbeConfig) -> np.ndarray:
    """Input state of the probe: 2x2 pure state (NEA) or the singlet (EA).

    The singlet is one shared read-only array. The NEA state has the bits of
    ``bloch_to_density(BlochVector(sin theta_a, 0, cos theta_a))``, built from
    the two floats without the vector's checks (the config checked theta_a).
    """
    if cfg.entangled:
        return _SINGLET_RHO
    x, z = 0.0 + math.sin(cfg.theta_a), math.cos(cfg.theta_a)
    return np.array([[0.5 * (1.0 + z), 0.5 * x], [0.5 * x, 0.5 * (1.0 - z)]], dtype=complex)


__all__ = [
    "BlochVector",
    "PolarCoords",
    "ProbeConfig",
    "bloch_to_density",
    "polar_to_bloch",
    "bloch_to_polar",
    "singlet",
    "max_entangled",
    "probe_state",
]
