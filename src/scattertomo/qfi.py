"""Quantum Fisher information matrices and Cramer-Rao bounds.

``qfi_numeric`` is the numerical oracle: it evaluates the spectral form of the
QFI on the labeled block decomposition, using matrix elements of the state
derivative instead of eigenvector derivatives (the two forms are algebraically
identical, and this one stays conditioned near spectral degeneracies). It
reads each block's spectrum from the ``BranchState``, which computed it while
validating the block, and solves no eigenproblem of a block itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scatter import BranchDerivatives, BranchState
from .states import BlochVector, PolarCoords, dagger

AXES = ("x", "y", "z")
POLAR_AXES = ("r", "theta", "phi")

CARTESIAN = "cartesian"
POLAR = "polar"

_SYM_TOL = 1e-10
_PSD_TOL = -1e-9
_COND_TOL = 1e-12


@dataclass(frozen=True)
class QfiMatrix:
    """3x3 real symmetric PSD Fisher information matrix with a basis tag."""

    basis: str
    h: np.ndarray

    def __post_init__(self):
        if self.basis not in (CARTESIAN, POLAR):
            raise ValueError(f"unknown basis {self.basis!r}")
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3, 3) or not np.all(np.isfinite(h)):
            raise ValueError("QFI matrix must be a finite 3x3 real matrix")
        scale = max(1.0, float(np.max(np.abs(h))))
        if float(np.max(np.abs(h - h.T))) > _SYM_TOL * scale:
            raise ValueError("QFI matrix is not symmetric")
        if float(np.linalg.eigvalsh(0.5 * (h + h.T)).min()) < _PSD_TOL * scale:
            raise ValueError("QFI matrix is not positive semidefinite")
        object.__setattr__(self, "h", 0.5 * (h + h.T))

    def entry(self, row: str, col: str) -> float:
        axes = AXES if self.basis == CARTESIAN else POLAR_AXES
        if row not in axes or col not in axes:
            raise ValueError(f"entries of a {self.basis} QFI matrix are named by {axes}")
        return float(self.h[axes.index(row), axes.index(col)])


@dataclass(frozen=True)
class Jacobian:
    """B[j, k] = d v_k / d vtilde_j for a reparameterization vtilde(v)."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (3, 3) or not np.all(np.isfinite(b)):
            raise ValueError("Jacobian must be a finite 3x3 real matrix")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class CrBound:
    """Cramer-Rao variance bound over m_copies uses of the encoding state."""

    m_copies: int
    bound: np.ndarray | float
    target: str


def qfi_numeric(state: BranchState, derivs: BranchDerivatives,
                eps: float = 1e-12) -> QfiMatrix:
    """Cartesian 3x3 QFI of a branch state via per-block spectral sums.

    Vanishing spectral weights (lam_n + lam_m <= eps) are dropped; 1x1 vacuum
    blocks reduce to the classical (dp_j dp_k)/p contribution automatically.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    if state.labels != derivs.labels:
        raise ValueError(
            f"state labels {state.labels} do not match derivative labels {derivs.labels}")
    h = np.zeros((3, 3))
    for (lam, vec), *d_block in zip(state.spectra, *derivs.per_axis):
        weights = lam[:, None] + lam[None, :]
        mask = weights > eps
        if not np.any(mask):
            continue
        rotated = dagger(vec) @ np.stack(d_block) @ vec
        inv_w = np.divide(1.0, weights, out=np.zeros_like(weights), where=mask)
        h += 2.0 * np.einsum("anm,bnm,nm->ab", rotated, np.conj(rotated), inv_w).real
    return QfiMatrix(CARTESIAN, h)


def reparameterize(h: QfiMatrix, b: Jacobian, basis: str | None = None) -> QfiMatrix:
    """QFI of the new parameters: H~ = B H B^T."""
    return QfiMatrix(basis or h.basis, b.b @ h.h @ b.b.T)


def polar_jacobian(p: PolarCoords) -> Jacobian:
    """Jacobian d(vx,vy,vz)/d(r,theta,phi) of the spherical parametrization."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return Jacobian(np.array([
        [st * cp, st * sp, ct],
        [p.r * ct * cp, p.r * ct * sp, -p.r * st],
        [-p.r * st * sp, p.r * st * cp, 0.0],
    ]))


def polar_param_jacobian(v: BlochVector, param: str) -> Jacobian:
    """Reparameterization Jacobian whose first parameter is a polar coordinate.

    The first row is the tangent vector dual to the coordinate's cartesian
    gradient g (g/|g|^2), so the single-function bound (B H B^T)^-1_11 equals
    g^T H^-1 g; the remaining rows are an orthonormal completion, which the
    bound does not depend on. Errors where the coordinate is undefined.
    """
    vec = v.as_array()
    r = v.norm
    if r < 1e-12:
        raise ValueError(f"polar coordinate {param!r} undefined at the origin")
    rho = math.hypot(vec[0], vec[1])
    if param == "r":
        grad = vec / r
    elif param == "theta":
        if rho < 1e-12:
            raise ValueError("theta gradient undefined on the z axis")
        grad = np.array([vec[0] * vec[2], vec[1] * vec[2], -rho * rho]) / (r * r * rho)
    else:  # phi
        if rho < 1e-12:
            raise ValueError("phi undefined on the z axis")
        grad = np.array([-vec[1], vec[0], 0.0]) / (rho * rho)
    basis = [grad / np.linalg.norm(grad)]
    for axis in np.eye(3):
        w = axis - sum(b * float(b @ axis) for b in basis)
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            basis.append(w / norm)
        if len(basis) == 3:
            break
    rows = np.vstack([grad / float(grad @ grad), basis[1], basis[2]])
    return Jacobian(rows)


def cartesian_to_polar(h: QfiMatrix, p: PolarCoords) -> QfiMatrix:
    if h.basis != CARTESIAN:
        raise ValueError("expected a cartesian QFI matrix")
    return reparameterize(h, polar_jacobian(p), basis=POLAR)


def _invert(h: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(h)  # relative test: a small but well-conditioned H inverts
    if lam[-1] <= 0.0 or lam[0] <= _COND_TOL * lam[-1]:
        raise ValueError("QFI matrix is singular; matrix/component bound undefined")
    return np.linalg.inv(h)


def cr_bound(h, m: int, target="matrix") -> CrBound:
    """Cramer-Rao bound from a QfiMatrix (or a scalar single-parameter QFI).

    target: "matrix" for the full covariance bound H^-1/M, an axis name for
    the per-component variance bound (H^-1)_jj/M, or a Jacobian for the bound
    on the first reparameterized component, (B H B^T)^-1_11 / M. Scalar h
    gives 1/(M h), reported as +inf when h == 0.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m_copies must be >= 1")
    if not isinstance(h, QfiMatrix):
        value = float(h)
        if value < 0.0:
            raise ValueError("scalar QFI must be nonnegative")
        bound = math.inf if value == 0.0 else 1.0 / (m * value)
        return CrBound(m, bound, "scalar")
    if isinstance(target, Jacobian):
        h_new = reparameterize(h, target)
        return CrBound(m, float(_invert(h_new.h)[0, 0]) / m, "function")
    if target == "matrix":
        return CrBound(m, _invert(h.h) / m, "matrix")
    axes = AXES if h.basis == CARTESIAN else POLAR_AXES
    if target not in axes:
        raise ValueError(f"target {target!r} not valid for basis {h.basis!r}")
    j = axes.index(target)
    return CrBound(m, float(_invert(h.h)[j, j]) / m, f"component {target}")
