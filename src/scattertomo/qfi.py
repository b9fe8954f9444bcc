"""Quantum Fisher information matrices and Cramer-Rao bounds.

``qfi_numeric`` is the numerical oracle: it evaluates the spectral form of the
QFI on the labeled block decomposition, using matrix elements of the state
derivative instead of eigenvector derivatives (the two forms are algebraically
identical, and this one stays conditioned near spectral degeneracies). It
reads each block's spectrum from the ``BranchState``, which computed it while
validating the block, and each block's (3, d, d) derivative stack from the
``BranchDerivatives``, built once per channel; it solves no eigenproblem of a
block itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scatter import BranchDerivatives, BranchState
from .states import BlochVector, PolarCoords

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
        h = np.asarray(self.h)  # complex is refused, not cast
        if (np.iscomplexobj(h) or h.shape != (3, 3)
                or not np.isfinite(h := np.asarray(h, dtype=float)).all()):
            raise ValueError("QFI matrix must be a finite 3x3 real matrix")
        scale = max(1.0, np.abs(h).max())
        if np.abs(h - h.T).max() > _SYM_TOL * scale:
            raise ValueError("QFI matrix is not symmetric")
        sym = 0.5 * (h + h.T)
        if np.linalg.eigvalsh(sym)[0] < _PSD_TOL * scale:  # ascending
            raise ValueError("QFI matrix is not positive semidefinite")
        object.__setattr__(self, "h", sym)

    def entry(self, row: str, col: str) -> float:
        axes = AXES if self.basis == CARTESIAN else POLAR_AXES
        if row not in axes or col not in axes:
            raise ValueError(f"entries of a {self.basis} QFI matrix are named by {axes}")
        return float(self.h[axes.index(row), axes.index(col)])


def qfi_numeric(state: BranchState, derivs: BranchDerivatives,
                eps: float = 1e-12) -> QfiMatrix:
    """Cartesian 3x3 QFI of a branch state via per-block spectral sums.

    Vanishing spectral weights are dropped: lam_n + lam_m <= eps * lam_max, with
    lam_max the largest eigenvalue of the same block, so a block that is small
    as a whole keeps its weights. 1x1 vacuum blocks reduce to the classical
    (dp_j dp_k)/p contribution automatically.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    if state.labels != derivs.labels:
        raise ValueError(
            f"state labels {state.labels} do not match derivative labels {derivs.labels}")
    h = np.zeros((3, 3))
    for (lam, vec), d_stack in zip(state.spectra, derivs.stacks):
        weights = lam[:, None] + lam[None, :]
        mask = weights > eps * lam[0]  # lam is descending
        if not mask.any():
            continue
        rotated = vec.conj().T @ d_stack @ vec
        inv_w = np.divide(1.0, weights, out=np.zeros_like(weights), where=mask)
        h += 2.0 * np.einsum("anm,bnm,nm->ab", rotated, np.conj(rotated), inv_w).real
    return QfiMatrix(CARTESIAN, h)


def polar_jacobian(p: PolarCoords) -> np.ndarray:
    """Jacobian B[j, k] = d v_k / d (r, theta, phi)_j of the spherical parametrization."""
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return np.array([
        [st * cp, st * sp, ct],
        [p.r * ct * cp, p.r * ct * sp, -p.r * st],
        [-p.r * st * sp, p.r * st * cp, 0.0],
    ])


def polar_gradient(v: BlochVector, param: str) -> np.ndarray:
    """Cartesian gradient of the polar coordinate ``param`` ("r", "theta", "phi") at v.

    Errors where the coordinate is undefined: at the origin, and for theta and
    phi on the z axis.
    """
    if param not in POLAR_AXES:
        raise ValueError(f"unknown polar coordinate {param!r}")
    vec = v.as_array()
    r = v.norm
    if r < 1e-12:
        raise ValueError(f"polar coordinate {param!r} undefined at the origin")
    if param == "r":
        return vec / r
    rho = math.hypot(vec[0], vec[1])
    if rho < 1e-12:
        raise ValueError("theta gradient undefined on the z axis" if param == "theta"
                         else "phi undefined on the z axis")
    if param == "theta":
        return np.array([vec[0] * vec[2], vec[1] * vec[2], -rho * rho]) / (r * r * rho)
    return np.array([-vec[1], vec[0], 0.0]) / (rho * rho)


def cartesian_to_polar(h: QfiMatrix, p: PolarCoords) -> QfiMatrix:
    """QFI of (r, theta, phi): B H B^T with B = polar_jacobian(p)."""
    if h.basis != CARTESIAN:
        raise ValueError("expected a cartesian QFI matrix")
    b = polar_jacobian(p)
    return QfiMatrix(POLAR, b @ h.h @ b.T)


def _invert(h: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(h)  # relative test: a small but well-conditioned H inverts
    if lam[-1] <= 0.0 or lam[0] <= _COND_TOL * lam[-1]:
        raise ValueError("QFI matrix is singular; matrix/component bound undefined")
    return np.linalg.inv(h)


def cr_bound(h, m: int, target="matrix") -> np.ndarray | float:
    """Cramer-Rao bound over m uses of the encoding state, from a QfiMatrix or a scalar QFI.

    target: "matrix" for the full covariance bound H^-1/M, a (3, 3) array, or
    the gradient g of a scalar function f of H's parameters for the bound on
    f, the float g^T H^-1 g / M. An axis name of H's basis stands for the unit
    vector along it, giving the per-component bound (H^-1)_jj/M. Scalar h
    gives the float 1/(M h), +inf when h == 0.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m_copies must be >= 1")
    if not isinstance(h, QfiMatrix):
        value = float(h)
        if value < 0.0:
            raise ValueError("scalar QFI must be nonnegative")
        return math.inf if value == 0.0 else 1.0 / (m * value)
    if isinstance(target, str):
        if target == "matrix":
            return _invert(h.h) / m
        axes = AXES if h.basis == CARTESIAN else POLAR_AXES
        if target not in axes:
            raise ValueError(f"target {target!r} not valid for basis {h.basis!r}")
        target = np.eye(3)[axes.index(target)]
    grad = np.asarray(target, dtype=float)
    if grad.shape != (3,) or not np.all(np.isfinite(grad)):
        raise ValueError("gradient must be a finite array of shape (3,)")
    return float(grad @ _invert(h.h) @ grad) / m
