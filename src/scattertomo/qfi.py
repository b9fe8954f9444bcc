"""Quantum Fisher information matrices and Cramer-Rao bounds.

``qfi_numeric`` is the numerical oracle: it evaluates the spectral form of the
QFI on the labeled block decomposition, using matrix elements of the state
derivative instead of eigenvector derivatives (the two forms are algebraically
identical, and this one stays conditioned near spectral degeneracies). It
makes one array pass over all blocks at once. Both of its inputs come from
one ``Channel``'s zero-padded (n, 4, d, d) stack of Hermitian maps, with no
copy per block: the padded spectra (lam (n, d), vec (n, d, d)) of the
``BranchState``, which one ``eigh`` of its (n, d, d) block stack gave while
validating it, and the (n, 3, d, d) sigma maps of the ``BranchDerivatives``, a
view of that stack. It solves no eigenproblem itself. A block of size d_i < d
is zero in its padding, so the padding adds only zero terms to the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scatter import BranchDerivatives, BranchState
from .states import AXIS_TOL, NORM_TOL, BlochVector, PolarCoords

AXES = ("x", "y", "z")
POLAR_AXES = ("r", "theta", "phi")

CARTESIAN = "cartesian"
POLAR = "polar"

_SYM_TOL = 1e-10
_PSD_TOL = 1e-9
_COND_TOL = 1e-12


def _positive_definite(a00, a01, a02, a11, a12, a22) -> bool:
    """Whether the symmetric 3x3 matrix of these entries has three positive LDL^T pivots."""
    if not a00 > 0.0:  # NaN fails too
        return False
    l10, l20 = a01 / a00, a02 / a00
    d1 = a11 - l10 * a01
    if not d1 > 0.0:
        return False
    b21 = a12 - l20 * a01
    return a22 - l20 * a02 - b21 * b21 / d1 > 0.0


_NOT_A_MATRIX = "QFI matrix must be a finite 3x3 real matrix"


def _symmetrized(e: list) -> np.ndarray:
    """(h + h^T)/2 as a (3, 3) array, h given as its nine row-major Python floats, checked.

    Refuses a non-finite entry, |h_jk - h_kj| > 1e-10 s and eigenvalues below
    -1e-9 s, s = max(1, largest |entry|). The eigenvalue test is an LDL^T of
    (h + h^T)/2 + 1e-9 s I, which must have three positive pivots: the same
    condition, decided without an eigensolve.
    """
    if not all(map(math.isfinite, e)):
        raise ValueError(_NOT_A_MATRIX)
    scale = max(1.0, *map(abs, e))
    h00, h01, h02, h10, h11, h12, h20, h21, h22 = e
    if max(abs(h01 - h10), abs(h02 - h20), abs(h12 - h21)) > _SYM_TOL * scale:
        raise ValueError("QFI matrix is not symmetric")
    a00, a11, a22 = 0.5 * (h00 + h00), 0.5 * (h11 + h11), 0.5 * (h22 + h22)
    a01, a02, a12 = 0.5 * (h01 + h10), 0.5 * (h02 + h20), 0.5 * (h12 + h21)
    tau = _PSD_TOL * scale
    if not _positive_definite(a00 + tau, a01, a02, a11 + tau, a12, a22 + tau):
        raise ValueError("QFI matrix is not positive semidefinite")
    return np.array([a00, a01, a02, a01, a11, a12, a02, a12, a22]).reshape(3, 3)


@dataclass(frozen=True)
class QfiMatrix:
    """3x3 real symmetric PSD Fisher information matrix with a basis tag; keeps (h + h^T)/2.

    Refuses complex, non-3x3 or non-finite h, |h_jk - h_kj| > 1e-10 s and eigenvalues
    below -1e-9 s, s = max(1, largest |entry|); h is read with one ``tolist()`` and its
    entries are checked as Python floats (``_symmetrized``). ``from_entries`` takes the
    nine floats themselves, with the same checks.
    """

    basis: str
    h: np.ndarray

    def __post_init__(self):
        if self.basis not in (CARTESIAN, POLAR):
            raise ValueError(f"unknown basis {self.basis!r}")
        h = np.asarray(self.h)
        if h.dtype.kind == "c" or h.shape != (3, 3):  # complex is refused, not cast
            raise ValueError(_NOT_A_MATRIX)
        object.__setattr__(self, "h", _symmetrized(h.astype(float, copy=False).ravel().tolist()))

    @classmethod
    def from_entries(cls, basis: str, entries: list) -> QfiMatrix:
        """The matrix of nine row-major Python floats, checked as the constructor checks h.

        The same matrix as ``cls(basis, np.array(entries).reshape(3, 3))``, with
        no array made before the checks pass.
        """
        if basis not in (CARTESIAN, POLAR):
            raise ValueError(f"unknown basis {basis!r}")
        m = object.__new__(cls)
        object.__setattr__(m, "basis", basis)
        object.__setattr__(m, "h", _symmetrized(entries))
        return m

    def entry(self, row: str, col: str) -> float:
        axes = AXES if self.basis == CARTESIAN else POLAR_AXES
        if row not in axes or col not in axes:
            raise ValueError(f"entries of a {self.basis} QFI matrix are named by {axes}")
        return float(self.h[axes.index(row), axes.index(col)])


def qfi_numeric(state: BranchState, derivs: BranchDerivatives,
                eps: float = 1e-12) -> QfiMatrix:
    """Cartesian 3x3 QFI of a branch state: the spectral sum of every block in one pass.

    Vanishing spectral weights are dropped: lam_n + lam_m <= eps * lam_max, with
    lam_max the largest eigenvalue of the same block, so a block that is small
    as a whole keeps its weights. 1x1 vacuum blocks reduce to the classical
    (dp_j dp_k)/p contribution automatically. The state and the derivatives
    must have the same labels and block sizes.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    if state.labels != derivs.labels:
        raise ValueError(
            f"state labels {state.labels} do not match derivative labels {derivs.labels}")
    if state.sizes != derivs.sizes:
        raise ValueError(f"state block sizes {state.sizes} do not match derivative "
                         f"block sizes {derivs.sizes}")
    lam, vec = state.spectra
    rotated = vec.conj().swapaxes(1, 2)[:, None] @ derivs.padded @ vec[:, None]  # V^H D V
    weights = lam[:, :, None] + lam[:, None, :]
    mask = weights > eps * lam[:, :1, None]  # lam is descending
    inv_w = np.divide(1.0, weights, out=np.zeros(weights.shape), where=mask)
    # contracted block by block, then the blocks added in order onto 0.0: the
    # rounding of a running sum over the blocks
    blocks = 2.0 * np.einsum("kanm,kbnm,knm->kab", rotated, np.conj(rotated), inv_w).real
    return QfiMatrix(CARTESIAN, blocks.sum(axis=0, initial=0.0))


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


def check_pure_target(v: BlochVector, grad: np.ndarray | None, what: str) -> None:
    """Refuse ``what``, the matrix (grad None) or a bound of gradient grad, on a pure target.

    At |v| = 1 the radial QFI diverges, but the numeric QFI drops the
    zero-weight spectral terms and reports a finite value (the Bures-metric
    discontinuity), so only gradients across the Bloch vector are reliable.
    """
    if abs(v.norm - 1.0) <= NORM_TOL and (
            grad is None or abs(float(grad @ v.as_array())) >= AXIS_TOL):
        raise ValueError(f"{what} needs the radial QFI, which diverges "
                         "on a pure target (|v| = 1)")


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
    gives the float 1/(M h): +inf when h == 0, 0.0 when h == +inf; a negative
    or NaN h is refused.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"m_copies must be an integer, got {m!r}")
    m = int(m)
    if m < 1:
        raise ValueError("m_copies must be >= 1")
    if not isinstance(h, QfiMatrix):
        value = float(h)
        if not value >= 0.0:  # also refuses NaN
            raise ValueError(f"scalar QFI must be nonnegative, got {value}")
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
