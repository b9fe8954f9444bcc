"""Dense complex linear algebra for small operators (dim <= 16).

Everything here is a plain ``numpy.ndarray`` with complex dtype; matrices are
immutable by convention (functions never modify their arguments). Subsystem
ordering is fixed everywhere as target (X) x probe (A) x ancilla (B), with
``tensor(a, b)`` left-factor-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# sigma.sigma on a two-qubit space, and the swap operator it equals 2S - 1
SIGMA_DOT_SIGMA = sum(np.kron(s, s) for s in PAULIS)
SWAP = 0.5 * (SIGMA_DOT_SIGMA + np.eye(4, dtype=complex))


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def tensor(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (i_a, i_b) -> i_a*dim_b + i_b."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def partial_trace(m, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` are the subsystem dimensions (their product must equal the matrix
    dimension); ``keep`` is a set of subsystem indices. The result acts on the
    kept subsystems in their original order, and Tr(result) = Tr(m).
    """
    a = as_cmatrix(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(f"matrix of shape {a.shape} does not match dims {dims}")
    keep_set = set(int(q) for q in keep)
    if not keep_set <= set(range(len(dims))):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    t = a.reshape(dims + dims)
    kept = list(range(len(dims)))
    for q in sorted(set(range(len(dims))) - keep_set, reverse=True):
        pos = kept.index(q)
        t = np.trace(t, axis1=pos, axis2=pos + len(kept))
        kept.pop(pos)
    d_out = int(np.prod([dims[q] for q in kept])) if kept else 1
    return t.reshape(d_out, d_out)


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def herm_eig(m, tol: float = 1e-12) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix (symmetrized before solving).

    Raises ValueError if the anti-Hermitian part exceeds ``tol`` (relative to
    the matrix scale), and numpy.linalg.LinAlgError on solver non-convergence.
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("herm_eig requires a square matrix")
    herm = 0.5 * (a + dagger(a))
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if float(np.max(np.abs(a - herm))) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    lam, vec = np.linalg.eigh(herm)
    order = np.argsort(lam)[::-1]
    return EigDecomposition(lam[order].astype(float), vec[:, order])


def clamp_spectrum(lam: np.ndarray, floor: float = -1e-12) -> np.ndarray:
    """Clip tiny negative eigenvalues (roundoff on PSD operators) to zero."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < floor):
        raise ValueError(f"eigenvalue {lam.min():.3e} below PSD tolerance {floor:.0e}")
    return np.clip(lam, 0.0, None)
