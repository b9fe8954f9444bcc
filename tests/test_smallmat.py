"""Small-matrix conventions, checked where the package uses them.

The Pauli constants and ``as_cmatrix``/``dagger`` live in ``states``, and the
coupling sigma.sigma in ``scatter``. Subsystems are joined with ``np.kron``
(target x probe x ancilla, left factor major), the ``Channel`` takes the partial
traces when it builds its output blocks, and a ``BranchState`` keeps the
spectrum of every block it validates.
"""

import numpy as np
import pytest

from scattertomo.scatter import (SIGMA_DOT_SIGMA, BlockLabel, DetectionMode, apply_channel,
                                 scattering_channel)
from scattertomo.states import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    ProbeConfig,
    bloch_to_density,
    max_entangled,
    singlet,
)

from conftest import branches, marginals, rand_bloch, rand_density, rand_unitary

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)
T, R = BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN


def spectrum(block):
    """(eigenvalues, eigenvectors) a one-block BranchState keeps for ``block``."""
    lam, vec = branches((T,), (block,))[0].spectra
    return lam[0], vec[0]


class TestTensor:
    def test_identity(self):
        assert np.array_equal(max_entangled(ID2, ID2), singlet())

    def test_diagonal_product(self):
        # only sigma_z x sigma_z reaches the diagonal of sigma.sigma
        assert np.array_equal(np.diag(SIGMA_DOT_SIGMA), [1, -1, -1, 1.0])

    def test_sigma_x_sigma_y_on_00(self):
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1.0
        out = np.kron(SIGMA_X, SIGMA_Y) @ e00
        expected = np.array([0, 0, 0, 1j])  # i|11>
        assert np.allclose(out, expected, atol=1e-15)

    def test_associativity(self):
        # an entangled-probe channel on a product input rho_a x tau acts as the
        # single-probe channel on rho_a, with the ancilla's tau carried along
        rng = np.random.default_rng(11)
        for mode in MODES:
            rho_a = bloch_to_density(BlochVector.from_array(rand_bloch(rng)))
            tau = rand_density(rng, 2)
            x = BlochVector.from_array(rand_bloch(rng))
            joint = scattering_channel(np.kron(rho_a, tau), 0.8, mode).state(x)
            alone = scattering_channel(rho_a, 0.8, mode).state(x)
            for label in alone.labels:
                assert np.max(np.abs(joint.block(label) - np.kron(alone.block(label), tau))) \
                    <= 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            max_entangled(np.array([[np.nan, 0], [0, 1]]), ID2)


class TestPartialTrace:
    def test_product_state(self):
        # the entangled probe that misses the detector leaves p_miss * tau behind
        rng = np.random.default_rng(3)
        rho_a = bloch_to_density(BlochVector(0.0, 0.6, 0.0))
        tau = rand_density(rng, 2)
        x = BlochVector(0.1, 0.2, -0.3)
        joint = scattering_channel(np.kron(rho_a, tau), 1.7, DetectionMode.TRANSMISSION).state(x)
        alone = scattering_channel(rho_a, 1.7, DetectionMode.TRANSMISSION).state(x)
        p_miss = alone.block(BlockLabel.VACUUM_RHS)[0, 0]
        assert np.allclose(joint.block(BlockLabel.VACUUM_RHS), p_miss * tau, atol=1e-14)

    def test_singlet_marginals(self):
        for marginal in marginals(singlet()):
            assert np.allclose(marginal, ID2 / 2, atol=1e-15)

    def test_transmitted_block_at_omega_one(self):
        # S^t (1/2 x |0><0|) S^t+ at Omega = 1, traced over the target, equals
        # diag(0.3, 0.1) with the transmission probability 0.4 as its trace
        state = scattering_channel(np.diag([1.0, 0.0]), 1.0, DetectionMode.BOTH).state(
            BlochVector(0.0, 0.0, 0.0))
        out = state.block(T)
        assert np.allclose(out, np.diag([0.3, 0.1]), atol=1e-14)
        assert abs(np.trace(out) - 0.4) < 1e-14
        assert np.allclose(state.spectra[0][0], [0.3, 0.1], atol=1e-14)

    def test_trace_preserved(self):
        # tracing out the probe of a lost particle keeps its probability
        rng = np.random.default_rng(5)
        for rho_in in (singlet(), bloch_to_density(BlochVector(0.6, 0.0, 0.8))):
            x = BlochVector.from_array(rand_bloch(rng))
            both = scattering_channel(rho_in, 0.9, DetectionMode.BOTH).state(x)
            lost = {
                BlockLabel.VACUUM_RHS: scattering_channel(rho_in, 0.9, DetectionMode.TRANSMISSION),
                BlockLabel.VACUUM_LHS: scattering_channel(rho_in, 0.9, DetectionMode.REFLECTION),
            }
            for (label, channel), kept in zip(lost.items(), (R, T)):
                vacuum = channel.state(x).block(label)
                assert abs(np.trace(vacuum) - np.trace(both.block(kept))) <= 1e-14

    def test_dimension_mismatch(self):
        # the target is a qubit even where the probe input is 4x4
        with pytest.raises(ValueError):
            apply_channel(np.eye(4) / 4, ProbeConfig(entangled=True), 0.5, DetectionMode.BOTH)


class TestHermEig:
    def test_diagonal(self):
        lam, vec = spectrum(np.diag([0.75, 0.25]))
        assert np.allclose(lam, [0.75, 0.25])
        assert np.allclose(np.abs(vec), np.eye(2))

    def test_pauli_x(self):
        lam, vec = spectrum((ID2 + SIGMA_X) / 2)
        assert np.allclose(lam, [1.0, 0.0])
        assert np.allclose(np.abs(vec), np.full((2, 2), 1 / np.sqrt(2)))

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for dim in range(2, 13):
            a = rand_density(rng, dim)
            lam, vec = spectrum(a)
            norm = np.linalg.norm(a)
            assert np.linalg.norm((vec * lam) @ vec.conj().T - a) <= 1e-10 * norm
            # eigenpair residuals and orthonormality
            for k in range(dim):
                res = a @ vec[:, k] - lam[k] * vec[:, k]
                assert np.linalg.norm(res) <= 1e-10 * norm
            gram = vec.conj().T @ vec
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(9)
        lam, _ = spectrum(rand_density(rng, 6))
        assert np.all(np.diff(lam) <= 0)
        # roundoff below zero is clipped; the block itself is kept as given
        block = np.diag([1.0, -1e-13])
        lam, _ = spectrum(block)
        assert np.array_equal(lam, [1.0, 0.0])
        assert branches((T,), (block,))[0].block(T)[1, 1] == -1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            branches((T,), (np.array([[0.5, 1.0], [0.0, 0.5]]),))


def test_swap_identity():
    # sigma.sigma = 2 S - 1 holds entrywise exactly
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    assert np.array_equal(SIGMA_DOT_SIGMA, 2 * swap - np.eye(4))


def test_paulis_are_involutions():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(sigma @ sigma, ID2)
        assert np.allclose(sigma, sigma.conj().T)


def test_unitary_helper_is_unitary():
    rng = np.random.default_rng(13)
    u = rand_unitary(rng)
    assert np.allclose(u @ u.conj().T, ID2, atol=1e-12)
