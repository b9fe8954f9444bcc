import math

import numpy as np
import pytest

from scattertomo.states import (
    ID2,
    NORM_TOL,
    SIGMA_X,
    BlochVector,
    PolarCoords,
    ProbeConfig,
    as_cmatrix,
    bloch_to_density,
    bloch_to_polar,
    max_entangled,
    polar_to_bloch,
    probe_state,
    singlet,
)

from conftest import marginals, rand_bloch, rand_unitary


class TestBlochToDensity:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_density(BlochVector(0, 0, 0)), ID2 / 2)

    def test_pure_pole(self):
        assert np.allclose(bloch_to_density(BlochVector(0, 0, 1)), np.diag([1.0, 0.0]))

    def test_half_x(self):
        rho = bloch_to_density(BlochVector(0.5, 0, 0))
        assert np.allclose(rho, [[0.5, 0.25], [0.25, 0.5]])

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("v", [(1e200, 0.0, 0.0), (0.0, -1e155, 0.0), (0.0, 0.0, 1e155),
                                   (1.0 + 2e-12, 0.0, 0.0)])
    def test_refuses_a_component_above_one_before_the_norm(self, v):
        # squaring 1e155 overflows a Python float: the component check comes first
        with pytest.raises(ValueError, match="Bloch component .* exceeds 1 in magnitude"):
            BlochVector(*v)

    def test_keeps_a_component_within_norm_tol_of_one(self):
        v = BlochVector(0.0, -(1.0 + 0.5e-12), 0.0)
        assert 1.0 < v.norm <= 1.0 + NORM_TOL
        with pytest.raises(ValueError, match="Bloch vector norm .* exceeds 1"):
            BlochVector(0.8, 0.8, 0.0)

    def test_density_properties_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = BlochVector.from_array(rand_bloch(rng, r_max=1.0))
            rho = bloch_to_density(v)
            assert np.allclose(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
            # purity: Tr rho^2 - 1/2 = r^2 / 2
            purity = float(np.trace(rho @ rho).real)
            assert abs(purity - 0.5 - v.norm**2 / 2) < 1e-12


class TestPolarConversions:
    def test_equator(self):
        v = polar_to_bloch(PolarCoords(1.0, math.pi / 2, 0.0))
        assert np.allclose(v.as_array(), [1, 0, 0], atol=1e-15)

    def test_origin(self):
        v = polar_to_bloch(PolarCoords(0.0, 1.2, 2.3))
        assert v.as_array().tolist() == [0.0, 0.0, 0.0]

    def test_explicit_point(self):
        v = polar_to_bloch(PolarCoords(0.5, math.pi / 3, math.pi / 2))
        assert np.allclose(v.as_array(), [0.0, math.sqrt(3) / 4, 0.25], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.99, r_min=0.05))
            back = polar_to_bloch(bloch_to_polar(v))
            assert np.allclose(back.as_array(), v.as_array(), atol=1e-12)

    def test_pole_conventions(self):
        p = bloch_to_polar(BlochVector(0.0, 0.0, 0.7))
        assert p.phi == 0.0
        p0 = bloch_to_polar(BlochVector(0.0, 0.0, 0.0))
        assert (p0.r, p0.theta, p0.phi) == (0.0, 0.0, 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PolarCoords(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolarCoords(0.5, 4.0, 0.0)
        with pytest.raises(ValueError):
            PolarCoords(0.5, 0.5, 7.0)


class TestSinglet:
    def test_trace_one_pure(self):
        s = singlet()
        assert abs(np.trace(s) - 1.0) < 1e-15
        assert np.allclose(s @ s, s)

    def test_maximally_entangled_marginals(self):
        s = singlet()
        for marginal in marginals(s):
            assert np.allclose(marginal, ID2 / 2)

    def test_uu_invariance(self):
        # (U x U)|psi-> = det(U)|psi->, so the projector is invariant
        rng = np.random.default_rng(17)
        s = singlet()
        for _ in range(10):
            u = rand_unitary(rng)
            uu = np.kron(u, u)
            assert np.allclose(uu @ s @ uu.conj().T, s, atol=1e-12)


class TestMaxEntangled:
    def test_identity_gives_singlet(self):
        assert np.allclose(max_entangled(ID2, ID2), singlet())

    def test_sigma_x_left(self):
        psi = np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        expected = np.outer(psi, psi.conj())
        assert np.allclose(max_entangled(SIGMA_X, ID2), expected)

    def test_random_marginals(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = max_entangled(rand_unitary(rng), rand_unitary(rng))
            assert abs(np.trace(rho) - 1.0) < 1e-12
            for marginal in marginals(rho):
                assert np.allclose(marginal, ID2 / 2, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            max_entangled(np.array([[1.0, 1.0], [0.0, 1.0]]), ID2)


class TestProbeState:
    def test_pole(self):
        assert np.allclose(probe_state(ProbeConfig(theta_a=0.0)), np.diag([1.0, 0.0]))

    def test_equator(self):
        rho = probe_state(ProbeConfig(theta_a=math.pi / 2))
        assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]])

    def test_entangled(self):
        assert np.allclose(probe_state(ProbeConfig(entangled=True)), singlet())

    def test_nea_probe_is_pure(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            rho = probe_state(ProbeConfig(theta_a=rng.uniform(0, math.pi)))
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_theta_a_range(self):
        with pytest.raises(ValueError):
            ProbeConfig(theta_a=-0.1)


class TestAsCmatrix:
    @pytest.mark.parametrize("bad", [complex(0, math.inf), complex(0, -math.inf),
                                     complex(0, math.nan), complex(math.nan, 0),
                                     complex(math.inf, 0)])
    def test_rejects_a_nonfinite_part(self, bad):
        # either part alone, the imaginary one included, makes an entry non-finite
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            as_cmatrix([[0.5, bad], [0.0, 0.5]])

    def test_keeps_finite_entries(self):
        m = [[0.5, 1e308 + 1e308j], [-1e-308j, 0.5]]
        assert np.array_equal(as_cmatrix(m), np.array(m, dtype=complex))
