"""The single-point path's S matrices and probe inputs, pinned to their defining expressions."""

import math

import numpy as np
import pytest

from scattertomo import scatter
from scattertomo.scatter import (OMEGA_MAX, SIGMA_DOT_SIGMA, DetectionMode, amplitudes,
                                 s_matrices, scattering_channel)
from scattertomo.states import (NORM_TOL, BlochVector, ProbeConfig, bloch_to_density,
                                probe_state, singlet)

from conftest import log_uniform

MODES = tuple(DetectionMode)


def test_s_matrices_are_alpha_plus_beta_sigma_dot_sigma_bit_for_bit():
    rng = np.random.default_rng(2801)
    omegas = [1e-9, 1.0, OMEGA_MAX] + [log_uniform(rng, 1e-9, OMEGA_MAX) for _ in range(500)]
    for omega in omegas:
        a = amplitudes(omega)
        eye4 = np.eye(4, dtype=complex)
        want = (a.alpha_t * eye4 + a.beta_t * SIGMA_DOT_SIGMA,
                a.alpha_r * eye4 + a.beta_r * SIGMA_DOT_SIGMA)
        pair = s_matrices(omega)
        assert pair.shape == (2, 4, 4) and pair.dtype == complex
        s_t, s_r = pair
        assert s_t.tobytes() == want[0].tobytes() and s_r.tobytes() == want[1].tobytes()


def test_nea_probe_state_is_bloch_to_density_bit_for_bit():
    rng = np.random.default_rng(2802)
    thetas = [0.0, -0.0, math.pi / 2, math.pi, math.pi + NORM_TOL / 2]
    thetas += rng.uniform(0.0, math.pi, 500).tolist()
    for theta_a in thetas:
        want = bloch_to_density(BlochVector(math.sin(theta_a), 0.0, math.cos(theta_a)))
        got = probe_state(ProbeConfig(theta_a=theta_a))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_ea_probe_state_is_one_shared_read_only_singlet():
    rho = probe_state(ProbeConfig(entangled=True))
    assert rho.tobytes() == singlet().tobytes()
    assert probe_state(ProbeConfig(theta_a=1.0, entangled=True)) is rho
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0
    assert rho.tobytes() == singlet().tobytes()


def test_public_and_cached_channels_have_the_same_maps():
    # apply_channel's cached channel skips the probe-input check, not any arithmetic
    rng = np.random.default_rng(2803)
    for i in range(30):
        probe = ProbeConfig(theta_a=float(rng.uniform(0.0, math.pi)), entangled=i % 2 == 0)
        omega, mode = log_uniform(rng, 1e-3, 1e3), MODES[i % 3]
        scatter._probe_channel.cache_clear()
        cached = scatter._probe_channel(probe, omega, mode)
        public = scattering_channel(probe_state(probe), omega, mode)
        assert cached.labels == public.labels
        for a, b in zip(cached.maps, public.maps):
            assert a.tobytes() == b.tobytes()
