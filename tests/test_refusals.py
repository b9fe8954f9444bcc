"""Inputs the searches and the channel refuse with a ValueError, not a silent answer."""

import math

import numpy as np
import pytest

from scattertomo.closedform import ea_cartesian, nea_qfi
from scattertomo.optimize import ea_optimality_intervals, maximize_1d, maximize_ea, maximize_nea
from scattertomo.scatter import OMEGA_MAX, BlockLabel, Channel, DetectionMode, scattering_channel
from scattertomo.states import (BlochVector, ProbeConfig, bloch_to_density, is_density_matrix,
                                max_entangled, probe_state, singlet)

from conftest import rand_unitary

SEARCHES = {
    "maximize_1d": lambda tol: maximize_1d(lambda x: -(x - 1.234)**2, (0.0, 3.0), tol),
    "maximize_nea": lambda tol: maximize_nea(0.3, DetectionMode.BOTH, tol),
    "maximize_ea": lambda tol: maximize_ea(0.3, DetectionMode.BOTH, tol),
    "ea_optimality_intervals": lambda tol: ea_optimality_intervals(DetectionMode.BOTH, tol),
}


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize("search", SEARCHES)
def test_tolerance_must_be_positive_and_finite(search, tol):
    # an infinite tol once stopped at once, "converged" at an unrefined point, and a
    # NaN or negative one ran every lane to MAX_ITER
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        SEARCHES[search](tol)


def test_a_map_too_large_for_its_hermitian_part():
    # diag(1e308, 0) is finite and Hermitian, but 0.5 (M + M^dagger) overflows
    m = np.zeros((4, 2, 2))
    m[0] = np.diag([1e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="block map BlockLabel.TRANSMITTED_SPIN has "
                                             "entries too large"):
            Channel((BlockLabel.TRANSMITTED_SPIN,), (m,))
    # one decade lower the sum is finite: the map is kept as it is
    m[0] = np.diag([1e307, 0.0])
    channel = Channel((BlockLabel.TRANSMITTED_SPIN,), (m,))
    assert np.array_equal(channel.maps[0], m)


def _werner(p):
    # (1 - p) I/4 + p |singlet><singlet|: Hermitian with unit trace for every p, and a
    # state only for -1/3 <= p <= 1
    return (1.0 - p) * np.eye(4) / 4 + p * singlet()


NOT_STATES = {
    "diag(1.01, -0.01)": np.diag([1.01, -0.01]),
    "diag(1 + 2e-10, -2e-10)": np.diag([1.0 + 2e-10, -2e-10]),
    "positive diagonal, eigenvalue -0.1": np.array([[0.5, 0.6], [0.6, 0.5]]),
    "2 singlet": 2.0 * singlet(),
    "zero 2x2": np.zeros((2, 2)),
    "zero 4x4": np.zeros((4, 4)),
    "non-Hermitian 4x4": singlet() + np.triu(np.full((4, 4), 1e-6), 1),
    "Werner p = 1.5": _werner(1.5),
    "Werner p = -0.4": _werner(-0.4),
}


@pytest.mark.parametrize("name", NOT_STATES)
def test_probe_input_must_be_a_density_matrix(name):
    # before, a finite non-state gave a channel (diag(1.01, -0.01) a QFI for every
    # target) or failed per target with "block traces sum to 2.0"
    with pytest.raises(ValueError, match="probe input must be a density matrix"):
        scattering_channel(NOT_STATES[name], 0.8, DetectionMode.BOTH)


def test_density_matrix_probe_inputs_are_accepted():
    rng = np.random.default_rng(2811)
    tau = bloch_to_density(BlochVector(0.3, -0.2, 0.5))
    inputs = [singlet(), _werner(1.0), _werner(-1.0 / 3.0), np.diag([1.0 + 5e-11, -5e-11]), tau]
    for _ in range(20):
        inputs.append(max_entangled(rand_unitary(rng), rand_unitary(rng)))
        probe = ProbeConfig(theta_a=float(rng.uniform(0.0, math.pi)))
        inputs += [probe_state(probe), np.kron(probe_state(probe), tau)]
    inputs += [probe_state(ProbeConfig(theta_a=t)) for t in (0.0, math.pi, math.pi + 5e-13)]
    for rho_in in inputs:
        for mode in DetectionMode:
            assert scattering_channel(rho_in, 0.8, mode).labels


def test_density_matrix_test_agrees_with_the_spectrum():
    # the LDL^H pivots decide "no eigenvalue below -1e-10" as eigvalsh does, away
    # from the boundary
    rng = np.random.default_rng(2812)
    for n in (2, 4):
        for _ in range(400):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            lam, vec = np.linalg.eigh(z + z.conj().T)
            lam = rng.uniform(-0.3, 1.0, n)
            lam /= lam.sum()
            rho = (vec * lam) @ vec.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            least = np.linalg.eigvalsh(rho).min()
            if abs(least + 1e-10) > 1e-12:
                assert is_density_matrix(rho) == (least >= -1e-10)


BAD_VZ = (1.0, -1.0, 1.5, math.nan)
BAD_THETA = (math.nan, math.inf, -math.inf)
BAD_OMEGA = (0.0, -1.0, math.nan, math.inf, 2 * OMEGA_MAX)


def _message(call, *args):
    with pytest.raises(ValueError) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("mode", DetectionMode)
def test_scalar_and_array_closed_forms_refuse_alike(mode):
    good = (0.3, 0.7, 0.6)
    for slot, bad_values in enumerate((BAD_VZ, BAD_THETA, BAD_OMEGA)):
        for bad in bad_values:
            args = list(good)
            args[slot] = bad
            as_float = _message(nea_qfi, *args, mode)
            for wrap in (np.float64, np.array, lambda x: np.array([x])):
                wrapped = list(args)
                wrapped[slot] = wrap(bad)
                assert _message(nea_qfi, *wrapped, mode) == as_float
    v = BlochVector(0.1, -0.2, 0.3)
    for bad in BAD_OMEGA:
        as_float = _message(ea_cartesian, v, bad, mode)
        assert as_float == _message(ea_cartesian, v, np.float64(bad), mode)
        assert as_float == _message(ea_cartesian, v, np.array(bad), mode)
        assert as_float == _message(nea_qfi, 0.3, 0.7, bad, mode)


@pytest.mark.parametrize("mode", [DetectionMode.BOTH, DetectionMode.TRANSMISSION])
def test_a_nan_in_the_second_block_is_named(mode):
    # both mode stacks two maps of one size; t mode pads the smaller vacuum map
    channel = scattering_channel(singlet(), 0.8, mode)
    maps = [np.array(m) for m in channel.maps]
    assert (len({m.shape for m in maps}) == 1) == (mode is DetectionMode.BOTH)
    maps[1][3, 0, 0] = math.nan
    with pytest.raises(ValueError, match=f"block map {channel.labels[1]} has a non-finite"):
        Channel(channel.labels, maps)
