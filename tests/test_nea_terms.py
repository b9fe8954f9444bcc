"""The NEA term table, ``closedform._NEA_TERMS``, against ``nea_qfi``.

``optimize._nea_scan`` builds its grids from the table's terms, and
``optimize._nea_form`` the QFI's derivatives from its factors'
log-derivatives, so the table must give ``nea_qfi`` and every factor must
stay positive on the domain.
"""

import math

import numpy as np
import pytest

from scattertomo.closedform import _NEA_TERMS, _nea_factors, nea_qfi
from scattertomo.optimize import _nea_form
from scattertomo.scatter import DetectionMode

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


def from_terms(v, theta, omega, mode):
    """s(W) sum_terms prod_i x_i^e_i over the factors padded to seven with ones."""
    w = omega**2
    x = list(np.broadcast_arrays(*_nea_factors(v, theta, w, mode)))
    x += [np.ones_like(x[0])] * (7 - len(x))
    a, terms = _NEA_TERMS[mode]
    total = sum(np.prod([xi**ei for xi, ei in zip(x, e)], axis=0) for e in terms)
    return w / ((1.0 + w) * (1.0 + a * w)) * total


@pytest.mark.parametrize("mode", MODES)
def test_terms_give_nea_qfi(mode):
    rng = np.random.default_rng(2701)
    n = 5000
    v = np.concatenate([[0.0, 0.999, -0.999], rng.uniform(-0.999, 0.999, n - 3)])
    theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, n - 3)])
    omega = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    exact = nea_qfi(v, theta, omega, mode)
    assert np.max(np.abs(from_terms(v, theta, omega, mode) - exact) / exact) <= 1e-14


@pytest.mark.parametrize("mode", MODES)
def test_every_factor_is_positive(mode):
    # the form divides by every factor: its log-derivatives need them all positive
    rng = np.random.default_rng(2702)
    edge = 1.0 - 1e-7
    v = np.concatenate([[0.0, edge, -edge], rng.uniform(-edge, edge, 60)])
    theta = np.concatenate([np.linspace(0.0, math.pi, 61), rng.uniform(0.0, math.pi, 30)])
    w = np.geomspace(1e-8, 1e8, 81)
    for factor in _nea_factors(v[:, None, None], theta[:, None], w, mode):
        assert np.all(factor > 0.0)


def test_one_form_for_every_mode_reads_no_other_lane():
    # lanes of all three modes in one form give, bit for bit, what each mode's own form gives
    rng = np.random.default_rng(2703)
    n = 90
    v = rng.uniform(-0.99, 0.99, n)
    u_lo = rng.uniform(math.log(0.05), math.log(5.0), n)
    theta, u = rng.uniform(0.0, math.pi, n), u_lo + 0.5 * rng.uniform(size=n)
    groups = [(MODES[1], slice(0, 20)), (MODES[2], slice(20, 65)), (MODES[0], slice(65, n))]
    merged = _nea_form(v, groups)(theta, u)
    assert merged.shape == (6, n)
    for mode, at in groups:
        alone = _nea_form(v[at], mode)(theta[at], u[at])
        assert np.array_equal(merged[:, at], alone)
        exact = nea_qfi(v[at], theta[at], np.exp(u[at]), mode)
        assert np.max(np.abs(alone[0] - exact) / exact) <= 1e-12
