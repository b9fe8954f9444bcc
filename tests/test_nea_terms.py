"""The NEA term table, ``closedform._NEA_TERMS``, against a hand-written reference.

``nea_qfi`` evaluates the table's terms, ``optimize._nea_scan`` builds its grids
from them, and ``optimize._nea_form`` the QFI's derivatives from its factors'
log-derivatives. So the table must give each mode's QFI as written out by hand
below, every factor must stay positive on the domain, and the factors every
mode shares, (d_t, d_r, f_t, f_r) in slots 0 to 3, must be the same in every
mode, since one lane form evaluates lanes of all modes.
"""

import math

import numpy as np
import pytest

from scattertomo.closedform import _NEA_TERMS, _nea_coefficients, _nea_factors, nea_qfi
from scattertomo.optimize import _nea_form
from scattertomo.scatter import DetectionMode

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


def reference(v, theta, omega, mode):
    """Each mode's QFI combined from its factors by hand, g_r = f_t in both."""
    w = omega**2
    d_t, d_r, f_t, f_r, n, m = _nea_factors(v, theta, w, mode)
    if mode is DetectionMode.TRANSMISSION:
        return n * w / (d_t * (1.0 + w) * f_t * f_r)
    if mode is DetectionMode.REFLECTION:
        return n * w / (m * (1.0 + w) * d_r)
    num = f_r * d_t * n + d_r * f_t * m
    return num * w / (d_t * d_r * f_t * (1.0 + w) * (1.0 + 9.0 * w) * f_r)


def from_terms(v, theta, omega, mode):
    """s(W) sum_terms prod_i x_i^e_i over the six factors."""
    w = omega**2
    x = np.broadcast_arrays(*_nea_factors(v, theta, w, mode))
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
    exact = reference(v, theta, omega, mode)
    for qfi in (nea_qfi(v, theta, omega, mode), from_terms(v, theta, omega, mode)):
        assert np.max(np.abs(qfi - exact) / exact) <= 1e-14


@pytest.mark.parametrize("mode", MODES)
def test_every_factor_is_positive(mode):
    # the form divides by every factor: its log-derivatives need them all positive
    rng = np.random.default_rng(2702)
    edge = 1.0 - 1e-7
    v = np.concatenate([[0.0, edge, -edge, 0.999999, -0.999999],
                        np.linspace(-0.9999, 0.9999, 41), rng.uniform(-edge, edge, 60)])
    theta = np.concatenate([np.linspace(0.0, math.pi, 61), np.linspace(0.0, math.pi, 73),
                            rng.uniform(0.0, math.pi, 30)])
    w = np.concatenate([np.geomspace(1e-8, 1e8, 81), np.geomspace(1e-8, 1e8, 49)])
    factors = _nea_factors(v[:, None, None], theta[:, None], w, mode)
    assert len(factors) == 6
    for factor in factors:
        assert np.all(factor > 0.0)


def test_shared_slots_are_the_same_in_every_mode():
    # _nea_form writes d_t and d_r into slots 0 and 1, and reads the cosine
    # coefficients of f_t and f_r, for lanes of every mode alike
    rng = np.random.default_rng(2704)
    v = np.concatenate([[0.0, 0.999999, -0.999999], rng.uniform(-0.999999, 0.999999, 997)])
    theta = rng.uniform(0.0, math.pi, v.size)
    cosines = tuple(np.cos(k * theta) for k in (0, 1, 2, 3, 4))
    first = _nea_coefficients(v, cosines, MODES[0])[:4]
    for mode in MODES[1:]:
        for a, b in zip(first, _nea_coefficients(v, cosines, mode)[:4]):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


@pytest.mark.parametrize("mode", MODES)
def test_slots_2_to_5_are_affine_in_the_cosines(mode):
    # _nea_form reads each factor's cosine coefficients at the unit cosines: with
    # cos k theta_a (k = 0..4) they must sum to the factor read at those cosines
    rng = np.random.default_rng(2705)
    edge = 1.0 - 1e-7
    v = np.concatenate([[0.0, edge, -edge], rng.uniform(-edge, edge, 997)])
    theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, v.size - 3)])
    cosines = np.cos(np.outer(np.arange(5), theta))
    unit = _nea_coefficients(v, [c[:, None] for c in np.eye(5)], mode)[2:]
    for rows, poly in zip(unit, _nea_coefficients(v, tuple(cosines), mode)[2:]):
        assert len(rows) == len(poly)
        for row, c in zip(rows, poly):
            terms = np.broadcast_to(row, cosines.shape) * cosines
            assert np.all(np.abs(terms.sum(axis=0) - c) <= 1e-15 * np.abs(terms).sum(axis=0))


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
