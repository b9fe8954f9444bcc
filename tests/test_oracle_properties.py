"""Property tests: the numerical oracle against the closed forms and invariants.

Targets, momenta and detection modes are drawn by hypothesis (derandomized,
so every run checks the same examples) over Omega in [0.05, 20] and |v| <= 0.99.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from scattertomo.closedform import direct_cartesian, ea_cartesian, nea_qfi  # noqa: E402
from scattertomo.qfi import qfi_numeric  # noqa: E402
from scattertomo.scatter import DetectionMode, encoding  # noqa: E402
from scattertomo.states import BlochVector  # noqa: E402

from conftest import relerr  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

omegas = hs.floats(math.log(0.05), math.log(20.0)).map(math.exp)
modes = hs.sampled_from(list(DetectionMode))
theta_as = hs.floats(0.0, math.pi)


@hs.composite
def targets(draw, r_max=0.99):
    """Bloch vector with |v| <= r_max and a direction away from the z axis."""
    direction = np.array(draw(hs.tuples(*[hs.floats(-1.0, 1.0)] * 3)))
    if np.linalg.norm(direction[:2]) < 1e-3:
        direction[0] = 1.0
    r = draw(hs.floats(0.0, r_max))
    return BlochVector.from_array(r * direction / np.linalg.norm(direction))


def oracle(strategy, v, omega, mode, theta_a=0.0):
    return qfi_numeric(*encoding(strategy, v, omega, mode, theta_a)).h


@PROPERTY
@given(targets(), omegas, modes)
def test_ea_matches_cartesian_closed_form(v, omega, mode):
    h = oracle("ea", v, omega, mode)
    assert relerr(h, ea_cartesian(v, omega, mode).h) <= 1e-8


@PROPERTY
@given(hs.floats(-0.99, 0.99), theta_as, omegas, modes)
def test_nea_on_axis_matches_closed_form(v_z, theta_a, omega, mode):
    h = oracle("nea", BlochVector(0.0, 0.0, v_z), omega, mode, theta_a)
    assert relerr(h[2, 2], nea_qfi(v_z, theta_a, omega, mode)) <= 1e-8


@PROPERTY
@given(targets(), theta_as, omegas, modes)
def test_nea_off_axis_is_bounded_by_direct_access(v, theta_a, omega, mode):
    h = oracle("nea", v, omega, mode, theta_a)
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.max(np.abs(h - h.T)) <= 1e-10 * scale
    assert np.linalg.eigvalsh(h).min() >= -1e-9 * scale
    gap = direct_cartesian(v).h - h
    assert np.linalg.eigvalsh(gap).min() >= -1e-9 * max(scale, float(np.max(np.abs(gap))))
