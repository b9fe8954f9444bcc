"""Inputs the searches and the channel refuse with a ValueError, not a silent answer."""

import math

import numpy as np
import pytest

from scattertomo.optimize import ea_optimality_intervals, maximize_1d, maximize_ea, maximize_nea
from scattertomo.scatter import BlockLabel, Channel, DetectionMode

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
