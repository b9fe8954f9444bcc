"""Ultimate tomographic accuracy for a qubit probed by 1D scattering.

Quantum Fisher information matrices and Cramer-Rao bounds for reconstructing
an unknown target qubit from a probe qubit scattered off it, covering direct,
unentangled-probe (NEA) and entanglement-assisted (EA) strategies with
transmission / reflection / combined detection, plus optimization of the
probe momentum and orientation.
"""

from .closedform import (
    QfiPolarCoeffs,
    direct_cartesian,
    direct_qfi,
    ea_cartesian,
    ea_polar,
    nea_qfi,
    phase_bound,
    purity_bound,
)
from .optimize import (
    ConvergenceError,
    OptResult,
    ea_optimality_intervals,
    maximize_1d,
    maximize_ea,
    maximize_nea,
)
from .qfi import (
    QfiMatrix,
    cartesian_to_polar,
    cr_bound,
    polar_jacobian,
    qfi_numeric,
)
from .scatter import (
    BlockLabel,
    BranchDerivatives,
    BranchState,
    Channel,
    DetectionMode,
    ScatteringAmplitudes,
    amplitudes,
    apply_channel,
    channel_derivatives,
    direct_branches,
    s_matrices,
    scattering_channel,
)
from .states import (
    BlochVector,
    PolarCoords,
    ProbeConfig,
    bloch_to_density,
    bloch_to_polar,
    max_entangled,
    polar_to_bloch,
    probe_state,
    singlet,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "BlockLabel",
    "BranchDerivatives",
    "BranchState",
    "Channel",
    "ConvergenceError",
    "DetectionMode",
    "OptResult",
    "PolarCoords",
    "ProbeConfig",
    "QfiMatrix",
    "QfiPolarCoeffs",
    "ScatteringAmplitudes",
    "amplitudes",
    "apply_channel",
    "bloch_to_density",
    "bloch_to_polar",
    "cartesian_to_polar",
    "channel_derivatives",
    "cr_bound",
    "direct_branches",
    "direct_cartesian",
    "direct_qfi",
    "ea_cartesian",
    "ea_optimality_intervals",
    "ea_polar",
    "max_entangled",
    "maximize_1d",
    "maximize_ea",
    "maximize_nea",
    "nea_qfi",
    "phase_bound",
    "polar_jacobian",
    "polar_to_bloch",
    "probe_state",
    "purity_bound",
    "qfi_numeric",
    "s_matrices",
    "scattering_channel",
    "singlet",
]
