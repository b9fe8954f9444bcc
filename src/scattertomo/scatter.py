"""Channels on the target qubit, affine in its Bloch vector, and their output states.

Direct access is ``IDENTITY``; ``scattering_channel`` builds the Heisenberg-coupling
1D scattering channel, where the probe momentum enters only through the
dimensionless Omega = m*g/(hbar|k|). The output is a list of labeled positive
blocks on mutually orthogonal sectors (spin sectors plus no-click vacuum flags);
total trace is 1 and the Fisher information is additive over blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .states import ID2, PAULIS, BlochVector, ProbeConfig, as_cmatrix, probe_state

TRACE_TOL = 1e-12
PSD_TOL = -1e-12
HERM_TOL = 1e-12  # anti-Hermitian part allowed, relative to max(1, largest entry)

# sigma.sigma on target x probe: the Heisenberg coupling, twice the swap operator minus 1
SIGMA_DOT_SIGMA = sum(np.kron(s, s) for s in PAULIS)


class DetectionMode(Enum):
    """Which scattered signals the detectors keep."""

    TRANSMISSION = "t"
    REFLECTION = "r"
    BOTH = "both"


class BlockLabel(Enum):
    TRANSMITTED_SPIN = "transmitted_spin"
    REFLECTED_SPIN = "reflected_spin"
    VACUUM_RHS = "vacuum_rhs"  # nothing reached the right-hand detector
    VACUUM_LHS = "vacuum_lhs"  # nothing reached the left-hand detector


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Spin-dependent transmission/reflection amplitudes at momentum Omega."""

    omega: float
    alpha_t: complex
    beta_t: complex
    alpha_r: complex
    beta_r: complex


def amplitudes(omega: float) -> ScatteringAmplitudes:
    """Amplitudes alpha_t, beta_t, alpha_r, beta_r (= beta_t) at Omega > 0."""
    omega = float(omega)
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValueError(f"omega must be a positive finite number, got {omega}")
    den = (1.0 - 3.0j * omega) * (1.0 + 1.0j * omega)
    alpha_t = (1.0 - 2.0j * omega) / den
    beta_t = -1.0j * omega / den
    alpha_r = -3.0 * omega**2 / den
    return ScatteringAmplitudes(omega, alpha_t, beta_t, alpha_r, beta_t)


def s_matrices(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """4x4 transmission/reflection operators on target x probe.

    S = alpha + beta (sigma_X . sigma_A); together they satisfy
    St^ St + Sr^ Sr = 1 and St^ Sr + Sr^ St = 0.
    """
    a = amplitudes(omega)
    eye4 = np.eye(4, dtype=complex)
    s_t = a.alpha_t * eye4 + a.beta_t * SIGMA_DOT_SIGMA
    s_r = a.alpha_r * eye4 + a.beta_r * SIGMA_DOT_SIGMA
    return s_t, s_r


@dataclass(frozen=True)
class BranchState:
    """Post-scattering state as labeled positive blocks with total trace 1.

    Validation diagonalizes every block once and keeps the result:
    ``spectra[i]`` is (eigenvalues, descending and clipped at 0; matching
    eigenvectors as columns) of block i. Blocks and spectra are read-only
    copies, so a spectrum always belongs to its block.
    """

    blocks: tuple[tuple[BlockLabel, np.ndarray], ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False,
                                                               compare=False)

    def __post_init__(self):
        labels = [lab for lab, _ in self.blocks]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate block labels")
        blocks, spectra, total = [], [], 0.0
        for lab, op in self.blocks:
            op = as_cmatrix(op).copy()
            herm = 0.5 * (op + op.conj().T)
            skew = np.abs(op - herm).max()
            if skew > HERM_TOL and skew > HERM_TOL * np.abs(op).max():
                raise ValueError(f"block {lab} is not Hermitian")
            lam, vec = np.linalg.eigh(herm)
            if lam[0] < PSD_TOL:
                raise ValueError(f"block {lab} has negative eigenvalue {lam[0]:.3e}")
            total += op.trace().real
            spectrum = (lam[::-1].clip(0.0, None), vec[:, ::-1].copy())
            for a in (op, *spectrum):
                a.flags.writeable = False
            blocks.append((lab, op))
            spectra.append(spectrum)
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"block traces sum to {total}, expected 1")
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "spectra", tuple(spectra))

    @property
    def labels(self) -> tuple[BlockLabel, ...]:
        return tuple(lab for lab, _ in self.blocks)

    def block(self, label: BlockLabel) -> np.ndarray:
        for lab, op in self.blocks:
            if lab is label:
                return op
        raise KeyError(label)


@dataclass(frozen=True)
class BranchDerivatives:
    """Block derivatives aligned with a BranchState's labels.

    ``stacks[i]`` holds block i's derivatives with respect to v_x, v_y, v_z as
    one read-only complex (3, d, d) copy. Each block is Hermitian (to
    HERM_TOL, as in BranchState) and each axis's block traces sum to zero.
    """

    labels: tuple[BlockLabel, ...]
    stacks: tuple[np.ndarray, ...]

    def __post_init__(self):
        stacks = tuple(np.array(a, dtype=complex) for a in self.stacks)
        if any(a.ndim != 3 or len(a) != 3 for a in stacks):
            raise ValueError("expected derivative blocks for the three axes")
        if len(stacks) != len(self.labels):
            raise ValueError("derivative blocks misaligned with labels")
        for total in sum((a.trace(axis1=1, axis2=2).real for a in stacks), np.zeros(3)):
            if abs(total) > TRACE_TOL:
                raise ValueError(f"derivative traces sum to {total}, expected 0")
        for lab, a in zip(self.labels, stacks):
            # the anti-Hermitian part is half of a - a^dagger, and may reach
            # HERM_TOL * max(1, largest entry): the entries matter only above 1
            skew = np.abs(a - a.conj().swapaxes(1, 2)).max()
            if skew > 2.0 * HERM_TOL and skew > 2.0 * HERM_TOL * np.abs(a).max():
                raise ValueError(f"derivative block {lab} is not Hermitian")
            a.flags.writeable = False
        object.__setattr__(self, "stacks", stacks)


# I/2, sigma_x/2, sigma_y/2, sigma_z/2: the target inputs the block maps are built on
_BASIS = 0.5 * np.stack([ID2, *PAULIS])


class Channel:
    """A channel on the target qubit, held as the block maps of its output.

    ``maps[i]`` is the read-only (4, d, d) stack of output block i applied to
    B_k / 2, B = (I, sigma_x, sigma_y, sigma_z). The target rho(v) is
    sum_k c_k B_k / 2 with c = (1, v_x, v_y, v_z), so block i is
    sum_k c_k maps[i][k]. The derivative blocks are the symmetrized sigma maps;
    they do not depend on the target and are built once, read-only, with the channel.
    """

    def __init__(self, labels, maps):
        self.labels = tuple(labels)
        self.maps = tuple(np.array(m, dtype=complex) for m in maps)
        for m in self.maps:
            m.flags.writeable = False
        self.derivatives = BranchDerivatives(self.labels, tuple(
            0.5 * (m[1:] + np.conj(np.swapaxes(m[1:], 1, 2))) for m in self.maps))

    def state(self, v: BlochVector) -> BranchState:
        """Output blocks of the target with Bloch vector v."""
        return self._blocks(np.array([1.0, v.vx, v.vy, v.vz]))

    def _blocks(self, c: np.ndarray) -> BranchState:
        return BranchState(tuple((lab, np.einsum("k,kij->ij", c, m))
                                 for lab, m in zip(self.labels, self.maps)))


# direct access to the target: one block, the target state itself
IDENTITY = Channel((BlockLabel.TRANSMITTED_SPIN,), (_BASIS,))


def scattering_channel(rho_in, omega: float, mode: DetectionMode) -> Channel:
    """The scattering channel at one (probe input, Omega, mode)."""
    rho_in = as_cmatrix(rho_in)
    if rho_in.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"probe input must be 2x2 or 4x4, got {rho_in.shape}")
    d = rho_in.shape[0]
    s = np.stack(s_matrices(omega))  # transmitted, reflected
    if d == 4:  # entangled probe: scatter acts on X,A only; S x 1 for both S
        s = (s[:, :, None, :, None] * ID2[:, None, :]).reshape(2, 8, 8)
    # (B_k / 2) x rho_in for every k, scattered, then the target traced out
    full = np.einsum("kab,cd->kacbd", _BASIS, rho_in).reshape(4, 2 * d, 2 * d)
    out = s[:, None] @ full @ np.conj(np.swapaxes(s, 1, 2))[:, None]
    transmitted, reflected = np.einsum("skxixj->skij", out.reshape(2, 4, 2, d, 2, d))

    def lose_probe(block: np.ndarray) -> np.ndarray:
        # the particle missed this detector: trace out the probe spin, keeping
        # the ancilla marginal (EA) or just the no-click probability (NEA)
        return np.einsum("kaiaj->kij", block.reshape(4, 2, d // 2, 2, d // 2))

    if mode is DetectionMode.BOTH:
        return Channel((BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN),
                       (transmitted, reflected))
    if mode is DetectionMode.TRANSMISSION:
        return Channel((BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS),
                       (transmitted, lose_probe(reflected)))
    if mode is DetectionMode.REFLECTION:
        return Channel((BlockLabel.REFLECTED_SPIN, BlockLabel.VACUUM_LHS),
                       (reflected, lose_probe(transmitted)))
    raise ValueError(f"unknown detection mode {mode}")


@functools.lru_cache(maxsize=1)
def _probe_channel(probe: ProbeConfig, omega: float, mode: DetectionMode) -> Channel:
    # one entry: the calls that share a channel (a sweep over targets, and the
    # apply_channel / channel_derivatives pair of a point) come one after another
    return scattering_channel(probe_state(probe), omega, mode)


def apply_channel(rho_x: np.ndarray, probe: ProbeConfig, omega: float,
                  mode: DetectionMode) -> BranchState:
    """Post-scattering branch state of a Hermitian unit-trace 2x2 target state."""
    rho_x = as_cmatrix(rho_x)
    if rho_x.shape != (2, 2):
        raise ValueError("target state must be 2x2")
    if np.abs(rho_x - rho_x.conj().T).max() > 1e-10 or abs(rho_x.trace() - 1.0) > 1e-10:
        raise ValueError("target state must be Hermitian with unit trace")
    # c = (1, Re Tr(rho_x sigma_j)) of the Hermitian part: a skew the check above
    # allows must not reach the blocks, whose Hermitian test is tighter
    c = 2.0 * np.einsum("ab,kba->k", rho_x, _BASIS).real
    c[0] = 1.0
    return _probe_channel(probe, float(omega), mode)._blocks(c)


def channel_derivatives(probe: ProbeConfig, omega: float,
                        mode: DetectionMode) -> BranchDerivatives:
    """Block derivatives for the configured probe strategy (v-independent, read-only)."""
    return _probe_channel(probe, float(omega), mode).derivatives


def direct_branches(v: BlochVector) -> tuple[BranchState, BranchDerivatives]:
    """Identity-channel encoding for direct (not probe-mediated) estimation."""
    return IDENTITY.state(v), IDENTITY.derivatives


STRATEGIES = ("direct", "nea", "ea")  # target access; unentangled probe; singlet probe


def encoding(strategy: str, v: BlochVector, omega: float, mode: DetectionMode,
             theta_a: float) -> tuple[BranchState, BranchDerivatives]:
    """Branch state and derivatives of target v; direct ignores omega and mode, EA theta_a."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    channel = IDENTITY if strategy == "direct" else _probe_channel(
        ProbeConfig(entangled=True) if strategy == "ea" else ProbeConfig(theta_a=theta_a),
        float(omega), mode)
    return channel.state(v), channel.derivatives
