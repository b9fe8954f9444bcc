"""Channels on the target qubit, affine in its Bloch vector, and their output states.

Direct access is ``IDENTITY``; ``scattering_channel`` builds the Heisenberg-coupling
1D scattering channel at Omega = m*g/(hbar|k|) as one matmul of the products a_P conj(a_Q)
of its amplitudes times the probe input's entries against a read-only table made at
import, within two ulps of the np.kron definition. Its labeled positive blocks lie on
orthogonal sectors (spin, no-click vacuum): trace 1, Fisher information additive over them.

Block arrays enter only through ``Channel(labels, maps)``, which checks them and pads
their Hermitian parts once; a ``BranchState`` (one target) and the ``BranchDerivatives``
are built from its padded stack as it is. ``apply_channel`` refuses a target that is not
a density matrix by ``is_density_matrix``'s rule, naming the target, and takes one that
rule accepts outside the Bloch ball as its nearest state.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import (DENSITY_TOL, ID2, PAULIS, BlochVector, ProbeConfig, as_cmatrix,
                     is_density_matrix, probe_state)

TRACE_TOL = 1e-12
PSD_TOL = -1e-12
HERM_TOL = 1e-12  # anti-Hermitian part allowed, relative to max(1, largest entry)
# largest Omega accepted anywhere: the closed forms' degree-6 denominators in Omega^2
# overflow near Omega = 3e25, and their values underflow to 0 from about 1e30
OMEGA_MAX = 1e20
OMEGA_DOMAIN = f"omega must be positive and finite, at most OMEGA_MAX = {OMEGA_MAX:g}"

# sigma.sigma on target x probe: the Heisenberg coupling, twice the swap operator minus 1
SIGMA_DOT_SIGMA = sum(np.kron(s, s) for s in PAULIS)
_EYE4 = np.eye(4, dtype=complex)


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
    """Amplitudes alpha_t, beta_t, alpha_r, beta_r (= beta_t) at 0 < Omega <= OMEGA_MAX."""
    omega = float(omega)
    if not 0.0 < omega <= OMEGA_MAX:  # NaN fails both
        raise ValueError(f"{OMEGA_DOMAIN}, got {omega}")
    den = (1.0 - 3.0j * omega) * (1.0 + 1.0j * omega)
    alpha_t = (1.0 - 2.0j * omega) / den
    beta_t = -1.0j * omega / den
    alpha_r = -3.0 * omega**2 / den
    return ScatteringAmplitudes(omega, alpha_t, beta_t, alpha_r, beta_t)


def s_matrices(omega: float) -> np.ndarray:
    """The (2, 4, 4) transmission/reflection operators S_t, S_r on target x probe.

    S = alpha + beta (sigma_X . sigma_A), both by one broadcast; the pair unpacks
    as ``s_t, s_r``. Together they satisfy St^ St + Sr^ Sr = 1 and
    St^ Sr + Sr^ St = 0.
    """
    a = amplitudes(omega)
    return (np.array([a.alpha_t, a.alpha_r])[:, None, None] * _EYE4
            + np.array([a.beta_t, a.beta_r])[:, None, None] * SIGMA_DOT_SIGMA)


def _pad(maps: list[np.ndarray]) -> tuple[np.ndarray, tuple[int, ...]]:
    """(4, d_i, d_i) block maps as one complex (n, 4, d, d) copy, d the largest d_i.

    Returns the stack and the sizes d_i. Maps of one size are stacked as they
    are; smaller ones are zero-padded.
    """
    sizes = tuple(m.shape[-1] for m in maps)
    if len(set(sizes)) == 1:
        return np.array(maps, dtype=complex), sizes
    d = max(sizes, default=0)
    stack = np.zeros((len(maps), 4, d, d), dtype=complex)
    for out, m, size in zip(stack, maps, sizes):
        out[:, :size, :size] = m
    return stack, sizes


class BranchState:
    """Post-scattering state of one target: a channel's labeled positive blocks, trace 1.

    The blocks are sum_k c_k maps[i][k] with c = (1, v_x, v_y, v_z), one
    (n, d, d) stack made by one einsum over the channel's padded map stack, d
    the largest block size; the maps are Hermitian bit for bit, so the stack
    is too. Validation checks it is finite, diagonalizes it with one ``eigh``
    (naming the block of every refusal) and checks c against the channel's
    trace sums. ``spectra`` is the pair (lam (n, d), vec (n, d, d)): lam[i]
    holds block i's eigenvalues, descending and clipped at 0, and vec[i] the
    matching eigenvectors as columns; a block of size d_i < d has d - d_i more
    zero eigenvalues, whose eigenvectors span its null space and its padding.
    ``blocks`` gives each block as a read-only (d_i, d_i) view of the stack.
    """

    def __init__(self, channel: Channel, c: np.ndarray):
        # einsum, not c @ the flattened stack: the same sums, bit for bit, as one
        # einsum("k,kij->ij") per block
        stack = np.einsum("k,bkij->bij", c, channel._stack)
        self.labels, self.sizes = channel.labels, channel.sizes
        if not np.isfinite(stack).all():  # complex: both parts
            raise ValueError("matrix entries must be finite")
        lam, vec = np.linalg.eigh(stack)  # ascending
        # each block's least eigenvalue; a stack of 0x0 blocks has none
        if lam.size and min(least := lam[:, 0].tolist()) < PSD_TOL:
            i = least.index(min(least))
            raise ValueError(f"block {self.labels[i]} has negative eigenvalue {least[i]:.3e}")
        total = float(c @ channel._traces)
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"block traces sum to {total}, expected 1")
        self.spectra = (np.maximum(lam[:, ::-1], 0.0), vec[:, :, ::-1].copy())
        for a in (stack, *self.spectra):
            a.flags.writeable = False
        self._stack = stack

    @property
    def blocks(self) -> tuple[tuple[BlockLabel, np.ndarray], ...]:
        return tuple((lab, op[:size, :size])
                     for lab, op, size in zip(self.labels, self._stack, self.sizes))

    def block(self, label: BlockLabel) -> np.ndarray:
        return dict(self.blocks)[label]


class BranchDerivatives:
    """Block derivatives of a channel's states, aligned with its labels.

    ``padded`` holds every block's derivatives with respect to v_x, v_y, v_z:
    the (n, 3, d, d) sigma maps of the channel's padded stack, a read-only
    view, Hermitian bit for bit, whose block traces sum to zero on each axis.
    ``stacks[i]`` is block i's (3, d_i, d_i) view of it, made when read.
    """

    def __init__(self, channel: Channel):
        self.padded = channel._stack[:, 1:]
        self.labels, self.sizes = channel.labels, channel.sizes

    @property
    def stacks(self) -> tuple[np.ndarray, ...]:
        return tuple(a[:, :size, :size] for a, size in zip(self.padded, self.sizes))


# I/2, sigma_x/2, sigma_y/2, sigma_z/2: the target inputs the block maps are built on
_BASIS = 0.5 * np.stack([ID2, *PAULIS])


class Channel:
    """A channel on the target qubit, held as the block maps of its output.

    ``maps[i]`` is the read-only (4, d_i, d_i) stack of output block i applied
    to B_k / 2, B = (I, sigma_x, sigma_y, sigma_z). The target rho(v) is
    sum_k c_k B_k / 2 with c = (1, v_x, v_y, v_z), so block i is
    sum_k c_k maps[i][k]. The constructor is the one entry for block arrays:
    it checks the maps once (one (4, d_i, d_i) map per label, distinct labels,
    finite and Hermitian entries, each axis's derivative traces summing to
    zero) and keeps their Hermitian parts 0.5 (M + M^dagger) in one
    zero-padded (n, 4, d, d) stack, d the largest block size, of which the
    maps and the derivatives are views. A ``BranchState`` is one einsum over it.
    """

    def __init__(self, labels, maps):
        self.labels = tuple(labels)
        maps = [np.asarray(m) for m in maps]
        for m in maps:
            if m.ndim != 3 or len(m) != 4 or m.shape[1] != m.shape[2]:
                raise ValueError(f"a block map is a (4, d, d) stack, the outputs of I/2 and "
                                 f"of the three axes' sigma/2, got shape {m.shape}")
        if len(maps) != len(self.labels):
            raise ValueError(f"{len(maps)} block maps misaligned with labels {self.labels}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate block labels {self.labels}")
        stack, self.sizes = _pad(maps)
        if not np.isfinite(stack).all():  # complex: both parts
            finite = np.isfinite(stack).all(axis=(1, 2, 3))
            raise ValueError(f"block map {self.labels[finite.argmin()]} has a non-finite entry")
        self._stack = 0.5 * (stack + stack.conj().swapaxes(2, 3))
        # a block's anti-Hermitian part may reach HERM_TOL * max(1, its largest entry);
        # the padding is zero, so it changes no block's maxima
        skew = np.abs(stack - self._stack)
        if skew.max(initial=0.0) > HERM_TOL:  # else no block can fail: the common case
            # near the largest float, M + M^dagger overflows and the skew reads inf
            huge = ~np.isfinite(self._stack).all(axis=(1, 2, 3))
            if huge.any():
                raise ValueError(f"block map {self.labels[huge.argmax()]} has entries too "
                                 f"large for its Hermitian part 0.5 (M + M^dagger)")
            worst = skew.max(axis=(1, 2, 3))
            bad = (worst > HERM_TOL) & (worst > HERM_TOL * np.abs(stack).max(axis=(1, 2, 3)))
            if bad.any():
                raise ValueError(f"block {self.labels[bad.argmax()]} is not Hermitian")
        # sum_i Tr maps[i][k]: a state's trace sum is c against these
        self._traces = self._stack.trace(axis1=2, axis2=3).real.sum(axis=0)
        for total in self._traces[1:].tolist():
            if abs(total) > TRACE_TOL:
                raise ValueError(f"derivative traces sum to {total}, expected 0")
        self._stack.flags.writeable = False
        self.derivatives = BranchDerivatives(self)

    @property
    def maps(self) -> tuple[np.ndarray, ...]:
        return tuple(m[:, :size, :size] for m, size in zip(self._stack, self.sizes))

    def state(self, v: BlochVector) -> BranchState:
        """Output blocks of the target with Bloch vector v."""
        return BranchState(self, np.array([1.0, v.vx, v.vy, v.vz]))


# direct access to the target: one block, the target state itself
IDENTITY = Channel((BlockLabel.TRANSMITTED_SPIN,), (_BASIS,))

_LABELS = {DetectionMode.BOTH: (BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN),
           DetectionMode.TRANSMISSION: (BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS),
           DetectionMode.REFLECTION: (BlockLabel.REFLECTED_SPIN, BlockLabel.VACUUM_LHS)}


def _block_tables(d: int) -> dict[DetectionMode, np.ndarray]:
    """Each mode's read-only (8 d^2, m) table from a_P conj(a_Q) rho_in[n] to its maps.

    Row (s, P, Q, n) holds the maps of P (B_k/2 x E_n) Q^dagger, P and Q in {1, sigma.sigma}
    (x 1 on the ancilla for d = 4) and E_n the n-th unit matrix of rho_in.ravel(), the target
    traced out (the probe too for a vacuum block), in the flattened columns of branch s's blocks.
    """
    ops = np.kron(np.stack([_EYE4, SIGMA_DOT_SIGMA]), np.eye(d // 2))
    inputs = np.kron(_BASIS[:, None], np.eye(d * d).reshape(-1, d, d))  # B_k/2 x E_n
    out = ops[:, None, None, None] @ inputs @ ops.conj().swapaxes(1, 2)[None, :, None, None]
    spin = np.einsum("pqknxixj->pqnkij", out.reshape(2, 2, 4, d * d, 2, d, 2, d))
    lost = np.einsum("pqnkaiaj->pqnkij", spin.reshape(2, 2, d * d, 4, 2, d // 2, 2, d // 2))
    t, r, t_lost, r_lost = (np.multiply.outer(np.eye(2)[s], m).reshape(8 * d * d, -1)
                            for m in (spin, lost) for s in (0, 1))
    columns = {BlockLabel.TRANSMITTED_SPIN: t, BlockLabel.REFLECTED_SPIN: r,
               BlockLabel.VACUUM_RHS: r_lost, BlockLabel.VACUUM_LHS: t_lost}
    tables = {mode: np.hstack([columns[b] for b in blocks]) for mode, blocks in _LABELS.items()}
    for table in tables.values():
        table.flags.writeable = False
    return tables


_TABLES = {d: _block_tables(d) for d in (2, 4)}


def scattering_channel(rho_in, omega: float, mode: DetectionMode) -> Channel:
    """The scattering channel at one (probe input, Omega, mode).

    The probe input must be a density matrix: 2x2 on the probe (NEA) or 4x4 on
    probe x ancilla (EA), finite, Hermitian with unit trace to 1e-10 (the rule
    ``apply_channel`` applies to the target) and with no eigenvalue below
    -1e-10 (``DENSITY_TOL``). Anything else is refused here, naming the input.
    """
    rho_in = as_cmatrix(rho_in)
    if rho_in.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"probe input must be 2x2 or 4x4, got {rho_in.shape}")
    if not is_density_matrix(rho_in):
        raise ValueError(f"probe input must be a density matrix: Hermitian with unit trace "
                         f"to {DENSITY_TOL:g} and no eigenvalue below {-DENSITY_TOL:g}")
    if not isinstance(mode, DetectionMode):
        raise ValueError(f"unknown detection mode {mode}")
    return _scattering_channel(rho_in, omega, mode)


def _scattering_channel(rho_in: np.ndarray, omega: float, mode: DetectionMode) -> Channel:
    """``scattering_channel`` of a complex 2x2 or 4x4 density matrix and a mode, unchecked."""
    a = amplitudes(omega)
    # a_P conj(a_Q) for S = a_0 1 + a_1 sigma.sigma, transmitted then reflected
    w = [x * y.conjugate() for s in ((a.alpha_t, a.beta_t), (a.alpha_r, a.beta_r))
         for x in s for y in s]
    d = rho_in.shape[0]
    maps = np.outer(w, rho_in).ravel() @ _TABLES[d][mode]
    n, e = 4 * d * d, d if mode is DetectionMode.BOTH else d // 2  # the first block: spin
    return Channel(_LABELS[mode], (maps[:n].reshape(4, d, d), maps[n:].reshape(4, e, e)))


@functools.lru_cache(maxsize=1)
def _probe_channel(probe: ProbeConfig, omega: float, mode: DetectionMode) -> Channel:
    # one entry: the calls that share a channel (a sweep over targets, and the
    # apply_channel / channel_derivatives pair of a point) come one after another
    return _scattering_channel(probe_state(probe), omega, mode)


def _channel(probe: ProbeConfig, omega: float, mode: DetectionMode) -> Channel:
    """The cached channel of a probe, refusing a mode that is no DetectionMode before
    the cache hashes it."""
    if not isinstance(mode, DetectionMode):
        raise ValueError(f"unknown detection mode {mode}")
    return _probe_channel(probe, float(omega), mode)


def apply_channel(rho_x: np.ndarray, probe: ProbeConfig, omega: float,
                  mode: DetectionMode) -> BranchState:
    """Post-scattering branch state of a 2x2 target density matrix (``is_density_matrix``).

    That rule passes a Bloch vector up to 2e-10 beyond the unit ball, where
    the output blocks could dip below PSD_TOL; such a v is taken as v/|v|.
    """
    rho_x = np.asarray(rho_x, dtype=complex)
    if rho_x.shape != (2, 2):
        as_cmatrix(rho_x)  # a non-matrix or a non-finite entry is named first
        raise ValueError("target state must be 2x2")
    (r00, r01), (r10, r11) = rho_x.tolist()
    if not (cmath.isfinite(r00) and cmath.isfinite(r01) and cmath.isfinite(r10)
            and cmath.isfinite(r11)):  # both parts
        raise ValueError("matrix entries must be finite")
    if (max(abs(r00 - r00.conjugate()), abs(r01 - r10.conjugate()),
            abs(r11 - r11.conjugate())) > DENSITY_TOL or abs(r00 + r11 - 1.0) > DENSITY_TOL):
        raise ValueError("target state must be Hermitian with unit trace")
    # is_density_matrix's LDL^H pivots of the Hermitian part + DENSITY_TOL I, for n = 2
    pivot, h10 = r00.real + DENSITY_TOL, 0.5 * (r10 + r01.conjugate())
    if not (pivot > 0.0 and (r11.real + DENSITY_TOL - h10 / pivot * h10.conjugate()).real > 0.0):
        raise ValueError(f"target state must have no eigenvalue below {-DENSITY_TOL:g}")
    # v_j = Re Tr(rho_x sigma_j) of the Hermitian part: a skew the check above
    # allows must not reach the blocks
    vx, vy, vz = r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real
    norm2 = vx * vx + vy * vy + vz * vz
    if norm2 > 1.0:  # accepted within DENSITY_TOL, yet outside the ball: the nearest state
        norm = math.sqrt(norm2)
        vx, vy, vz = vx / norm, vy / norm, vz / norm
    return BranchState(_channel(probe, omega, mode), np.array([1.0, vx, vy, vz]))


def channel_derivatives(probe: ProbeConfig, omega: float,
                        mode: DetectionMode) -> BranchDerivatives:
    """Block derivatives for the configured probe strategy (v-independent, read-only)."""
    return _channel(probe, omega, mode).derivatives


def direct_branches(v: BlochVector) -> tuple[BranchState, BranchDerivatives]:
    """Identity-channel encoding for direct (not probe-mediated) estimation."""
    return IDENTITY.state(v), IDENTITY.derivatives


STRATEGIES = ("direct", "nea", "ea")  # target access; unentangled probe; singlet probe


def encoding(strategy: str, v: BlochVector, omega: float, mode: DetectionMode,
             theta_a: float) -> tuple[BranchState, BranchDerivatives]:
    """Branch state and derivatives of target v; direct ignores omega and mode, EA theta_a."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    channel = IDENTITY if strategy == "direct" else _channel(
        ProbeConfig(entangled=True) if strategy == "ea" else ProbeConfig(theta_a=theta_a),
        omega, mode)
    return channel.state(v), channel.derivatives
