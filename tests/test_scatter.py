import math

import numpy as np
import pytest

from scattertomo import scatter
from scattertomo.closedform import ea_cartesian
from scattertomo.qfi import qfi_numeric
from scattertomo.scatter import (
    BlockLabel,
    BranchDerivatives,
    BranchState,
    Channel,
    DetectionMode,
    amplitudes,
    apply_channel,
    channel_derivatives,
    direct_branches,
    s_matrices,
)
from scattertomo.states import (ID2, BlochVector, ProbeConfig, bloch_to_density, max_entangled,
                                singlet)

from conftest import log_uniform, rand_bloch, rand_unitary, relerr

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


class TestAmplitudes:
    def test_free_propagation_limit(self):
        a = amplitudes(1e-9)
        assert abs(a.alpha_t - 1.0) < 1e-8
        assert abs(a.beta_t) < 1e-8
        assert abs(a.alpha_r) < 1e-8

    def test_omega_one(self):
        a = amplitudes(1.0)
        assert abs(a.alpha_t - (0.4 - 0.3j)) < 1e-15
        assert abs(a.beta_t - (0.1 - 0.2j)) < 1e-15
        assert abs(a.alpha_r - (-0.6 - 0.3j)) < 1e-15

    def test_strong_coupling_limit(self):
        a = amplitudes(1e7)
        assert abs(a.alpha_t) < 1e-6
        assert abs(a.beta_t) < 1e-6
        assert abs(a.alpha_r + 1.0) < 1e-6

    def test_beta_r_equals_beta_t(self):
        for om in (0.01, 0.3, 1.0, 42.0):
            a = amplitudes(om)
            assert a.beta_r == a.beta_t

    def test_scalar_unitarity_on_both_sectors(self):
        # sigma.sigma eigenvalues are +1 (triplet) and -3 (singlet)
        for om in np.geomspace(1e-3, 1e3, 25):
            a = amplitudes(om)
            for lam in (1.0, -3.0):
                t = a.alpha_t + a.beta_t * lam
                r = a.alpha_r + a.beta_r * lam
                assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                amplitudes(bad)


class TestSMatrices:
    def test_free_limit(self):
        s_t, s_r = s_matrices(1e-9)
        assert np.max(np.abs(s_t - np.eye(4))) < 1e-8
        assert np.max(np.abs(s_r)) < 1e-8

    def test_unitarity_residuals(self):
        worst = 0.0
        for om in np.geomspace(1e-3, 1e3, 50):
            s_t, s_r = s_matrices(om)
            complete = s_t.conj().T @ s_t + s_r.conj().T @ s_r - np.eye(4)
            cross = s_t.conj().T @ s_r + s_r.conj().T @ s_t
            worst = max(worst, np.max(np.abs(complete)), np.max(np.abs(cross)))
        assert worst < 1e-12

    def test_triplet_action_omega_one(self):
        s_t, _ = s_matrices(1.0)
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1.0  # |00> lies in the triplet sector
        assert np.allclose(s_t @ e00, (0.5 - 0.5j) * e00, atol=1e-15)


def branch_pair(strategy, v, omega, mode, theta_a=0.3):
    probe = ProbeConfig(theta_a=theta_a, entangled=(strategy == "ea"))
    rho = bloch_to_density(BlochVector.from_array(v))
    return (apply_channel(rho, probe, omega, mode),
            channel_derivatives(probe, omega, mode))


class TestApplyChannel:
    def test_free_limit_both(self):
        from scattertomo.states import probe_state

        rng = np.random.default_rng(31)
        for strategy in ("nea", "ea"):
            probe = ProbeConfig(theta_a=0.7, entangled=(strategy == "ea"))
            rho = bloch_to_density(BlochVector.from_array(rand_bloch(rng)))
            state = apply_channel(rho, probe, 1e-8, DetectionMode.BOTH)
            transmitted = state.block(BlockLabel.TRANSMITTED_SPIN)
            reflected = state.block(BlockLabel.REFLECTED_SPIN)
            # deviation from the free limit is first order in omega
            assert np.max(np.abs(transmitted - probe_state(probe))) < 5e-8
            assert np.max(np.abs(reflected)) < 5e-8
            assert abs(np.trace(transmitted) - 1.0) < 1e-12

    def test_ea_block_traces_omega_one(self):
        state = apply_channel(ID2 / 2, ProbeConfig(entangled=True), 1.0, DetectionMode.BOTH)
        t_trace = np.trace(state.block(BlockLabel.TRANSMITTED_SPIN)).real
        r_trace = np.trace(state.block(BlockLabel.REFLECTED_SPIN)).real
        # |alpha_t|^2 + 3 |beta_t|^2 and its reflection partner
        assert abs(t_trace - 0.4) < 1e-14
        assert abs(r_trace - 0.6) < 1e-14

    def test_transmission_vacuum_is_reflection_probability(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            v = rand_bloch(rng)
            om = log_uniform(rng, 0.05, 20)
            state, _ = branch_pair("nea", v, om, DetectionMode.TRANSMISSION)
            t_trace = np.trace(state.block(BlockLabel.TRANSMITTED_SPIN)).real
            vac = state.block(BlockLabel.VACUUM_RHS)
            assert vac.shape == (1, 1)
            assert abs(vac[0, 0].real - (1.0 - t_trace)) < 1e-12

    def test_reflection_vacuum_label(self):
        state, _ = branch_pair("ea", [0.1, 0.2, 0.3], 0.8, DetectionMode.REFLECTION)
        vac = state.block(BlockLabel.VACUUM_LHS)
        # entangled strategy keeps the 2x2 ancilla marginal in the lost branch
        assert vac.shape == (2, 2)

    def test_total_trace_one_random(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            strategy = rng.choice(["nea", "ea"])
            mode = MODES[rng.integers(3)]
            state, _ = branch_pair(strategy, rand_bloch(rng), log_uniform(rng, 1e-3, 1e3),
                                   mode, theta_a=rng.uniform(0, math.pi))
            total = sum(np.trace(op).real for _, op in state.blocks)
            assert abs(total - 1.0) < 1e-12

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            apply_channel(np.eye(2), ProbeConfig(), 1.0, DetectionMode.BOTH)  # trace 2

    def test_rejects_bad_probe_dimension(self):
        with pytest.raises(ValueError):
            Channel(np.eye(3) / 3, 1.0, DetectionMode.BOTH)


class TestChannelDerivatives:
    def test_zero_trace_per_axis(self):
        rng = np.random.default_rng(43)
        for strategy in ("nea", "ea"):
            for mode in MODES:
                probe = ProbeConfig(theta_a=rng.uniform(0, math.pi),
                                    entangled=(strategy == "ea"))
                derivs = channel_derivatives(probe, log_uniform(rng, 0.05, 20), mode)
                for axis_blocks in derivs.per_axis:
                    total = sum(np.trace(b).real for b in axis_blocks)
                    assert abs(total) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        h = 1e-5
        for _ in range(12):
            strategy = rng.choice(["nea", "ea"])
            mode = MODES[rng.integers(3)]
            probe = ProbeConfig(theta_a=rng.uniform(0, math.pi),
                                entangled=(strategy == "ea"))
            v = rand_bloch(rng, r_max=0.9)
            om = log_uniform(rng, 0.05, 20)
            derivs = channel_derivatives(probe, om, mode)
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                plus = apply_channel(bloch_to_density(BlochVector.from_array(v + step)),
                                     probe, om, mode)
                minus = apply_channel(bloch_to_density(BlochVector.from_array(v - step)),
                                      probe, om, mode)
                for i in range(len(derivs.labels)):
                    fd = (plus.blocks[i][1] - minus.blocks[i][1]) / (2 * h)
                    assert np.max(np.abs(fd - derivs.per_axis[j][i])) < 1e-8

    def test_z_derivative_hermitian_and_traceless(self):
        derivs = channel_derivatives(ProbeConfig(entangled=True), 0.9,
                                     DetectionMode.BOTH)
        d_z = derivs.per_axis[2][0]
        assert np.allclose(d_z, d_z.conj().T)
        # with a singlet input the transmitted derivative block alone is
        # traceless (the probe marginal carries no polarization)
        assert abs(np.trace(d_z)) < 1e-13
        total = sum(np.trace(b).real for b in derivs.per_axis[2])
        assert abs(total) < 1e-13


class TestBranchStateValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            BranchState(((BlockLabel.TRANSMITTED_SPIN, ID2 / 2),
                         (BlockLabel.TRANSMITTED_SPIN, ID2 / 2)))

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            BranchState(((BlockLabel.TRANSMITTED_SPIN, ID2),))

    def test_negative_block(self):
        with pytest.raises(ValueError):
            BranchState(((BlockLabel.TRANSMITTED_SPIN, np.diag([1.5, -0.5])),))

    def test_blocks_and_spectra_are_read_only_copies(self):
        given = np.diag([0.75, 0.25]).astype(complex)
        state = BranchState(((BlockLabel.TRANSMITTED_SPIN, given),))
        with pytest.raises(ValueError):
            state.block(BlockLabel.TRANSMITTED_SPIN)[0, 0] = 0.5
        for a in state.spectra[0]:
            with pytest.raises(ValueError):
                a[0] = 0.0
        given[0, 0] = 0.5  # the caller's array stays writable, and apart from the state
        assert state.block(BlockLabel.TRANSMITTED_SPIN)[0, 0] == 0.75

    def test_derivative_alignment(self):
        with pytest.raises(ValueError):
            BranchDerivatives((BlockLabel.TRANSMITTED_SPIN,),
                              ((ID2,), (ID2,)))  # only two axes

    @staticmethod
    def skewed(diag, skew):
        """Blocks of one 2x2 block whose anti-Hermitian part is i*skew off the diagonal."""
        op = np.array([[diag[0], 0.1 + 1j * skew], [0.1 + 1j * skew, diag[1]]])
        return ((BlockLabel.TRANSMITTED_SPIN, op),)

    def test_hermitian_threshold_below_unit_scale(self):
        # largest entry 0.75 < 1: the anti-Hermitian part may reach HERM_TOL itself
        with pytest.raises(ValueError, match="not Hermitian"):
            BranchState(self.skewed((0.75, 0.25), 1.001 * scatter.HERM_TOL))
        state = BranchState(self.skewed((0.75, 0.25), 0.999 * scatter.HERM_TOL))
        assert state.spectra[0][0][0] > 0.75

    def test_hermitian_threshold_scales_with_the_largest_entry(self):
        # largest entry 2: the limit is 2 * HERM_TOL, and a block just below it
        # passes the Hermitian test and fails only on its trace of 3
        with pytest.raises(ValueError, match="not Hermitian"):
            BranchState(self.skewed((2.0, 1.0), 2.002 * scatter.HERM_TOL))
        with pytest.raises(ValueError, match="block traces sum to 3"):
            BranchState(self.skewed((2.0, 1.0), 1.998 * scatter.HERM_TOL))


class TestDerivativeStacks:
    def test_read_only_stacks_of_the_per_axis_blocks(self):
        every = [direct_branches(BlochVector(0.2, -0.1, 0.4))[1]]
        every += [channel_derivatives(probe, 0.7, mode) for mode in MODES
                  for probe in (ProbeConfig(entangled=True), ProbeConfig(theta_a=0.9))]
        for derivs in every:
            assert len(derivs.stacks) == len(derivs.labels)
            for i, stack in enumerate(derivs.stacks):
                assert stack.dtype == complex
                assert np.array_equal(stack, np.stack([axis[i] for axis in derivs.per_axis]))
                with pytest.raises(ValueError):
                    stack[0, 0, 0] = 5.0

    def test_real_blocks_give_the_complex_result(self):
        state = BranchState(((BlockLabel.TRANSMITTED_SPIN,
                              bloch_to_density(BlochVector(0.3, -0.2, 0.4))),))
        real = (np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([[0.3, 0.2], [0.2, -0.3]]),
                np.array([[0.5, 0.0], [0.0, -0.5]]))
        as_real = BranchDerivatives(state.labels, tuple((b,) for b in real))
        as_complex = BranchDerivatives(state.labels, tuple((b.astype(complex),) for b in real))
        assert as_real.stacks[0].dtype == complex
        assert np.array_equal(qfi_numeric(state, as_real).h, qfi_numeric(state, as_complex).h)

    def test_caller_arrays_stay_writable_and_apart(self):
        given = (np.zeros((2, 2)), np.zeros((2, 2)), np.diag([0.5, -0.5]))
        derivs = BranchDerivatives((BlockLabel.TRANSMITTED_SPIN,), tuple((b,) for b in given))
        for b in given:
            assert b.flags.writeable
            b[0, 1] = 9.0
        assert np.array_equal(derivs.stacks[0][:, 0, 1], np.zeros(3))


class TestDerivativeChecks:
    X = BlockLabel.TRANSMITTED_SPIN

    def derivs(self, along_x, labels=None):
        zero = np.zeros_like(along_x)
        return BranchDerivatives(labels or (self.X,), ((along_x,), (zero,), (zero,)))

    def test_rejects_a_non_hermitian_block(self):
        # qfi_numeric would read H_xx = 2 at diag(0.7, 0.3); the Hermitian part gives 1
        with pytest.raises(ValueError, match="derivative block .*SPIN.* not Hermitian"):
            self.derivs(np.array([[0.0, 1.0], [0.0, 0.0]]))
        state = BranchState(((self.X, np.diag([0.7, 0.3])),))
        hermitian = self.derivs(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert abs(qfi_numeric(state, hermitian).h[0, 0] - 1.0) < 1e-15

    def test_every_block_and_axis_is_checked(self):
        vacuum = BlockLabel.VACUUM_RHS
        spin = np.zeros((2, 2))
        per_axis = ((spin, np.array([[0.0]])), (spin, np.array([[0.0]])),
                    (spin, np.array([[1e-9j]])))
        with pytest.raises(ValueError, match="VACUUM_RHS.* not Hermitian"):
            BranchDerivatives((self.X, vacuum), per_axis)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_traces_sum_to_zero_on_every_axis(self, axis):
        # per axis the traces may cancel across blocks, up to TRACE_TOL
        vacuum = BlockLabel.VACUUM_RHS
        per_axis = [(np.zeros((2, 2)), np.zeros((1, 1))) for _ in range(3)]
        per_axis[axis] = (np.diag([0.3, 0.2]), np.array([[-0.5 - 0.9 * scatter.TRACE_TOL]]))
        BranchDerivatives((self.X, vacuum), tuple(per_axis))
        per_axis[axis] = (np.diag([0.3, 0.2]), np.array([[-0.5 - 2.0 * scatter.TRACE_TOL]]))
        with pytest.raises(ValueError, match="derivative traces sum to"):
            BranchDerivatives((self.X, vacuum), tuple(per_axis))

    @pytest.mark.parametrize("scale", [0.75, 2.0])
    def test_hermitian_threshold_scales_with_the_largest_entry(self, scale):
        # the anti-Hermitian part may reach HERM_TOL * max(1, largest entry)
        limit = scatter.HERM_TOL * max(1.0, scale)
        block = np.array([[scale, 0.0], [0.0, -scale]], dtype=complex)
        block[0, 1] = 2.002 * limit  # anti-Hermitian part 1.001 * limit
        with pytest.raises(ValueError, match="not Hermitian"):
            self.derivs(block)
        block[0, 1] = 1.998 * limit
        assert self.derivs(block).stacks[0][0, 0, 1] == 1.998 * limit

    def test_direct_derivatives_are_shared_and_read_only(self):
        first = direct_branches(BlochVector(0.2, -0.1, 0.4))[1]
        assert direct_branches(BlochVector(0.0, 0.0, -0.9))[1] is first
        for (block,), sigma in zip(first.per_axis, (scatter.PAULIS)):
            assert np.array_equal(block, 0.5 * sigma)
            with pytest.raises(ValueError):
                block[0, 0] = 1.0


class TestDirectBranches:
    def test_single_unit_trace_block(self):
        state, derivs = direct_branches(BlochVector(0.2, -0.1, 0.4))
        assert state.labels == (BlockLabel.TRANSMITTED_SPIN,)
        assert derivs.labels == state.labels
        assert abs(np.trace(state.blocks[0][1]) - 1.0) < 1e-15


class TestMaxEntangledInvariance:
    def test_qfi_independent_of_entangled_input(self):
        # any maximally entangled probe-ancilla input gives the singlet's QFI
        rng = np.random.default_rng(53)
        for _ in range(5):
            v = rand_bloch(rng, r_max=0.9)
            om = log_uniform(rng, 0.05, 20)
            rho = bloch_to_density(BlochVector.from_array(v))
            rho_me = max_entangled(rand_unitary(rng), rand_unitary(rng))
            for mode in MODES:
                ref, other = Channel(singlet(), om, mode), Channel(rho_me, om, mode)
                h_singlet = qfi_numeric(ref.state(rho), ref.derivatives)
                h_other = qfi_numeric(other.state(rho), other.derivatives)
                assert np.max(np.abs(h_singlet.h - h_other.h)) < 1e-9


def point(probe, omega, mode, v=(0.1, -0.2, 0.3)):
    """(blocks, derivative blocks) of one oracle point, as lists of arrays."""
    state = apply_channel(bloch_to_density(BlochVector(*v)), probe, omega, mode)
    derivs = channel_derivatives(probe, omega, mode)
    return [op for _, op in state.blocks], [b for axis in derivs.per_axis for b in axis]


def assert_identical(a, b):
    for xs, ys in zip(a, b):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert np.array_equal(x, y)


class TestChannel:
    EA = ProbeConfig(entangled=True)
    NEA = ProbeConfig(theta_a=0.9)

    def test_memo_hit_and_miss_are_bit_identical(self):
        for probe in (self.EA, self.NEA):
            for mode in MODES:
                miss = point(probe, 0.37, mode)
                hit = point(probe, 0.37, mode)
                point(probe, 2.9, mode)  # evicts the channel at 0.37
                assert_identical(miss, hit)
                assert_identical(miss, point(probe, 0.37, mode))

    def test_interleaved_channels(self):
        a = (self.EA, 0.61, DetectionMode.TRANSMISSION)
        b = (self.NEA, 0.61, DetectionMode.TRANSMISSION)
        first = point(*a)
        other = point(*b)
        assert not np.array_equal(first[0][0], other[0][0])
        assert_identical(first, point(*a))

    def test_returned_arrays_are_read_only(self):
        derivs = channel_derivatives(self.EA, 0.8, DetectionMode.BOTH)
        before = point(self.EA, 0.8, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            derivs.per_axis[2][0][0, 0] = 5.0
        channel = Channel(singlet(), 0.8, DetectionMode.BOTH)
        for m in channel.maps:
            with pytest.raises(ValueError):
                m[0, 0, 0] = 5.0
        # a state's blocks are read-only too, and the channel stays as it was
        state = apply_channel(ID2 / 2, self.EA, 0.8, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            state.blocks[0][1][:] = 0.0
        assert_identical(before, point(self.EA, 0.8, DetectionMode.BOTH))

    def test_one_s_matrix_build_per_channel(self, monkeypatch):
        calls = []

        def counted(omega):
            calls.append(omega)
            return s_matrices(omega)

        monkeypatch.setattr(scatter, "s_matrices", counted)
        rng = np.random.default_rng(59)
        for _ in range(10):
            point(self.EA, 0.4321, DetectionMode.REFLECTION, v=rand_bloch(rng))
        assert calls == [0.4321]

    def test_state_matches_direct_channel_application(self):
        # the affine sum over the basis maps equals S (rho_x x rho_in) S^dag, traced
        rng = np.random.default_rng(61)
        rho = bloch_to_density(BlochVector.from_array(rand_bloch(rng)))
        for rho_in in (singlet(), bloch_to_density(BlochVector(0.6, 0.0, 0.8))):
            d = rho_in.shape[0]
            s_t, s_r = s_matrices(1.3)
            if d == 4:
                s_t, s_r = np.kron(s_t, ID2), np.kron(s_r, ID2)
            state = Channel(rho_in, 1.3, DetectionMode.BOTH).state(rho)
            for s, label in ((s_t, BlockLabel.TRANSMITTED_SPIN), (s_r, BlockLabel.REFLECTED_SPIN)):
                out = s @ np.kron(rho, rho_in) @ s.conj().T
                expected = np.einsum("xixj->ij", out.reshape(2, d, 2, d))
                assert np.max(np.abs(state.block(label) - expected)) < 1e-15

    def test_max_entangled_input_matches_singlet_closed_form(self):
        rng = np.random.default_rng(67)
        for mode in MODES:
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.9))
            om = log_uniform(rng, 0.05, 20)
            rho_me = max_entangled(rand_unitary(rng), rand_unitary(rng))
            channel = Channel(rho_me, om, mode)
            h = qfi_numeric(channel.state(bloch_to_density(v)), channel.derivatives)
            assert relerr(h.h, ea_cartesian(v, om, mode).h) < 1e-8

    @pytest.mark.parametrize("rho_x", [
        np.array([[0.5, 0.3], [0.1, 0.5]]),  # not Hermitian
        np.diag([0.7, 0.7]),                  # trace 1.4
        np.eye(3) / 3,                        # not 2x2
    ])
    def test_rejects_bad_target_on_both_paths(self, rho_x):
        with pytest.raises(ValueError):
            apply_channel(rho_x, self.EA, 0.5, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            Channel(singlet(), 0.5, DetectionMode.BOTH).state(rho_x)

    @pytest.mark.parametrize("mode", MODES)
    def test_skewed_target_maps_like_its_hermitian_part(self, mode):
        # a skew the target check allows gives the blocks of the Hermitian
        # part; a larger one is refused as a target, not as an output block
        for probe in (self.EA, self.NEA):
            for skew in (5e-11, 5e-11j):
                rho = np.array([[0.6, 0.1 + 0.2j + skew], [0.1 - 0.2j, 0.4]])
                skewed = apply_channel(rho, probe, 0.7, mode)
                herm = apply_channel(0.5 * (rho + rho.conj().T), probe, 0.7, mode)
                assert skewed.labels == herm.labels
                for (_, a), (_, b) in zip(skewed.blocks, herm.blocks):
                    assert np.array_equal(a, b)
                rho[0, 1] += 1e-9
                with pytest.raises(ValueError, match="target state must be Hermitian"):
                    apply_channel(rho, probe, 0.7, mode)

    def test_rejects_bad_probe_input(self):
        for rho_in in (np.eye(3) / 3, np.ones((2, 4)) / 4):
            with pytest.raises(ValueError):
                Channel(rho_in, 0.5, DetectionMode.BOTH)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            apply_channel(ID2 / 2, self.EA, 0.5, "both")
