import math
import re

import numpy as np
import pytest

from scattertomo import scatter
from scattertomo.closedform import ea_cartesian
from scattertomo.qfi import qfi_numeric
from scattertomo.scatter import (
    OMEGA_MAX,
    BlockLabel,
    BranchState,
    Channel,
    DetectionMode,
    amplitudes,
    apply_channel,
    channel_derivatives,
    direct_branches,
    encoding,
    s_matrices,
    scattering_channel,
)
from scattertomo.states import (ID2, PAULIS, BlochVector, ProbeConfig, bloch_to_density,
                                max_entangled, probe_state, singlet)

from conftest import branches, log_uniform, rand_bloch, rand_density, rand_unitary, relerr

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
        for bad in (0.0, -1.0, math.nan, math.inf, np.nextafter(scatter.OMEGA_MAX, math.inf),
                    1e155, 1e200):
            with pytest.raises(ValueError, match="omega must be positive and finite, at most"):
                amplitudes(bad)

    def test_finite_at_the_limit(self):
        a = amplitudes(scatter.OMEGA_MAX)
        assert all(map(math.isfinite, (a.alpha_t.real, a.alpha_t.imag, a.beta_t.real,
                                       a.beta_t.imag, a.alpha_r.real, a.alpha_r.imag)))
        assert abs(a.alpha_r + 1.0) < 1e-15


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
            scattering_channel(np.eye(3) / 3, 1.0, DetectionMode.BOTH)


class TestChannelDerivatives:
    def test_zero_trace_per_axis(self):
        rng = np.random.default_rng(43)
        for strategy in ("nea", "ea"):
            for mode in MODES:
                probe = ProbeConfig(theta_a=rng.uniform(0, math.pi),
                                    entangled=(strategy == "ea"))
                derivs = channel_derivatives(probe, log_uniform(rng, 0.05, 20), mode)
                for j in range(3):
                    total = sum(np.trace(stack[j]).real for stack in derivs.stacks)
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
                    assert np.max(np.abs(fd - derivs.stacks[i][j])) < 1e-8

    def test_z_derivative_hermitian_and_traceless(self):
        derivs = channel_derivatives(ProbeConfig(entangled=True), 0.9,
                                     DetectionMode.BOTH)
        d_z = derivs.stacks[0][2]
        assert np.allclose(d_z, d_z.conj().T)
        # with a singlet input the transmitted derivative block alone is
        # traceless (the probe marginal carries no polarization)
        assert abs(np.trace(d_z)) < 1e-13
        total = sum(np.trace(stack[2]).real for stack in derivs.stacks)
        assert abs(total) < 1e-13


class TestBranchStateValidation:
    T = BlockLabel.TRANSMITTED_SPIN

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate block labels"):
            branches((self.T, self.T), (ID2 / 4, ID2 / 4))

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError, match="block traces sum to 2"):
            branches((self.T,), (ID2,))

    def test_negative_block(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            branches((self.T,), (np.diag([1.5, -0.5]),))

    def test_blocks_and_spectra_are_read_only_copies(self):
        given = np.diag([0.75, 0.25]).astype(complex)
        state, _ = branches((self.T,), (given,))
        with pytest.raises(ValueError):
            state.block(self.T)[0, 0] = 0.5
        for a in state.spectra:
            with pytest.raises(ValueError):
                a[0] = 0.0
        given[0, 0] = 0.5  # the caller's array stays writable, and apart from the state
        assert state.block(self.T)[0, 0] == 0.75

    def test_spectra_are_one_padded_stack(self):
        # a 2x2 and a 1x1 block: lam (2, 2) and vec (2, 2, 2), descending and clipped,
        # the 1x1 block's padding an extra zero eigenvalue along its padding axis
        t, vac = BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS
        spin = np.array([[0.5, 0.1j], [-0.1j, 0.2]])
        state, _ = branches((t, vac), (spin, [[0.3]]))
        assert state.sizes == (2, 1)
        lam, vec = state.spectra
        assert lam.shape == (2, 2) and vec.shape == (2, 2, 2)
        assert np.array_equal(lam[1], [0.3, 0.0]) and np.array_equal(np.abs(vec[1]), np.eye(2))
        assert np.all(np.diff(lam[0]) <= 0.0)
        assert np.allclose((vec[0] * lam[0]) @ vec[0].conj().T, spin, atol=1e-15)
        assert [op.shape for _, op in state.blocks] == [(2, 2), (1, 1)]
        assert state.block(vac)[0, 0] == 0.3
        for a in (lam, vec, *(op for _, op in state.blocks)):
            assert not a.flags.writeable

    def test_every_block_is_checked_and_named(self):
        t, r = BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN
        good = np.diag([0.3, 0.2])
        with pytest.raises(ValueError, match="block BlockLabel.REFLECTED_SPIN is not Hermitian"):
            branches((t, r), (good, np.array([[0.3, 1e-9], [0.0, 0.2]])))
        with pytest.raises(ValueError, match="block BlockLabel.REFLECTED_SPIN has negative "
                                             "eigenvalue -1.000e-01"):
            branches((t, r), (good, np.diag([0.6, -0.1])))
        channel = Channel((t, r), [np.stack([good, *np.zeros((3, 2, 2))])] * 2)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            BranchState(channel, np.array([1.0, 0.0, math.nan, 0.0]))
        for bad in (np.ones((2, 3)) / 4, np.ones(2) / 2):
            with pytest.raises(ValueError, match=r"a block map is a \(4, d, d\) stack"):
                branches((t, r), (good, bad))

    def test_a_malformed_c_fails_loudly(self):
        # c is (1, v_x, v_y, v_z): a bad shape fails in the einsum, a bad value in the
        # finite and trace checks
        channel = scatter.IDENTITY
        for c in (np.ones(3), np.ones((2, 4)), np.ones(5)):
            with pytest.raises(ValueError):
                BranchState(channel, c)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            BranchState(channel, np.array([1.0, math.inf, 0.0, 0.0]))
        with pytest.raises(ValueError, match="block traces sum to 2"):
            BranchState(channel, np.array([2.0, 0.0, 0.0, 0.0]))

    def test_derivative_alignment(self):
        with pytest.raises(ValueError, match="three axes"):
            Channel((self.T,), (np.stack([ID2, ID2, ID2]),))  # I/2 and only two axes

    @staticmethod
    def skewed(diag, skew):
        """One 2x2 block whose anti-Hermitian part is i*skew off the diagonal."""
        return (np.array([[diag[0], 0.1 + 1j * skew], [0.1 + 1j * skew, diag[1]]]),)

    def test_hermitian_threshold_below_unit_scale(self):
        # largest entry 0.75 < 1: the anti-Hermitian part may reach HERM_TOL itself
        with pytest.raises(ValueError, match="not Hermitian"):
            branches((self.T,), self.skewed((0.75, 0.25), 1.001 * scatter.HERM_TOL))
        state, _ = branches((self.T,), self.skewed((0.75, 0.25), 0.999 * scatter.HERM_TOL))
        assert state.spectra[0][0][0] > 0.75

    def test_hermitian_threshold_scales_with_the_largest_entry(self):
        # largest entry 2: the limit is 2 * HERM_TOL, and a block just below it
        # passes the Hermitian test and fails only on its trace of 3
        with pytest.raises(ValueError, match="not Hermitian"):
            branches((self.T,), self.skewed((2.0, 1.0), 2.002 * scatter.HERM_TOL))
        with pytest.raises(ValueError, match="block traces sum to 3"):
            branches((self.T,), self.skewed((2.0, 1.0), 1.998 * scatter.HERM_TOL))


class TestDerivativeStacks:
    def test_read_only_stacks_of_the_symmetrized_sigma_maps(self):
        every = [scatter.IDENTITY]
        every += [scattering_channel(probe_state(probe), 0.7, mode) for mode in MODES
                  for probe in (ProbeConfig(entangled=True), ProbeConfig(theta_a=0.9))]
        for channel in every:
            derivs = channel.derivatives
            assert len(derivs.stacks) == len(derivs.labels)
            for stack, m in zip(derivs.stacks, channel.maps):
                assert stack.dtype == complex
                assert np.array_equal(stack, 0.5 * (m[1:] + m[1:].conj().swapaxes(1, 2)))
                with pytest.raises(ValueError):
                    stack[0, 0, 0] = 5.0

    def test_padded_stack_and_its_views(self):
        # a (3, 2, 2) and a (3, 1, 1) block: one (2, 3, 2, 2) array, zero in the padding
        # and a view of the channel's own stack, with no copy
        spin = np.stack([np.diag([0.1, -0.1]), np.zeros((2, 2)), np.diag([0.3, 0.1])])
        lost = np.array([[[0.0]], [[0.0]], [[-0.4]]])
        channel = Channel((BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS),
                          (np.stack((np.diag([0.5, 0.3]), *spin)), np.stack(([[0.2]], *lost))))
        derivs = channel.derivatives
        assert derivs.sizes == (2, 1) and derivs.padded.shape == (2, 3, 2, 2)
        assert np.array_equal(derivs.padded[0], spin)
        assert np.array_equal(derivs.padded[1, :, :1, :1], lost)
        assert not derivs.padded[1, :, 1:].any() and not derivs.padded[1, :, :, 1:].any()
        assert np.shares_memory(derivs.padded, channel._stack)
        for stack, given in zip(derivs.stacks, (spin, lost)):
            assert np.shares_memory(stack, channel._stack) and np.array_equal(stack, given)
        assert not derivs.padded.flags.writeable

    def test_real_blocks_give_the_complex_result(self):
        real = np.stack([np.diag([0.7, 0.3]), np.array([[0.0, 0.5], [0.5, 0.0]]),
                         np.array([[0.3, 0.2], [0.2, -0.3]]), np.array([[0.5, 0.0], [0.0, -0.5]])])
        as_real = Channel((BlockLabel.TRANSMITTED_SPIN,), (real,))
        as_complex = Channel((BlockLabel.TRANSMITTED_SPIN,), (real.astype(complex),))
        assert as_real.derivatives.stacks[0].dtype == complex
        v = BlochVector(0.3, -0.2, 0.4)
        assert np.array_equal(qfi_numeric(as_real.state(v), as_real.derivatives).h,
                              qfi_numeric(as_complex.state(v), as_complex.derivatives).h)

    def test_caller_arrays_stay_writable_and_apart(self):
        given = np.stack([ID2 / 2, np.zeros((2, 2)), np.zeros((2, 2)), np.diag([0.5, -0.5])])
        channel = Channel((BlockLabel.TRANSMITTED_SPIN,), (given,))
        assert given.flags.writeable
        given[:, 0, 1] = 9.0
        assert np.array_equal(channel.derivatives.stacks[0][:, 0, 1], np.zeros(3))
        assert np.array_equal(channel.maps[0][:, 0, 1], np.zeros(4))


class TestDerivativeChecks:
    X = BlockLabel.TRANSMITTED_SPIN

    def test_non_hermitian_maps_give_their_hermitian_part(self):
        # a skew within HERM_TOL is kept as 0.5 (a + a^dagger), Hermitian bit for bit,
        # which gives H_xx = 1 at diag(0.7, 0.3)
        skew = 0.5 * scatter.HERM_TOL
        sigma_x = np.array([[0.0, 0.5 + 1j * skew], [0.5 + 1j * skew, 0.0]])
        state, derivs = branches((self.X,), (np.diag([0.7, 0.3]),),
                                 (np.stack([sigma_x, np.zeros((2, 2)), np.zeros((2, 2))]),))
        assert np.array_equal(derivs.stacks[0][0], [[0.0, 0.5], [0.5, 0.0]])
        assert abs(qfi_numeric(state, derivs).h[0, 0] - 1.0) < 1e-15
        # a larger one refuses the channel when it is built, naming the block. This
        # sigma_x map once gave H_xx = 1.0 at v = 0 and a refusal at v = (0.1, 0, 0);
        # now no channel holds it, so no target gets an answer that depends on v
        skewed = np.stack([np.diag([0.7, 0.3]), [[0.0, 1.0], [0.0, 0.0]],
                           np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="block BlockLabel.TRANSMITTED_SPIN is not Hermitian"):
            Channel((self.X,), (skewed,))
        with pytest.raises(ValueError, match="block BlockLabel.REFLECTED_SPIN is not Hermitian"):
            Channel((self.X, BlockLabel.REFLECTED_SPIN), (np.zeros((4, 2, 2)), skewed))

    @staticmethod
    def random_hermitian(rng, d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (z + z.conj().T)

    def test_derivatives_of_random_maps_equal_their_conjugate_transpose(self):
        # random Hermitian maps, each with an anti-Hermitian part below HERM_TOL: the
        # channel's padded stack, and every state built from it, is Hermitian bit for bit
        rng = np.random.default_rng(101)
        labels = (self.X, BlockLabel.VACUUM_RHS, BlockLabel.REFLECTED_SPIN)
        for _ in range(200):
            maps = []
            for d in (4, 1, 2):
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                rho = a @ a.conj().T + np.eye(d)
                sigma = np.stack([self.random_hermitian(rng, d) for _ in range(3)])
                sigma -= np.trace(sigma, axis1=1, axis2=2).real[:, None, None] * np.eye(d) / d
                # |sum_j v_j sigma_j| stays below rho's smallest eigenvalue for |v| <= 1:
                # a sum of |entries| bounds a spectral norm
                norm = np.abs(sigma).sum(axis=(1, 2)).max()
                sigma *= np.linalg.eigvalsh(rho)[0] / (3.0 * max(norm, 1.0))
                m = np.stack([rho, *sigma]) / 3.0
                k = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
                m += (k - k.conj().swapaxes(1, 2)) * 0.2 * scatter.HERM_TOL / np.abs(k).max()
                maps.append(m)
            traces = [np.trace(m[0]).real for m in maps]
            maps = [m / sum(traces) for m in maps]
            channel = Channel(labels, maps)
            stack = channel._stack
            # every entry equal: only the zero imaginary parts of the diagonal differ
            # in sign, +0.0 against -0.0
            assert np.array_equal(stack, stack.conj().swapaxes(2, 3))
            assert np.array_equal(channel.derivatives.padded, stack[:, 1:])
            for _ in range(5):
                state = channel.state(BlochVector.from_array(rand_bloch(rng, r_max=1.0)))
                for _, op in state.blocks:
                    assert np.array_equal(op, op.conj().T)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_traces_sum_to_zero_on_every_axis(self, axis):
        # per axis the traces may cancel across blocks, up to TRACE_TOL
        labels = (self.X, BlockLabel.VACUUM_RHS)
        spin, lost = np.zeros((4, 2, 2)), np.zeros((4, 1, 1))
        spin[1 + axis] = np.diag([0.3, 0.2])
        lost[1 + axis] = -0.5 - 0.9 * scatter.TRACE_TOL
        Channel(labels, (spin, lost))
        lost[1 + axis] = -0.5 - 2.0 * scatter.TRACE_TOL
        with pytest.raises(ValueError, match="derivative traces sum to"):
            Channel(labels, (spin, lost))

    def test_direct_derivatives_are_shared_and_read_only(self):
        first = direct_branches(BlochVector(0.2, -0.1, 0.4))[1]
        assert direct_branches(BlochVector(0.0, 0.0, -0.9))[1] is first
        (stack,) = first.stacks
        assert np.array_equal(stack, 0.5 * np.stack(scatter.PAULIS))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0


class TestDirectBranches:
    def test_single_unit_trace_block(self):
        state, derivs = direct_branches(BlochVector(0.2, -0.1, 0.4))
        assert state.labels == (BlockLabel.TRANSMITTED_SPIN,)
        assert derivs.labels == state.labels
        assert abs(np.trace(state.blocks[0][1]) - 1.0) < 1e-15


class TestEncoding:
    V = BlochVector(0.2, -0.1, 0.4)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy, probe", [("ea", ProbeConfig(entangled=True)),
                                                 ("nea", ProbeConfig(theta_a=0.7))])
    def test_matches_the_channel_bit_for_bit(self, strategy, probe, mode):
        state, derivs = encoding(strategy, self.V, 0.43, mode, 0.7)
        channel = scattering_channel(probe_state(probe), 0.43, mode)
        ref = channel.state(self.V)
        assert state.labels == derivs.labels == ref.labels
        assert_identical([[op for _, op in state.blocks]], [[op for _, op in ref.blocks]])
        assert_identical([derivs.stacks], [channel.derivatives.stacks])

    def test_one_probe_channel_lookup_per_encoded_point(self):
        encoding("nea", self.V, 0.51, DetectionMode.REFLECTION, 1.1)  # fills the cache
        counts = [scatter._probe_channel.cache_info()]
        for v in (self.V, BlochVector(-0.3, 0.5, 0.1)):  # two targets on one channel
            encoding("nea", v, 2.3, DetectionMode.REFLECTION, 1.1)
            counts.append(scatter._probe_channel.cache_info())
        steps = [(b.misses - a.misses, b.hits - a.hits) for a, b in zip(counts, counts[1:])]
        assert steps == [(1, 0), (0, 1)]

    def test_ea_shares_one_channel_for_every_theta_a(self):
        # the singlet probe has no orientation: theta_a is neither read nor checked
        encoding("ea", self.V, 0.57, DetectionMode.TRANSMISSION, 0.0)  # fills the cache
        before = scatter._probe_channel.cache_info()
        for theta_a in (0.7, 5.0, -1.0, math.nan):
            encoding("ea", self.V, 0.57, DetectionMode.TRANSMISSION, theta_a)
        after = scatter._probe_channel.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 4)

    @pytest.mark.parametrize("mode", MODES)
    def test_direct_is_the_identity_channel(self, mode):
        # direct access reads neither omega nor mode
        state, derivs = encoding("direct", self.V, 0.0, mode, 0.0)
        assert derivs is scatter.IDENTITY.derivatives
        ref = scatter.IDENTITY.state(self.V)
        assert state.labels == ref.labels == (BlockLabel.TRANSMITTED_SPIN,)
        assert_identical([[op for _, op in state.blocks]], [[op for _, op in ref.blocks]])

    @pytest.mark.parametrize("strategy", ["bogus", "EA", ""])
    def test_unknown_strategy(self, strategy):
        with pytest.raises(ValueError, match="unknown strategy"):
            encoding(strategy, self.V, 0.43, DetectionMode.BOTH, 0.7)

    def test_strategies(self):
        assert scatter.STRATEGIES == ("direct", "nea", "ea")


class TestIdentityChannel:
    def test_maps_and_derivatives(self):
        identity = scatter.IDENTITY
        assert identity.labels == (BlockLabel.TRANSMITTED_SPIN,)
        (maps,) = identity.maps
        assert np.array_equal(maps, scatter._BASIS)
        (stack,) = identity.derivatives.stacks
        assert np.array_equal(stack, 0.5 * np.stack(PAULIS))
        for a in (maps, stack):
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0

    def test_state_is_the_density_matrix_bit_for_bit(self):
        rng = np.random.default_rng(83)
        targets = [rand_bloch(rng) for _ in range(2000)]
        near_pure = 1.0 - 1e-9
        for axis in np.eye(3):  # the axes, at both ends and next to the pure state
            targets += [0.5 * axis, -0.5 * axis, near_pure * axis, -near_pure * axis]
        targets += [np.zeros(3), np.array([0.0, -0.3, 0.4]), np.array([-0.6, 0.0, -0.0]),
                    near_pure * np.array([0.6, -0.8, 0.0])]
        for target in targets:
            v = BlochVector.from_array(target)
            (label, block), = scatter.IDENTITY.state(v).blocks
            assert label is BlockLabel.TRANSMITTED_SPIN
            assert block.tobytes() == bloch_to_density(v).tobytes()


class TestMaxEntangledInvariance:
    def test_qfi_independent_of_entangled_input(self):
        # any maximally entangled probe-ancilla input gives the singlet's QFI
        rng = np.random.default_rng(53)
        for _ in range(5):
            v = rand_bloch(rng, r_max=0.9)
            om = log_uniform(rng, 0.05, 20)
            target = BlochVector.from_array(v)
            rho_me = max_entangled(rand_unitary(rng), rand_unitary(rng))
            for mode in MODES:
                ref = scattering_channel(singlet(), om, mode)
                other = scattering_channel(rho_me, om, mode)
                h_singlet = qfi_numeric(ref.state(target), ref.derivatives)
                h_other = qfi_numeric(other.state(target), other.derivatives)
                assert np.max(np.abs(h_singlet.h - h_other.h)) < 1e-9


def point(probe, omega, mode, v=(0.1, -0.2, 0.3)):
    """(blocks, derivative blocks) of one oracle point, as lists of arrays."""
    state = apply_channel(bloch_to_density(BlochVector(*v)), probe, omega, mode)
    derivs = channel_derivatives(probe, omega, mode)
    return [op for _, op in state.blocks], list(derivs.stacks)


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
            derivs.stacks[0][2, 0, 0] = 5.0
        channel = scattering_channel(singlet(), 0.8, DetectionMode.BOTH)
        for m in channel.maps:
            with pytest.raises(ValueError):
                m[0, 0, 0] = 5.0
        # a state's blocks are read-only too, and the channel stays as it was
        state = apply_channel(ID2 / 2, self.EA, 0.8, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            state.blocks[0][1][:] = 0.0
        assert_identical(before, point(self.EA, 0.8, DetectionMode.BOTH))

    def test_one_amplitudes_call_per_channel(self, monkeypatch):
        calls = []

        def counted(omega):
            calls.append(omega)
            return amplitudes(omega)

        monkeypatch.setattr(scatter, "amplitudes", counted)
        rng = np.random.default_rng(59)
        for _ in range(10):
            point(self.EA, 0.4321, DetectionMode.REFLECTION, v=rand_bloch(rng))
        assert calls == [0.4321]

    def test_state_matches_direct_channel_application(self):
        # the affine sum over the basis maps equals S (rho_x x rho_in) S^dag, traced
        rng = np.random.default_rng(61)
        inputs = [singlet()]
        for _ in range(4):
            inputs += [max_entangled(rand_unitary(rng), rand_unitary(rng)),
                       rand_density(rng, 4), rand_density(rng, 2)]
        for i, rho_in in enumerate(inputs):
            d = rho_in.shape[0]
            for omega in (log_uniform(rng, 1e-6, 1e6), log_uniform(rng, 1e-6, 1e6), OMEGA_MAX):
                v = BlochVector.from_array(rand_bloch(rng))
                rho = bloch_to_density(v)
                s_t, s_r = s_matrices(omega)
                if d == 4:
                    s_t, s_r = np.kron(s_t, ID2), np.kron(s_r, ID2)
                t, r = (np.einsum("xixj->ij", (s @ np.kron(rho, rho_in) @ s.conj().T)
                                  .reshape(2, d, 2, d)) for s in (s_t, s_r))
                t_lost, r_lost = (np.einsum("aiaj->ij", b.reshape(2, d // 2, 2, d // 2))
                                  for b in (t, r))
                expected = {
                    DetectionMode.BOTH: {BlockLabel.TRANSMITTED_SPIN: t,
                                         BlockLabel.REFLECTED_SPIN: r},
                    DetectionMode.TRANSMISSION: {BlockLabel.TRANSMITTED_SPIN: t,
                                                 BlockLabel.VACUUM_RHS: r_lost},
                    DetectionMode.REFLECTION: {BlockLabel.REFLECTED_SPIN: r,
                                               BlockLabel.VACUUM_LHS: t_lost},
                }
                for mode in MODES:
                    state = scattering_channel(rho_in, omega, mode).state(v)
                    assert state.labels == tuple(expected[mode])
                    for label, want in expected[mode].items():
                        assert np.max(np.abs(state.block(label) - want)) < 1e-15

    @staticmethod
    def reference_maps(rho_in, omega, mode):
        # the maps from their definition, one basis input at a time: np.kron for
        # S x 1 and B_k/2 x rho_in, S (.) S^dag, the target and then the probe traced out
        d = rho_in.shape[0]
        s_t, s_r = s_matrices(omega)
        if d == 4:
            s_t, s_r = np.kron(s_t, ID2), np.kron(s_r, ID2)

        def spin(s):
            return np.stack([np.einsum("xixj->ij", (s @ np.kron(b, rho_in) @ s.conj().T)
                                       .reshape(2, d, 2, d))
                             for b in 0.5 * np.stack([ID2, *PAULIS])])

        def lost(m):
            return np.stack([np.einsum("aiaj->ij", b.reshape(2, d // 2, 2, d // 2)) for b in m])

        t, r = spin(s_t), spin(s_r)
        return {DetectionMode.BOTH: (t, r), DetectionMode.TRANSMISSION: (t, lost(r)),
                DetectionMode.REFLECTION: (r, lost(t))}[mode]

    def test_maps_equal_the_kron_reference_to_two_ulps(self):
        # one contraction of import-time tables rounds otherwise than the sandwich
        rng = np.random.default_rng(71)
        for i in range(60):
            probe = (singlet(), max_entangled(rand_unitary(rng), rand_unitary(rng)),
                     probe_state(ProbeConfig(theta_a=float(rng.uniform(0.0, math.pi)))))[i % 3]
            omega, mode = log_uniform(rng, 1e-3, 1e3), MODES[(i // 3) % 3]
            maps = scattering_channel(probe, omega, mode).maps
            expected = self.reference_maps(probe, omega, mode)
            assert len(maps) == len(expected)
            for got, want in zip(maps, expected):
                want = 0.5 * (want + want.conj().swapaxes(1, 2))
                assert got.shape == want.shape
                assert (np.abs(got - want) <= 4.4e-16 * np.maximum(1.0, np.abs(want))).all()

    def test_max_entangled_input_matches_singlet_closed_form(self):
        rng = np.random.default_rng(67)
        for mode in MODES:
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.9))
            om = log_uniform(rng, 0.05, 20)
            rho_me = max_entangled(rand_unitary(rng), rand_unitary(rng))
            channel = scattering_channel(rho_me, om, mode)
            h = qfi_numeric(channel.state(v), channel.derivatives)
            assert relerr(h.h, ea_cartesian(v, om, mode).h) < 1e-8

    @pytest.mark.parametrize("rho_x", [
        np.array([[0.5, 0.3], [0.1, 0.5]]),  # not Hermitian
        np.diag([0.7, 0.7]),                  # trace 1.4
        np.eye(3) / 3,                        # not 2x2
    ])
    def test_rejects_bad_target_on_both_paths(self, rho_x):
        # apply_channel is the one entry that takes a density matrix
        for probe in (self.EA, self.NEA):
            with pytest.raises(ValueError):
                apply_channel(rho_x, probe, 0.5, DetectionMode.BOTH)

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

    def test_bloch_and_density_entries_agree(self):
        # scattering_channel(...).state(v) reads c = (1, v) exactly; apply_channel
        # reads v back from the density matrix, so the two differ by rounding only
        rng = np.random.default_rng(89)
        for i in range(60):
            probe = (self.EA, ProbeConfig(theta_a=float(rng.uniform(0.0, math.pi))))[i % 2]
            omega, mode = log_uniform(rng, 1e-3, 1e3), MODES[(i // 2) % 3]
            v = BlochVector.from_array(rand_bloch(rng))
            by_v = scattering_channel(probe_state(probe), omega, mode).state(v)
            by_rho = apply_channel(bloch_to_density(v), probe, omega, mode)
            assert by_v.labels == by_rho.labels
            for (_, a), (_, b) in zip(by_v.blocks, by_rho.blocks):
                assert np.abs(a - b).max() <= 1e-15

    def test_state_stacks_equal_their_conjugate_transpose_bit_for_bit(self):
        # eigh reads the stack as it is, with no Hermitian part taken per target
        rng = np.random.default_rng(107)
        omega = log_uniform(rng, 1e-3, 1e3)
        channels = [scatter.IDENTITY] + [
            scattering_channel(rho_in, omega, mode) for mode in MODES
            for rho_in in (singlet(), probe_state(self.NEA),
                           max_entangled(rand_unitary(rng), rand_unitary(rng)))]
        for channel in channels:
            for _ in range(20):
                stack = channel.state(BlochVector.from_array(rand_bloch(rng, r_max=1.0)))._stack
                assert np.array_equal(stack, stack.conj().swapaxes(1, 2))

    @pytest.mark.parametrize("probe", [EA, NEA], ids=["ea", "nea"])
    def test_density_entry_equals_the_bloch_entry_bit_for_bit(self, probe):
        # apply_channel reads c = (1, v) off rho with the Pauli traces 2 Re Tr(rho B_k / 2);
        # where 1 + v_z and 1 - v_z are exact, rho(v) gives back v and so the blocks
        # of channel.state(v). Elsewhere rho(v) has rounded them, and the blocks are
        # those of the v that rho holds
        rng = np.random.default_rng(109)
        for i in range(90):
            omega, mode = log_uniform(rng, 1e-3, 1e3), MODES[i % 3]
            channel = scattering_channel(probe_state(probe), omega, mode)
            v = BlochVector.from_array(rand_bloch(rng))
            rho = bloch_to_density(v)
            c = 2.0 * np.einsum("ab,kba->k", rho, 0.5 * np.stack([ID2, *PAULIS])).real
            c[0] = 1.0
            by_rho = apply_channel(rho, probe, omega, mode)
            assert by_rho._stack.tobytes() == BranchState(channel, c)._stack.tobytes()
            exact = BlochVector(v.vx, v.vy, round(v.vz * 2**20) / 2**20)
            by_rho = apply_channel(bloch_to_density(exact), probe, omega, mode)
            assert by_rho._stack.tobytes() == channel.state(exact)._stack.tobytes()

    def test_a_target_skew_never_reaches_the_blocks(self):
        # any skew the 1e-10 target check allows gives the blocks of the target's
        # Hermitian part, bit for bit, on every channel
        rng = np.random.default_rng(113)
        for mode in MODES:
            for probe in (self.EA, self.NEA):
                for _ in range(30):
                    rho = bloch_to_density(BlochVector.from_array(rand_bloch(rng)))
                    k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    skewed = rho + (k - k.conj().T) * 2.4e-11 / np.abs(k).max()
                    herm = 0.5 * (skewed + skewed.conj().T)
                    a = apply_channel(skewed, probe, 0.7, mode)._stack
                    assert a.tobytes() == apply_channel(herm, probe, 0.7, mode)._stack.tobytes()
                    assert np.array_equal(a, a.conj().swapaxes(1, 2))

    def test_built_from_labels_and_maps(self):
        ref = scattering_channel(singlet(), 0.8, DetectionMode.TRANSMISSION)
        given = [np.array(m) for m in ref.maps]
        channel = Channel(ref.labels, given)
        v = BlochVector(0.1, -0.2, 0.3)
        assert_identical([[op for _, op in channel.state(v).blocks]],
                         [[op for _, op in ref.state(v).blocks]])
        assert_identical([channel.derivatives.stacks], [ref.derivatives.stacks])
        for m in given:  # the channel keeps read-only copies
            assert m.flags.writeable
            m[:] = 0.0
        assert_identical([channel.maps], [ref.maps])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("probe", [EA, NEA], ids=["ea", "nea"])
    def test_stacked_blocks_equal_the_per_block_sums_bit_for_bit(self, probe, mode):
        # one einsum over the padded map stack gives each block as its own map would
        rng = np.random.default_rng(97)
        channel = scattering_channel(probe_state(probe), log_uniform(rng, 1e-3, 1e3), mode)
        for _ in range(50):
            v = BlochVector.from_array(rand_bloch(rng))
            c = np.array([1.0, v.vx, v.vy, v.vz])
            state = channel.state(v)
            for (_, op), m in zip(state.blocks, channel.maps):
                assert op.tobytes() == np.einsum("k,kij->ij", c, m).tobytes()

    def test_rejects_misaligned_labels_and_maps_without_four_inputs(self):
        maps = scattering_channel(singlet(), 0.8, DetectionMode.BOTH).maps
        with pytest.raises(ValueError, match="misaligned"):
            Channel((BlockLabel.TRANSMITTED_SPIN,), maps)
        with pytest.raises(ValueError, match="misaligned"):
            Channel((BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN,
                     BlockLabel.VACUUM_RHS), maps)
        for bad in (maps[0][:3], np.concatenate([maps[0], maps[0][:1]])):
            with pytest.raises(ValueError, match="three axes"):
                Channel((BlockLabel.TRANSMITTED_SPIN,), (bad,))

    def test_refuses_non_finite_maps_and_repeated_labels_when_built(self):
        # each fails at construction with its own message, before any state is made
        labels = (BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS)
        maps = [np.array(m) for m in scattering_channel(
            probe_state(self.NEA), 0.8, DetectionMode.TRANSMISSION).maps]
        nan_sigma, inf_identity = [m.copy() for m in maps], [m.copy() for m in maps]
        nan_sigma[1][2, 0, 0] = complex(0.0, math.nan)  # complex: both parts count
        inf_identity[0][0, 1, 0] = math.inf
        with pytest.raises(ValueError, match="block map BlockLabel.VACUUM_RHS has a "
                                             "non-finite entry"):
            Channel(labels, nan_sigma)
        with pytest.raises(ValueError, match="block map BlockLabel.TRANSMITTED_SPIN has a "
                                             "non-finite entry"):
            Channel(labels, inf_identity)
        with pytest.raises(ValueError, match="duplicate block labels"):
            Channel((BlockLabel.TRANSMITTED_SPIN,) * 2, maps)

    def test_pads_once_per_channel_and_never_per_target(self, monkeypatch):
        calls = []
        pad = scatter._pad

        def counted(maps):
            calls.append(len(maps))
            return pad(maps)

        monkeypatch.setattr(scatter, "_pad", counted)
        scatter._probe_channel.cache_clear()
        channel = scattering_channel(singlet(), 0.7, DetectionMode.TRANSMISSION)
        assert calls == [2]
        apply_channel(ID2 / 2, self.NEA, 0.7, DetectionMode.BOTH)  # builds the probe channel
        assert calls == [2, 2]
        rng = np.random.default_rng(103)
        for _ in range(100):
            v = BlochVector.from_array(rand_bloch(rng))
            channel.state(v)
            apply_channel(bloch_to_density(v), self.NEA, 0.7, DetectionMode.BOTH)
        assert calls == [2, 2]

    def test_rejects_bad_probe_input(self):
        for rho_in in (np.eye(3) / 3, np.ones((2, 4)) / 4):
            with pytest.raises(ValueError):
                scattering_channel(rho_in, 0.5, DetectionMode.BOTH)

    def test_rejects_unknown_mode(self):
        # a ValueError naming the mode, not a KeyError from the table lookup nor,
        # for an unhashable mode, a TypeError from the channel cache
        v = BlochVector(0.1, 0.2, 0.3)
        for mode in ("both", "t", None, 3, ["both"], {}):
            for probe, strategy in ((self.EA, "ea"), (self.NEA, "nea")):
                calls = (lambda: scattering_channel(probe_state(probe), 0.5, mode),
                         lambda: apply_channel(ID2 / 2, probe, 0.5, mode),
                         lambda: channel_derivatives(probe, 0.5, mode),
                         lambda: encoding(strategy, v, 0.5, mode, probe.theta_a))
                for call in calls:
                    with pytest.raises(ValueError,
                                       match=re.escape(f"unknown detection mode {mode}")):
                        call()

    def test_import_time_tables_refuse_writes(self):
        for d, tables in scatter._TABLES.items():
            assert set(tables) == set(DetectionMode)
            for table in tables.values():
                assert table.shape[0] == 8 * d * d
                with pytest.raises(ValueError):
                    table[0, 0] = 1.0
