import math

import numpy as np
import pytest

import scattertomo.qfi as qfi_module
from scattertomo.closedform import direct_qfi, ea_cartesian, ea_polar, nea_qfi, purity_bound
from scattertomo.qfi import (
    CARTESIAN,
    POLAR,
    QfiMatrix,
    cartesian_to_polar,
    check_pure_target,
    cr_bound,
    polar_gradient,
    polar_jacobian,
    qfi_numeric,
)
from scattertomo.scatter import (
    BlockLabel,
    DetectionMode,
    apply_channel,
    channel_derivatives,
    direct_branches,
    encoding,
)
from scattertomo.states import (AXIS_TOL, ID2, NORM_TOL, BlochVector, PolarCoords, ProbeConfig,
                                bloch_to_density, bloch_to_polar, polar_to_bloch)

from conftest import branches, log_uniform, rand_ball, rand_bloch, relerr

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


def reference_qfi(state, derivs, eps=1e-12):
    """The spectral sum block by block, one eigh per block: the oracle before its blocks
    were stacked, kept as the reference for the padded sum."""
    h = np.zeros((3, 3))
    for (_, op), stack in zip(state.blocks, derivs.stacks):
        lam, vec = np.linalg.eigh(0.5 * (op + op.conj().T))
        lam, vec = lam[::-1].clip(0.0, None), vec[:, ::-1].copy()
        weights = lam[:, None] + lam[None, :]
        mask = weights > eps * lam[0]
        if not mask.any():
            continue
        rotated = vec.conj().T @ stack @ vec
        inv_w = np.divide(1.0, weights, out=np.zeros_like(weights), where=mask)
        h += 2.0 * np.einsum("anm,bnm,nm->ab", rotated, np.conj(rotated), inv_w).real
    return 0.5 * (h + h.T)


def rand_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def traceless_stack(rng, dim):
    """(3, dim, dim) random Hermitian derivative blocks of zero trace."""
    blocks = [rand_hermitian(rng, dim) for _ in range(3)]
    return np.stack([b - np.trace(b).real / dim * np.eye(dim) for b in blocks])


def ea_pair(v, omega, mode):
    return encoding("ea", BlochVector.from_array(v), omega, mode, 0.0)


def nea_pair(vz, theta_a, omega, mode):
    return encoding("nea", BlochVector(0.0, 0.0, vz), omega, mode, theta_a)


class TestQfiNumeric:
    def test_direct_pole_entry(self):
        state, derivs = direct_branches(BlochVector(0, 0, 0.5))
        h = qfi_numeric(state, derivs)
        assert abs(h.h[2, 2] - 4.0 / 3.0) < 1e-12

    def test_direct_matches_polar_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.95, r_min=0.05))
            state, derivs = direct_branches(v)
            h_polar = cartesian_to_polar(qfi_numeric(state, derivs), bloch_to_polar(v))
            coeffs = direct_qfi(v.norm)
            expected = coeffs.matrix(bloch_to_polar(v).theta).h
            assert relerr(h_polar.h, expected) < 1e-10

    def test_zero_derivative_block_contributes_nothing(self):
        state, derivs = branches((BlockLabel.TRANSMITTED_SPIN,), (ID2 / 2,))
        assert np.max(np.abs(qfi_numeric(state, derivs).h)) == 0.0

    def test_ea_both_matches_closed_form_at_quoted_point(self):
        state, derivs = ea_pair([0.0, 0.0, 0.3], 0.616, DetectionMode.BOTH)
        h = qfi_numeric(state, derivs)
        expected = ea_cartesian(BlochVector(0, 0, 0.3), 0.616, DetectionMode.BOTH)
        assert relerr(h.h, expected.h) < 1e-9

    def test_eps_must_be_positive_and_finite(self):
        state, derivs = direct_branches(BlochVector(0, 0, 0.5))
        for eps in (math.nan, math.inf, -math.inf, 0.0, -1e-12):
            with pytest.raises(ValueError, match="eps"):
                qfi_numeric(state, derivs, eps=eps)

    def test_slightly_non_hermitian_block_raises(self):
        # an anti-Hermitian part of 5e-12 is above 1e-12 relative to the largest entry
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            qfi_numeric(*branches((BlockLabel.TRANSMITTED_SPIN,), (ID2 / 2 + 1e-11 * skew,)))
        state, derivs = branches((BlockLabel.TRANSMITTED_SPIN,), (ID2 / 2 + 1e-13 * skew,))
        assert np.max(np.abs(qfi_numeric(state, derivs).h)) == 0.0

    def test_one_eigensolve_per_state(self, monkeypatch):
        # building a state solves its padded (n, d, d) block stack with one eigh;
        # qfi_numeric solves no eigenproblem at all, since QfiMatrix decides its PSD
        # test by an LDL^T on Python floats
        solved = []

        def counted(name):
            solve = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                solved.append((name, np.shape(a)))
                return solve(a, *args, **kwargs)
            return wrapper

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        for build in (lambda: ea_pair([0.1, -0.2, 0.3], 0.6, DetectionMode.BOTH),
                      lambda: ea_pair([0.0, 0.0, 0.0], 0.6, DetectionMode.REFLECTION),
                      lambda: nea_pair(0.3, 0.4, 0.6, DetectionMode.TRANSMISSION)):
            state, derivs = build()
            d = max(state.sizes)
            assert solved == [("eigh", (len(state.blocks), d, d))]
            solved.clear()
            qfi_numeric(state, derivs)
            assert solved == []
            solved.clear()

    def test_output_is_the_symmetrized_spectral_sum(self, monkeypatch):
        # QfiMatrix keeps 0.5 (h + h^T) of the spectral sum bit for bit, the numpy
        # expression it used to evaluate; 600 seeded points per strategy and mode
        sums = []

        def recorded(basis, h, matrix=QfiMatrix):
            sums.append(h.copy())
            return matrix(basis, h)
        monkeypatch.setattr(qfi_module, "QfiMatrix", recorded)
        rng = np.random.default_rng(17)
        for strategy in ("ea", "nea"):
            for mode in MODES:
                for _ in range(600):
                    v = BlochVector.from_array(rand_ball(rng, r_max=0.999))
                    omega, theta_a = log_uniform(rng, 1e-3, 1e3), rng.uniform(0.0, math.pi)
                    h = qfi_numeric(*encoding(strategy, v, omega, mode, theta_a)).h
                    raw = sums.pop()
                    assert h.tobytes() == (0.5 * (raw + raw.T)).tobytes()

    def test_matches_the_per_block_reference(self):
        # one stacked pass equals the per-block sum bit for bit where every block has
        # one size (direct, NEA, EA both); EA t/r pads its 2x2 ancilla block to 4x4,
        # and its eigenvectors differ in rounding only
        rng = np.random.default_rng(29)
        for strategy in ("ea", "nea", "direct"):
            for mode in MODES:
                for _ in range(150):
                    v = BlochVector.from_array(rand_ball(rng, r_max=0.999))
                    omega, theta_a = log_uniform(rng, 1e-3, 1e3), rng.uniform(0.0, math.pi)
                    state, derivs = encoding(strategy, v, omega, mode, theta_a)
                    h, ref = qfi_numeric(state, derivs).h, reference_qfi(state, derivs)
                    if len(set(state.sizes)) == 1:
                        assert h.tobytes() == ref.tobytes()
                    else:
                        assert relerr(h, ref) <= 4.4e-16

    def test_mixed_block_sizes(self):
        # blocks of 3, 1 and 2 rows, padded to 3x3
        labels = (BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS, BlockLabel.REFLECTED_SPIN)
        rng = np.random.default_rng(37)
        for _ in range(50):
            ops = []
            for dim in (3, 1, 2):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                ops.append(g @ g.conj().T)
            total = sum(np.trace(op).real for op in ops)
            state, derivs = branches(labels, [op / total for op in ops],
                                     [traceless_stack(rng, d) for d in (3, 1, 2)])
            assert state.sizes == derivs.sizes == (3, 1, 2)
            assert relerr(qfi_numeric(state, derivs).h, reference_qfi(state, derivs)) <= 4.4e-16

    def test_zero_eigenvalue_degenerate_with_the_padding(self):
        # the 2x2 block diag(0, 0.3) is padded to 3x3: its eigenvalue 0 shares a
        # two-dimensional eigenspace with the padding, and only the null vector
        # couples to the weight 0.3 (the classical term |d_01|^2 / 0.3)
        labels = (BlockLabel.TRANSMITTED_SPIN, BlockLabel.REFLECTED_SPIN)
        coupling = np.array([[0.0, 0.25 - 0.5j], [0.25 + 0.5j, 0.0]])
        big = np.zeros((3, 3, 3), dtype=complex)
        state, derivs = branches(labels, (np.diag([0.4, 0.2, 0.1]), np.diag([0.0, 0.3])),
                                 (big, np.stack([coupling, 0 * coupling, coupling])))
        h = qfi_numeric(state, derivs).h
        assert np.array_equal(reference_qfi(state, derivs), h)
        assert abs(h[0, 0] - 4.0 * 0.3125 / 0.3) < 1e-15 and h[1, 1] == 0.0

    def test_small_block_keeps_its_weights(self):
        # every eigenvalue of the vacuum block is below eps = 1e-12, yet its own
        # largest eigenvalue sets its cutoff: the 1x1 block p gives dp^2 / p
        labels = (BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS)
        p, dp = 4e-14, 2e-14
        spin = np.zeros((3, 2, 2), dtype=complex)
        spin[2] = np.diag([-dp, 0.0])
        state, derivs = branches(labels, (np.diag([0.75 - p, 0.25]), [[p]]),
                                 (spin, np.array([[[0.0]], [[0.0]], [[dp]]])))
        h = qfi_numeric(state, derivs).h
        assert np.array_equal(reference_qfi(state, derivs), h)
        assert abs(h[2, 2] / (dp**2 / (0.75 - p) + dp**2 / p) - 1.0) < 1e-14

    def test_block_size_mismatch_rejected(self):
        # same labels, the 2x2 and 1x1 blocks swapped in the derivatives
        labels = (BlockLabel.TRANSMITTED_SPIN, BlockLabel.VACUUM_RHS)
        state, _ = branches(labels, (np.diag([0.5, 0.3]), [[0.2]]))
        _, derivs = branches(labels, ([[0.5]], np.diag([0.3, 0.2])))
        with pytest.raises(ValueError, match=r"state block sizes \(2, 1\) do not match "
                                             r"derivative block sizes \(1, 2\)"):
            qfi_numeric(state, derivs)

    def test_label_misalignment_rejected(self):
        state, _ = ea_pair([0.1, 0.0, 0.2], 0.7, DetectionMode.BOTH)
        _, derivs = nea_pair(0.2, 0.3, 0.7, DetectionMode.TRANSMISSION)
        with pytest.raises(ValueError):
            qfi_numeric(state, derivs)

    def test_eps_robustness(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            state, derivs = ea_pair(rand_bloch(rng), log_uniform(rng, 0.05, 20),
                                    MODES[rng.integers(3)])
            h_12 = qfi_numeric(state, derivs, eps=1e-12)
            h_13 = qfi_numeric(state, derivs, eps=1e-13)
            assert relerr(h_12.h, h_13.h) < 1e-8

    def test_cutoff_is_relative_to_the_block(self):
        # at Omega = 5e-4 the reflected block's weights (~9 Omega^4) are far
        # below 1e-12, yet carry the information of a well-conditioned H
        v = BlochVector(0.1, 0.2, 0.3)
        h_num = qfi_numeric(*ea_pair(v.as_array(), 5e-4, DetectionMode.BOTH))
        expected = np.linalg.inv(ea_cartesian(v, 5e-4, DetectionMode.BOTH).h)[2, 2]
        assert abs(cr_bound(h_num, 1, "z") / expected - 1.0) < 1e-8

    @pytest.mark.parametrize("omega, mode", [(1e-7, DetectionMode.REFLECTION),
                                             (1e6, DetectionMode.TRANSMISSION)])
    def test_block_small_as_a_whole(self, omega, mode):
        # the detected spin block has every eigenvalue below 1e-12
        v = BlochVector(0.1, 0.2, 0.3)
        h_num = qfi_numeric(*ea_pair(v.as_array(), omega, mode))
        assert relerr(h_num.h, ea_cartesian(v, omega, mode).h) < 1e-8

    def test_symmetric_psd(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            state, derivs = ea_pair(rand_bloch(rng), log_uniform(rng, 0.05, 20),
                                    MODES[rng.integers(3)])
            h = qfi_numeric(state, derivs)
            assert np.allclose(h.h, h.h.T)
            assert np.linalg.eigvalsh(h.h).min() > -1e-9

    def test_data_loss_monotonicity(self):
        # discarding a detector can only lose information: H_both - H_t/r PSD
        rng = np.random.default_rng(73)
        for _ in range(20):
            v = rand_bloch(rng)
            om = log_uniform(rng, 0.05, 20)
            h_both = qfi_numeric(*ea_pair(v, om, DetectionMode.BOTH)).h
            for mode in (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION):
                diff = h_both - qfi_numeric(*ea_pair(v, om, mode)).h
                assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() > -1e-9


class TestQfiSingle:
    """The QFI of the one-parameter family along an axis: a diagonal entry."""

    def test_no_interaction_limit(self):
        state, derivs = nea_pair(0.0, 0.0, 1e-4, DetectionMode.BOTH)
        assert qfi_numeric(state, derivs).entry("z", "z") < 1e-6

    def test_equals_matrix_entry(self):
        # the family along one axis has that axis's derivative blocks and no others
        state, derivs = ea_pair([0.2, -0.1, 0.4], 0.9, DetectionMode.TRANSMISSION)
        h = qfi_numeric(state, derivs)
        for idx, axis in enumerate("xyz"):
            alone = branches(derivs.labels, [op for _, op in state.blocks], [
                np.stack([stack[idx], np.zeros_like(stack[idx]), np.zeros_like(stack[idx])])
                for stack in derivs.stacks])
            assert abs(qfi_numeric(*alone).entry("x", "x") - h.entry(axis, axis)) < 1e-12

    def test_ea_both_equals_radial_coefficient_on_axis(self):
        for vz in (0.1, 0.45, 0.8):
            for om in (0.3, 0.616, 2.0):
                state, derivs = ea_pair([0.0, 0.0, vz], om, DetectionMode.BOTH)
                val = qfi_numeric(state, derivs).entry("z", "z")
                expected = ea_polar(vz, om, DetectionMode.BOTH).c_r
                assert abs(val - expected) < 1e-9 * max(1, expected)

    def test_nea_matches_closed_form(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            vz = rng.uniform(-0.9, 0.9)
            ta = rng.uniform(0, math.pi)
            om = log_uniform(rng, 0.05, 20)
            mode = MODES[rng.integers(3)]
            state, derivs = nea_pair(vz, ta, om, mode)
            val = qfi_numeric(state, derivs).entry("z", "z")
            expected = nea_qfi(vz, ta, om, mode)
            assert abs(val - expected) < 1e-9 * max(1.0, abs(expected))

    def test_direct_family(self):
        for vz in (0.0, 0.3, 0.7):
            state, derivs = direct_branches(BlochVector(0, 0, vz))
            assert abs(qfi_numeric(state, derivs).entry("z", "z") - 1 / (1 - vz**2)) < 1e-12

    def test_bad_axis(self):
        state, derivs = direct_branches(BlochVector(0, 0, 0.1))
        with pytest.raises(ValueError, match="named by"):
            qfi_numeric(state, derivs).entry("w", "w")


# Reference QFI matrices of the oracle at Omega = 0.6, NEA probes at theta_a = 0.7,
# as the upper triangle (xx, xy, xz, yy, yz, zz). Keys are (strategy, mode, |v|):
# v = 0 gives the degenerate EA spectra; |v| = 0.999 lies along PIN_DIRECTION,
# except for "nea_axis", which is on the z axis.
PIN_OMEGA, PIN_THETA_A = 0.6, 0.7
PIN_DIRECTION = np.array([0.48, -0.6, 0.64])
ORACLE_PINS = {
    ("ea", "t", "0"): (0.3824962495883693, 0.0, 0.0,
                       0.3824962495883693, 0.0, 0.38249624958836925),
    ("ea", "t", "0.999"): (39.81976871530629, -49.22823786541513, 52.5101203897762,
                           61.97247575474308, -65.63765048722021, 70.45067227600913),
    ("nea_axis", "t", "0"): (0.2976926253370094, 8.464943677142916e-18, -0.0036917447427139774,
                             0.300802139037433, -1.6941223834001973e-17, 0.29641914524534924),
    ("nea_axis", "t", "0.999"): (0.28781964213502226, 1.2480918687026003e-16, 0.6710474056361954,
                                 0.2601445284517746, 2.594018629629862e-15, 14.892497673577267),
    ("nea_off", "t", "0.999"): (4.910088007254353, -5.352058943480136, 6.147957950509173,
                                6.412772061545708, -7.073446501361937, 8.384405366275473),
    ("ea", "r", "0"): (0.34122677680412256, 0.0, 0.0,
                       0.34122677680412256, 0.0, 0.3412267768041226),
    ("ea", "r", "0.999"): (36.67226543168132, -45.384262487466074, 48.40987998663046,
                           57.09518355104106, -60.512349983288075, 64.91136209054905),
    ("nea_axis", "r", "0"): (0.16168083295422636, -8.049876222620564e-18, -0.009500813676102253,
                             0.16968325791855202, -7.889592333458809e-18, 0.15840349448304217),
    ("nea_axis", "r", "0.999"): (0.2526441298623329, 4.412956478397802e-17, 0.6249066085113406,
                                 0.22471525693093075, 3.256229471186373e-16, 5.5587363997748405),
    ("nea_off", "r", "0.999"): (2.1434435837177683, -1.9452167410060288, 2.5014493924225696,
                                2.1403445263112015, -2.5329455901307787, 3.4938496076409233),
    ("ea", "both", "0"): (0.6581635858330513, 0.0, 0.0,
                          0.6581635858330513, 0.0, 0.6581635858330513),
    ("ea", "both", "0.999"): (76.42516499191075, -94.61086320973443, 100.91825409038343,
                              119.00005343629124, -126.14781761297925, 135.29414654463443),
    ("nea_axis", "both", "0"): (0.43216521341252867, 4.1506745452235205e-19, -0.04549532491756383,
                                0.470485396955985, -2.4830816167460783e-17, 0.41647144404765796),
    ("nea_axis", "both", "0.999"): (0.5093015893346455, 1.6893875165423806e-16, 1.2589569673099943,
                                    0.48485978538270535, 2.919641576748499e-15, 20.40730963168143),
    ("nea_off", "both", "0.999"): (7.022103355045504, -7.297275684486165, 8.612094426529715,
                                   8.553116587856909, -9.606392091492715, 11.833955518685265),
    ("direct", "-", "0"): (1.0, 0.0, 0.0,
                           1.0, 0.0, 1.0),
    ("direct", "-", "0.999"): (116.0272288144327, -143.7840360180409, 153.36963841924359,
                               180.7300450225511, -191.7120480240545, 205.4928512256581),
}


class TestOraclePins:
    @pytest.mark.parametrize("key", list(ORACLE_PINS), ids="-".join)
    def test_matches_pinned_matrix(self, key):
        strategy, mode, radius = key
        direction = np.array([0.0, 0.0, 1.0]) if strategy == "nea_axis" else PIN_DIRECTION
        v = BlochVector.from_array(float(radius) * direction)
        if strategy == "direct":
            state, derivs = direct_branches(v)
        else:
            probe = ProbeConfig(theta_a=PIN_THETA_A, entangled=(strategy == "ea"))
            state = apply_channel(bloch_to_density(v), probe, PIN_OMEGA, DetectionMode(mode))
            derivs = channel_derivatives(probe, PIN_OMEGA, DetectionMode(mode))
        expected = np.zeros((3, 3))
        expected[np.triu_indices(3)] = ORACLE_PINS[key]
        expected = expected + np.triu(expected, 1).T
        assert relerr(qfi_numeric(state, derivs).h, expected) <= 1e-13


class TestQfiMatrixChecks:
    @pytest.mark.parametrize("h", [np.diag([1.0, math.nan, 1.0]), np.diag([1.0, 1.0, math.inf]),
                                   np.diag([-math.inf, 1.0, 1.0]), np.eye(2), np.eye(4),
                                   np.ones(3), np.eye(3)[:, :2]])
    def test_rejects_nonfinite_or_not_3x3(self, h):
        with pytest.raises(ValueError, match="finite 3x3 real matrix"):
            QfiMatrix(CARTESIAN, h)

    @pytest.mark.parametrize("h", [np.eye(3) + 0.5j * np.ones((3, 3)), np.eye(3) + 0j,
                                   [[1, 0, 0], [0, 1j, 0], [0, 0, 1]]])
    def test_rejects_a_complex_matrix(self, h):
        # even with a zero imaginary part: it is refused, not cast to real
        with pytest.raises(ValueError, match="finite 3x3 real matrix"):
            QfiMatrix(CARTESIAN, h)

    @pytest.mark.parametrize("diag", [(0.5, 0.2, 0.1), (4.0, 2.0, 1.0)])
    def test_symmetry_tolerance_scales_with_the_largest_entry(self, diag):
        limit = 1e-10 * max(1.0, *diag)
        h = np.diag(diag)
        h[0, 1] = 1.001 * limit
        with pytest.raises(ValueError, match="not symmetric"):
            QfiMatrix(CARTESIAN, h)
        h[0, 1] = 0.999 * limit
        assert QfiMatrix(CARTESIAN, h).h[1, 0] == 0.5 * h[0, 1]

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    @pytest.mark.parametrize("diag", [(0.5, 0.2, 0.1), (4.0, 2.0, 1.0)])
    def test_symmetry_is_checked_on_every_pair(self, diag, pair):
        # the boundary of test_symmetry_tolerance_scales_with_the_largest_entry, per entry
        limit = 1e-10 * max(1.0, *diag)
        h = np.diag(diag)
        h[pair] = 1.001 * limit
        with pytest.raises(ValueError, match="not symmetric"):
            QfiMatrix(CARTESIAN, h)
        h[pair] = 0.999 * limit
        assert QfiMatrix(CARTESIAN, h).h[pair[::-1]] == 0.5 * h[pair]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pair", [(0, 1), (2, 1)])
    def test_rejects_a_nonfinite_off_diagonal(self, bad, pair):
        for both in (False, True):
            h = np.eye(3)
            h[pair] = bad
            if both:  # symmetric, so only the finiteness test can refuse it
                h[pair[::-1]] = bad
            with pytest.raises(ValueError, match="finite 3x3 real matrix"):
                QfiMatrix(CARTESIAN, h)

    def test_accepts_integer_input(self):
        q = QfiMatrix(CARTESIAN, [[2, 1, 0], [1, 2, 0], [0, 0, 1]])
        assert q.h.dtype == float
        assert np.array_equal(q.h, [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(QfiMatrix(CARTESIAN, np.eye(3, dtype=np.int64)).h, np.eye(3))

    @pytest.mark.parametrize("diag", [(0.5, 0.2), (4.0, 2.0)])
    def test_psd_tolerance_scales_with_the_largest_entry(self, diag):
        limit = 1e-9 * max(1.0, *diag)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            QfiMatrix(CARTESIAN, np.diag([*diag, -1.001 * limit]))
        assert QfiMatrix(CARTESIAN, np.diag([*diag, -0.999 * limit])).h[2, 2] < 0.0

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_psd_boundary_along_a_rotated_eigenvector(self, scale):
        q, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))

        def form(lam):
            return (q * lam) @ q.T
        tau = 1e-9 * max(1.0, np.abs(form([3.0 * scale, 1.5 * scale, 0.0])).max())
        QfiMatrix(CARTESIAN, form([3.0 * scale, 1.5 * scale, -0.5 * tau]))  # accepted
        with pytest.raises(ValueError, match="not positive semidefinite"):
            QfiMatrix(CARTESIAN, form([3.0 * scale, 1.5 * scale, -2.0 * tau]))

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e6])
    def test_psd_accepts_singular_forms(self, c):
        rng = np.random.default_rng(32)
        n, m = (u / np.linalg.norm(u) for u in rng.normal(size=(2, 3)))
        for h in (np.zeros((3, 3)), c * np.outer(n, n), c * np.outer(np.eye(3)[1], np.eye(3)[1]),
                  c * np.outer(n, n) + 0.3 * c * np.outer(m, m),  # rank 2
                  0.2 * c * np.eye(3) + 0.8 * c * np.outer(n, n)):  # the EA form
            assert np.array_equal(QfiMatrix(CARTESIAN, h).h, 0.5 * (h + h.T))

    def test_psd_decision_agrees_with_eigvalsh(self):
        # eigvalsh, the test the LDL^T replaced, is the reference; matrices whose smallest
        # eigenvalue lies within 1e-12 s of the threshold -1e-9 s are not decided by it
        rng = np.random.default_rng(33)
        count = 12000
        q, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
        scale = 10.0**rng.uniform(-3.0, 6.0, size=count)
        lam = scale[:, None] * rng.uniform(size=(count, 3))
        tau = 1e-9 * np.maximum(1.0, scale)
        lam[:, 2] = rng.uniform(-10.0, 10.0, size=count) * tau
        kind = rng.integers(10, size=count)
        lam[kind == 0, 1:] = 0.0  # rank 1
        lam[kind == 1, 2] = 0.0  # rank 2
        indefinite = kind == 2
        lam[indefinite, 2] = -rng.uniform(size=indefinite.sum()) * scale[indefinite]
        mats = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        sym = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        s = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        lam_min = np.linalg.eigvalsh(sym)[:, 0]
        decided = np.abs(lam_min + 1e-9 * s) > 1e-12 * s
        assert decided.sum() >= 0.99 * count
        accepted = []
        for h, ok in zip(mats[decided], lam_min[decided] >= -1e-9 * s[decided]):
            try:
                QfiMatrix(CARTESIAN, h)
                accepted.append(True)
            except ValueError as exc:
                assert "not positive semidefinite" in str(exc)
                accepted.append(False)
            assert accepted[-1] == ok, (h, ok)
        assert 0.3 * count < sum(accepted) < 0.8 * count

    def test_stores_the_symmetrized_matrix(self):
        h = np.array([[4.0, 1.0 + 3e-10, 0.5], [1.0, 3.0, 0.2 - 1e-10], [0.5, 0.2, 2.0]])
        q = QfiMatrix(CARTESIAN, h)
        assert np.array_equal(q.h, 0.5 * (h + h.T))
        assert np.array_equal(q.h, q.h.T)


class TestReparameterize:
    def test_identity(self):
        # on the unit equator B is orthogonal, so the identity QFI stays the identity
        h = QfiMatrix(CARTESIAN, np.eye(3))
        out = cartesian_to_polar(h, PolarCoords(1.0, math.pi / 2, 2.3))
        assert out.basis == POLAR
        assert relerr(out.h, np.eye(3)) < 1e-15

    def test_diagonal_scaling(self):
        # an isotropic QFI c I becomes c diag(1, r^2, r^2 sin^2 theta)
        h = QfiMatrix(CARTESIAN, 2.0 * np.eye(3))
        p = PolarCoords(0.5, 1.1, 5.9)
        out = cartesian_to_polar(h, p)
        expected = 2.0 * np.diag([1.0, p.r**2, (p.r * math.sin(p.theta))**2])
        assert relerr(out.h, expected) < 1e-15

    def test_cartesian_to_polar_diagonalizes_ea(self):
        rng = np.random.default_rng(83)
        for mode in MODES:
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.9, r_min=0.1))
            om = log_uniform(rng, 0.1, 5)
            p = bloch_to_polar(v)
            h_polar = cartesian_to_polar(ea_cartesian(v, om, mode), p)
            coeffs = ea_polar(p.r, om, mode)
            expected = np.diag([coeffs.c_r, coeffs.c_theta,
                                coeffs.c_theta * math.sin(p.theta)**2])
            assert relerr(h_polar.h, expected) < 1e-10

    def test_polar_jacobian_rows(self):
        p = PolarCoords(0.5, 1.1, 2.0)
        b = polar_jacobian(p)
        assert b.shape == (3, 3)
        # row j is d v / d (r, theta, phi)_j, checked by central differences
        step = 1e-6
        for j in range(3):
            hi, lo = np.array([p.r, p.theta, p.phi]), np.array([p.r, p.theta, p.phi])
            hi[j] += step
            lo[j] -= step
            fd = (polar_to_bloch(PolarCoords(*hi)).as_array()
                  - polar_to_bloch(PolarCoords(*lo)).as_array()) / (2 * step)
            assert np.max(np.abs(b[j] - fd)) < 1e-9
        assert abs(np.linalg.norm(b[0]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(b[1]) - p.r) < 1e-12
        assert abs(np.linalg.norm(b[2]) - p.r * math.sin(p.theta)) < 1e-12

    def test_cartesian_to_polar_refuses_polar_input(self):
        with pytest.raises(ValueError):
            cartesian_to_polar(QfiMatrix(POLAR, np.eye(3)), PolarCoords(0.5, 1.0, 0.0))


class TestPolarGradient:
    def test_central_differences(self):
        rng = np.random.default_rng(97)
        step = 1e-6
        for _ in range(20):
            vec = rand_bloch(rng, r_max=0.9, r_min=0.1)
            v = BlochVector.from_array(vec)
            for k, param in enumerate(("r", "theta", "phi")):
                fd = np.zeros(3)
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = step
                    hi = bloch_to_polar(BlochVector.from_array(vec + e))
                    lo = bloch_to_polar(BlochVector.from_array(vec - e))
                    diff = (hi.r - lo.r, hi.theta - lo.theta, hi.phi - lo.phi)[k]
                    fd[j] = math.remainder(diff, 2 * math.pi) / (2 * step)  # phi wraps
                grad = polar_gradient(v, param)
                assert grad.shape == (3,)
                assert np.max(np.abs(grad - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))

    def test_gradient_bound_matches_polar_component(self):
        # g^T H^-1 g / M is the component bound of the reparameterized matrix
        rng = np.random.default_rng(98)
        for mode in MODES:
            v = BlochVector.from_array(rand_bloch(rng, r_max=0.9, r_min=0.1))
            h = ea_cartesian(v, log_uniform(rng, 0.1, 5), mode)
            h_polar = cartesian_to_polar(h, bloch_to_polar(v))
            for param in ("r", "theta", "phi"):
                via_gradient = cr_bound(h, 3, polar_gradient(v, param))
                assert abs(via_gradient / cr_bound(h_polar, 3, param) - 1.0) < 1e-12

    def test_undefined_at_the_origin(self):
        for param in ("r", "theta", "phi"):
            with pytest.raises(ValueError, match="origin"):
                polar_gradient(BlochVector(0.0, 0.0, 0.0), param)

    @pytest.mark.parametrize("param", ["theta", "phi"])
    def test_undefined_on_the_z_axis(self, param):
        for vz in (0.5, -1.0):
            with pytest.raises(ValueError, match="z axis"):
                polar_gradient(BlochVector(0.0, 0.0, vz), param)
        # the radial gradient is defined there
        assert np.array_equal(polar_gradient(BlochVector(0.0, 0.0, -0.5), "r"), [0, 0, -1])

    def test_unknown_coordinate(self):
        with pytest.raises(ValueError):
            polar_gradient(BlochVector(0.1, 0.2, 0.3), "x")


class TestCheckPureTarget:
    PURE = (BlochVector(0.0, 0.0, 1.0), BlochVector(0.6, 0.0, -0.8), BlochVector(0.0, 1.0, 0.0))

    def test_matrix_is_refused_on_a_pure_target(self):
        for v in self.PURE:
            with pytest.raises(ValueError, match="^the QFI matrix needs the radial QFI.*pure"):
                check_pure_target(v, None, "the QFI matrix")

    def test_mixed_targets_pass(self):
        for v in (BlochVector(0.0, 0.0, 1.0 - 2 * NORM_TOL), BlochVector(0.0, 0.0, 0.999999),
                  BlochVector(0.0, 0.0, 0.0)):
            check_pure_target(v, None, "the QFI matrix")
            check_pure_target(v, np.array([0.0, 0.0, 1.0]), "--param z")
        # within NORM_TOL of 1 the target counts as pure
        with pytest.raises(ValueError, match="pure target"):
            check_pure_target(BlochVector(0.0, 0.0, 1.0 - 0.5 * NORM_TOL), None, "matrix")

    def test_gradient_along_the_bloch_vector_is_refused(self):
        for v in self.PURE:
            for grad in (v.as_array(), -2.0 * v.as_array(), v.as_array() + [0.3, 0.0, 0.0]):
                with pytest.raises(ValueError, match="^--param r needs"):
                    check_pure_target(v, grad, "--param r")

    def test_gradient_across_the_bloch_vector_passes(self):
        check_pure_target(BlochVector(0.0, 0.0, 1.0), np.array([1.0, 0.0, 0.0]), "--param x")
        check_pure_target(BlochVector(0.6, 0.0, 0.8), np.array([0.8, 0.0, -0.6]), "--param theta")
        check_pure_target(BlochVector(0.6, 0.0, 0.8), np.array([0.0, 5.0, 0.0]), "--param y")

    def test_across_means_below_axis_tol(self):
        pole = BlochVector(0.0, 0.0, 1.0)
        check_pure_target(pole, np.array([1.0, 0.0, 0.5 * AXIS_TOL]), "g")
        check_pure_target(pole, np.array([1.0, 0.0, -0.5 * AXIS_TOL]), "g")
        for along in (AXIS_TOL, -AXIS_TOL):
            with pytest.raises(ValueError, match="pure target"):
                check_pure_target(pole, np.array([1.0, 0.0, along]), "g")


class TestCrBound:
    def test_component(self):
        h = QfiMatrix(CARTESIAN, np.diag([4.0, 1.0, 1.0]))
        res = cr_bound(h, 1, "x")
        assert res == 0.25

    def test_direct_radial_bound(self):
        coeffs = direct_qfi(0.5)
        h = coeffs.matrix(1.0)
        res = cr_bound(h, 10, "r")
        assert abs(res - 0.075) < 1e-12

    def test_matrix_bound(self):
        h = QfiMatrix(CARTESIAN, np.diag([4.0, 2.0, 1.0]))
        res = cr_bound(h, 2, "matrix")
        assert np.allclose(res, np.diag([0.125, 0.25, 0.5]))

    def test_singular_matrix_raises(self):
        h = QfiMatrix(POLAR, np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            cr_bound(h, 1, "matrix")
        with pytest.raises(ValueError):
            cr_bound(h, 1, "r")

    def test_small_well_conditioned_matrix_inverts(self):
        # at small Omega the whole EA matrix is small (det ~ 4e-14) but cond(H) ~ 1.1
        v = BlochVector(0.1, 0.2, 0.3)
        h_closed = ea_cartesian(v, 0.002, DetectionMode.BOTH)
        expected = np.linalg.inv(h_closed.h)[2, 2]
        h_num = qfi_numeric(*ea_pair(v.as_array(), 0.002, DetectionMode.BOTH))
        assert abs(cr_bound(h_num, 1, "z") / expected - 1.0) < 1e-8
        assert abs(cr_bound(h_closed, 1, "z") / expected - 1.0) < 1e-12
        # det ~ 1e-17 at Omega = 5e-4, still a well-conditioned matrix
        h_closed = ea_cartesian(v, 5e-4, DetectionMode.BOTH)
        expected = np.linalg.inv(h_closed.h)[2, 2]
        assert abs(cr_bound(h_closed, 1, "z") / expected - 1.0) < 1e-12

    def test_zero_and_ill_conditioned_matrices_raise(self):
        for diag in ([0.0, 0.0, 0.0], [1e6, 1.0, 1e-7]):
            with pytest.raises(ValueError):
                cr_bound(QfiMatrix(CARTESIAN, np.diag(diag)), 1, "matrix")
        tiny = cr_bound(QfiMatrix(CARTESIAN, np.diag([4e-6, 2e-6, 1e-6])), 1, "z")
        assert abs(tiny - 1e6) < 1e-6

    def test_scalar_bounds(self):
        assert cr_bound(4.0, 5) == 1.0 / 20.0
        assert cr_bound(0.0, 5) == math.inf
        with pytest.raises(ValueError):
            cr_bound(-1.0, 5)

    def test_scalar_nan_is_refused(self):
        for value in (math.nan, np.float64("nan")):
            with pytest.raises(ValueError, match="nonnegative, got nan"):
                cr_bound(value, 3)
        assert cr_bound(math.inf, 3) == 0.0
        assert purity_bound(1.0, 0.6, 3) == 0.0

    def test_function_target(self):
        h = QfiMatrix(CARTESIAN, np.diag([4.0, 1.0, 1.0]))
        # estimating f = 2*v_x: gradient (2, 0, 0)
        res = cr_bound(h, 1, np.array([2.0, 0.0, 0.0]))
        assert abs(res - 1.0) < 1e-12

    def test_axis_name_is_its_unit_gradient(self):
        h = QfiMatrix(CARTESIAN, np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]))
        for j, axis in enumerate("xyz"):
            assert cr_bound(h, 2, axis) == cr_bound(h, 2, np.eye(3)[j])

    def test_bad_gradient_raises(self):
        h = QfiMatrix(CARTESIAN, np.eye(3))
        for grad in ([1.0, 0.0], np.ones((3, 3)), [1.0, math.nan, 0.0], [math.inf, 0, 0]):
            with pytest.raises(ValueError, match="gradient"):
                cr_bound(h, 1, grad)

    def test_conditioning_is_tested_on_h_not_the_gradient(self):
        # a huge gradient on a well-conditioned H is a huge, finite bound
        h = QfiMatrix(CARTESIAN, np.eye(3))
        assert cr_bound(h, 1, np.array([0.0, 1e6, 0.0])) == 1e12

    def test_m_copies_validation(self):
        with pytest.raises(ValueError):
            cr_bound(1.0, 0)

    @pytest.mark.parametrize("m", [2.7, True, "3", 3.0])
    def test_m_copies_must_be_an_integer(self, m):
        # not truncated or cast: 2.7 copies is not the bound of 2
        h = QfiMatrix(CARTESIAN, np.eye(3))
        for args in ((1.0, m), (h, m, "x"), (h, m, "matrix")):
            with pytest.raises(ValueError, match="m_copies must be an integer"):
                cr_bound(*args)
        with pytest.raises(ValueError, match="m_copies must be an integer"):
            purity_bound(0.3, 0.6, m)

    def test_numpy_integer_m_copies(self):
        bound = cr_bound(4.0, np.int64(3))
        assert type(bound) is float and bound == cr_bound(4.0, 3) == 1.0 / 12.0
        with pytest.raises(ValueError, match="m_copies must be >= 1"):
            cr_bound(4.0, np.int64(0))


class TestOracleEquivalenceSweep:
    def test_random_sweep(self):
        # a reduced version of the acceptance backbone, once per module run
        rng = np.random.default_rng(89)
        for _ in range(25):
            v = rand_bloch(rng, r_max=0.95)
            om = log_uniform(rng, 0.05, 20)
            for mode in MODES:
                h_num = qfi_numeric(*ea_pair(v, om, mode))
                h_closed = ea_cartesian(BlochVector.from_array(v), om, mode)
                assert relerr(h_num.h, h_closed.h) < 1e-8
