"""Inputs the searches and the channel refuse with a ValueError, not a silent answer."""

import math
import re

import numpy as np
import pytest

from scattertomo import cli, scatter
from scattertomo.closedform import direct_cartesian, direct_qfi, ea_cartesian, ea_cr, nea_qfi
from scattertomo.qfi import CARTESIAN, POLAR, QfiMatrix, cr_bound
from scattertomo.optimize import ea_optimality_intervals, maximize_1d, maximize_ea, maximize_nea
from scattertomo.scatter import (OMEGA_MAX, BlockLabel, BranchState, Channel, DetectionMode,
                                 apply_channel, scattering_channel)
from scattertomo.states import (BlochVector, ProbeConfig, bloch_to_density, is_density_matrix,
                                max_entangled, probe_state, singlet)

from conftest import rand_unitary

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


def _werner(p):
    # (1 - p) I/4 + p |singlet><singlet|: Hermitian with unit trace for every p, and a
    # state only for -1/3 <= p <= 1
    return (1.0 - p) * np.eye(4) / 4 + p * singlet()


NOT_STATES = {
    "diag(1.01, -0.01)": np.diag([1.01, -0.01]),
    "diag(1 + 2e-10, -2e-10)": np.diag([1.0 + 2e-10, -2e-10]),
    "positive diagonal, eigenvalue -0.1": np.array([[0.5, 0.6], [0.6, 0.5]]),
    "2 singlet": 2.0 * singlet(),
    "zero 2x2": np.zeros((2, 2)),
    "zero 4x4": np.zeros((4, 4)),
    "non-Hermitian 4x4": singlet() + np.triu(np.full((4, 4), 1e-6), 1),
    "Werner p = 1.5": _werner(1.5),
    "Werner p = -0.4": _werner(-0.4),
}


@pytest.mark.parametrize("name", NOT_STATES)
def test_probe_input_must_be_a_density_matrix(name):
    # before, a finite non-state gave a channel (diag(1.01, -0.01) a QFI for every
    # target) or failed per target with "block traces sum to 2.0"
    with pytest.raises(ValueError, match="probe input must be a density matrix"):
        scattering_channel(NOT_STATES[name], 0.8, DetectionMode.BOTH)


def test_density_matrix_probe_inputs_are_accepted():
    rng = np.random.default_rng(2811)
    tau = bloch_to_density(BlochVector(0.3, -0.2, 0.5))
    inputs = [singlet(), _werner(1.0), _werner(-1.0 / 3.0), np.diag([1.0 + 5e-11, -5e-11]), tau]
    for _ in range(20):
        inputs.append(max_entangled(rand_unitary(rng), rand_unitary(rng)))
        probe = ProbeConfig(theta_a=float(rng.uniform(0.0, math.pi)))
        inputs += [probe_state(probe), np.kron(probe_state(probe), tau)]
    inputs += [probe_state(ProbeConfig(theta_a=t)) for t in (0.0, math.pi, math.pi + 5e-13)]
    for rho_in in inputs:
        for mode in DetectionMode:
            assert scattering_channel(rho_in, 0.8, mode).labels


def test_density_matrix_test_agrees_with_the_spectrum():
    # the LDL^H pivots decide "no eigenvalue below -1e-10" as eigvalsh does, away
    # from the boundary
    rng = np.random.default_rng(2812)
    for n in (2, 4):
        for _ in range(400):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            lam, vec = np.linalg.eigh(z + z.conj().T)
            lam = rng.uniform(-0.3, 1.0, n)
            lam /= lam.sum()
            rho = (vec * lam) @ vec.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            least = np.linalg.eigvalsh(rho).min()
            if abs(least + 1e-10) > 1e-12:
                assert is_density_matrix(rho) == (least >= -1e-10)


PROBES = (ProbeConfig(entangled=True), ProbeConfig(theta_a=0.7))
NOT_TARGETS = {
    "diag(1.01, -0.01)": np.diag([1.01, -0.01]),
    "diag(1 + 2e-10, -2e-10)": np.diag([1.0 + 2e-10, -2e-10]),
}
TARGETS = {
    "diag(1 + 5e-11, -5e-11)": np.diag([1.0 + 5e-11, -5e-11]),
    "diag(1, 0)": np.diag([1.0, 0.0]),
    "pure, off-diagonal": np.array([[0.5, -0.5j], [0.5j, 0.5]]),
}


def _target_refusal(rho, probe, mode):
    """apply_channel's refusal of the target rho, or None if the target passed."""
    try:
        apply_channel(rho, probe, 0.8, mode)
    except ValueError as err:
        if str(err).startswith("target state"):
            return str(err)
    return None


@pytest.mark.parametrize("name", NOT_TARGETS)
def test_target_must_be_a_density_matrix(name):
    # before, diag(1.01, -0.01) gave NEA a finite QFI at most points and failed EA
    # with "block ... has negative eigenvalue", naming an output block
    for probe in PROBES:
        for mode in DetectionMode:
            assert (_target_refusal(NOT_TARGETS[name], probe, mode)
                    == "target state must have no eigenvalue below -1e-10")


@pytest.mark.parametrize("name", TARGETS)
def test_density_matrix_targets_are_accepted(name):
    for probe in PROBES:
        for mode in DetectionMode:
            assert _target_refusal(TARGETS[name], probe, mode) is None
            assert apply_channel(TARGETS[name], probe, 0.8, mode).labels


def _same_bits(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip((a._stack, *a.spectra), (b._stack, *b.spectra)))


def test_a_target_just_outside_the_ball_is_its_nearest_state():
    # v = (0, 0, 1 + 1e-10) passes the target rule; its blocks once dipped below
    # PSD_TOL = -1e-12 (EA at Omega = 0.6 and 0.8, NEA at theta_a = 0), and the
    # state of v/|v| = (0, 0, 1) is what it now gives
    rho = TARGETS["diag(1 + 5e-11, -5e-11)"]
    for probe in (*PROBES, ProbeConfig(theta_a=0.0)):
        for omega in (0.6, 0.8):
            for mode in DetectionMode:
                pole = scatter._probe_channel(probe, omega, mode).state(BlochVector(0.0, 0.0, 1.0))
                assert _same_bits(apply_channel(rho, probe, omega, mode), pole)


def test_a_target_in_the_ball_keeps_its_bits():
    # the state of the target's own v = Re Tr(rho sigma); only a v that rounding
    # put outside the ball is scaled onto it
    rng = np.random.default_rng(3003)
    probe, omega, mode = PROBES[1], 0.8, DetectionMode.BOTH
    outside = 0
    for i in range(400):
        p = 1.0 if i % 2 else rng.uniform(0.5, 1.0)  # half of them pure
        u = rand_unitary(rng)
        rho = (u * [p, 1.0 - p]) @ u.conj().T
        (r00, r01), (r10, r11) = rho.tolist()
        v = np.array([r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real])
        norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if norm > 1.0:
            assert norm - 1.0 <= 1e-15
            v, outside = v / norm, outside + 1
        state = BranchState(scatter._probe_channel(probe, omega, mode), np.array([1.0, *v]))
        assert _same_bits(apply_channel(rho, probe, omega, mode), state)
    assert 0 < outside < 200


def test_target_rule_is_the_density_matrix_rule():
    # apply_channel decides the LDL^H pivots of is_density_matrix on four Python
    # complex numbers: the same decision, also within rounding of the boundary
    rng = np.random.default_rng(2901)
    for i in range(400):
        least = -1e-10 * rng.uniform(0.0, 2.0) if i % 2 else rng.uniform(-0.1, 0.5)
        u = rand_unitary(rng)
        rho = (u * [1.0 - least, least]) @ u.conj().T
        refused = _target_refusal(rho, PROBES[i % 2], DetectionMode.BOTH) is not None
        assert refused == (not is_density_matrix(rho))


BAD_VZ = (1.0, -1.0, 1.5, math.nan)
BAD_THETA = (math.nan, math.inf, -math.inf)
BAD_OMEGA = (0.0, -1.0, math.nan, math.inf, 2 * OMEGA_MAX)


def _message(call, *args):
    with pytest.raises(ValueError) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("mode", DetectionMode)
def test_scalar_and_array_closed_forms_refuse_alike(mode):
    good = (0.3, 0.7, 0.6)
    for slot, bad_values in enumerate((BAD_VZ, BAD_THETA, BAD_OMEGA)):
        for bad in bad_values:
            args = list(good)
            args[slot] = bad
            as_float = _message(nea_qfi, *args, mode)
            for wrap in (np.float64, np.array, lambda x: np.array([x])):
                wrapped = list(args)
                wrapped[slot] = wrap(bad)
                assert _message(nea_qfi, *wrapped, mode) == as_float
    v = BlochVector(0.1, -0.2, 0.3)
    for bad in BAD_OMEGA:
        as_float = _message(ea_cartesian, v, bad, mode)
        assert as_float == _message(ea_cartesian, v, np.float64(bad), mode)
        assert as_float == _message(ea_cartesian, v, np.array(bad), mode)
        assert as_float == _message(nea_qfi, 0.3, 0.7, bad, mode)


@pytest.mark.parametrize("mode", [DetectionMode.BOTH, DetectionMode.TRANSMISSION])
def test_a_nan_in_the_second_block_is_named(mode):
    # both mode stacks two maps of one size; t mode pads the smaller vacuum map
    channel = scattering_channel(singlet(), 0.8, mode)
    maps = [np.array(m) for m in channel.maps]
    assert (len({m.shape for m in maps}) == 1) == (mode is DetectionMode.BOTH)
    maps[1][3, 0, 0] = math.nan
    with pytest.raises(ValueError, match=f"block map {channel.labels[1]} has a non-finite"):
        Channel(channel.labels, maps)


# Each refusal of BlochVector, apply_channel and QfiMatrix: exception type and exact message.
NOT_FINITE = (math.nan, math.inf, -math.inf)


def _refusal(call, *args):
    """(type, message) of the exception call(*args) raises."""
    with pytest.raises(Exception) as caught:
        call(*args)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("bad", NOT_FINITE)
@pytest.mark.parametrize("slot", range(3))
def test_bloch_vector_refuses_a_nonfinite_component(slot, bad):
    v = [0.1, -0.2, 0.3]
    v[slot] = bad
    assert _refusal(BlochVector, *v) == (ValueError, "Bloch components must be finite")


def test_bloch_vector_refuses_a_component_or_norm_above_one():
    assert _refusal(BlochVector, 0.0, -1.5, 0.5) == (
        ValueError, "Bloch component -1.5 exceeds 1 in magnitude")
    assert _refusal(BlochVector, 1e200, 0.0, -1e201) == (
        ValueError, "Bloch component -1e+201 exceeds 1 in magnitude")
    assert _refusal(BlochVector, 0.8, 0.0, -0.8) == (
        ValueError, "Bloch vector norm 1.1313708498984762 exceeds 1")
    assert _refusal(BlochVector, 0.0, 1.0 + 2e-12, 0.0) == (
        ValueError, "Bloch component 1.000000000002 exceeds 1 in magnitude")


_RHO = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])


@pytest.mark.parametrize("imaginary", [False, True])
@pytest.mark.parametrize("bad", NOT_FINITE)
@pytest.mark.parametrize("slot", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_apply_channel_refuses_a_nonfinite_entry(slot, bad, imaginary):
    rho = _RHO.copy()
    rho[slot] += complex(0.0, bad) if imaginary else bad
    for probe in PROBES:
        for target in (rho, rho.tolist()):
            assert _refusal(apply_channel, target, probe, 0.8, DetectionMode.BOTH) == (
                ValueError, "matrix entries must be finite")


def test_apply_channel_refuses_a_target_of_the_wrong_shape():
    probe, mode = PROBES[0], DetectionMode.BOTH
    assert _refusal(apply_channel, np.eye(3) / 3, probe, 0.8, mode) == (
        ValueError, "target state must be 2x2")
    # the finiteness of the entries is checked before the shape
    assert _refusal(apply_channel, np.diag([0.5, 0.5, math.nan]), probe, 0.8, mode) == (
        ValueError, "matrix entries must be finite")
    assert _refusal(apply_channel, [0.5, 0.5], probe, 0.8, mode) == (
        ValueError, "expected a matrix, got array of shape (2,)")
    assert _refusal(apply_channel, np.ones((2, 2, 1)), probe, 0.8, mode) == (
        ValueError, "expected a matrix, got array of shape (2, 2, 1)")


def test_apply_channel_refuses_a_skew_or_a_trace_error():
    skewed, traced = _RHO.copy(), _RHO.copy()
    skewed[0, 1] += 2e-10
    traced[1, 1] += 2e-10
    for rho in (skewed, traced):
        for probe in PROBES:
            assert _refusal(apply_channel, rho, probe, 0.8, DetectionMode.BOTH) == (
                ValueError, "target state must be Hermitian with unit trace")
    # a quarter of each error is within DENSITY_TOL = 1e-10
    skewed[0, 1] -= 1.5e-10
    traced[1, 1] -= 1.5e-10
    for rho in (skewed, traced):
        assert apply_channel(rho, PROBES[0], 0.8, DetectionMode.BOTH).labels


def test_a_stack_of_empty_blocks_reaches_the_trace_check():
    # 0x0 blocks have no least eigenvalue: the trace sum refuses them
    channel = Channel((BlockLabel.TRANSMITTED_SPIN,), (np.zeros((4, 0, 0)),))
    assert _refusal(BranchState, channel, np.array([1.0, 0.0, 0.0, 0.0])) == (
        ValueError, "block traces sum to 0.0, expected 1")


NOT_QFI = "QFI matrix must be a finite 3x3 real matrix"


@pytest.mark.parametrize("bad", NOT_FINITE)
@pytest.mark.parametrize("slot", [divmod(k, 3) for k in range(9)])
def test_qfi_matrix_refuses_a_nonfinite_entry(slot, bad):
    h = np.eye(3)
    h[slot] = bad
    for given in (h, h.tolist()):
        assert _refusal(QfiMatrix, CARTESIAN, given) == (ValueError, NOT_QFI)
    assert _refusal(QfiMatrix.from_entries, POLAR, h.ravel().tolist()) == (ValueError, NOT_QFI)


@pytest.mark.parametrize("h", [np.eye(3) + 0j, np.eye(3).astype(np.complex64), np.ones(3),
                               np.eye(2), np.ones((3, 3, 1)), np.eye(3).ravel()],
                         ids=["complex128", "complex64", "(3,)", "(2, 2)", "(3, 3, 1)", "(9,)"])
def test_qfi_matrix_refuses_a_complex_or_misshapen_h(h):
    assert _refusal(QfiMatrix, CARTESIAN, h) == (ValueError, NOT_QFI)


def test_qfi_matrix_refuses_just_past_its_tolerances():
    # s = 4: the symmetry limit is 4e-10, the eigenvalue limit -4e-9
    h = np.diag([4.0, 2.0, 1.0])
    h[1, 2] = 1.001 * 4e-10
    assert _refusal(QfiMatrix, CARTESIAN, h) == (ValueError, "QFI matrix is not symmetric")
    assert _refusal(QfiMatrix.from_entries, CARTESIAN, h.ravel().tolist()) == (
        ValueError, "QFI matrix is not symmetric")
    h = np.diag([4.0, 2.0, -1.001 * 4e-9])
    assert _refusal(QfiMatrix, POLAR, h) == (ValueError, "QFI matrix is not positive semidefinite")
    assert _refusal(QfiMatrix.from_entries, POLAR, h.ravel().tolist()) == (
        ValueError, "QFI matrix is not positive semidefinite")
    assert _refusal(QfiMatrix, "spherical", np.eye(3)) == (
        ValueError, "unknown basis 'spherical'")
    assert _refusal(QfiMatrix.from_entries, "spherical", [1.0, 0.0, 0.0] * 3) == (
        ValueError, "unknown basis 'spherical'")


def _accepted_inputs():
    """QFI matrices of every dtype and container QfiMatrix takes, each with a small skew."""
    rng = np.random.default_rng(3401)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        h = (q * rng.uniform(0.0, 10.0, 3)) @ q.T
        h[0, 1] += rng.uniform(-1e-11, 1e-11)  # within the 1e-10 symmetry tolerance
        yield h
        yield h.tolist()
        yield tuple(map(tuple, h.tolist()))
        yield (0.5 * (h + h.T)).astype(np.float32)
    # beyond 2**53 an integer is rounded to a float before it is added
    yield np.array([[2**60 + 1, 2**55 + 1, 0], [2**55 + 3, 2**60 - 1, 1], [0, 1, 2**59]])
    yield [[2, 1, 0], [1, 2, 0], [0, 0, 1]]
    yield np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    yield np.eye(3, dtype=bool)


def test_qfi_matrix_keeps_the_symmetrized_h_bit_for_bit():
    for h in _accepted_inputs():
        a = np.asarray(h, dtype=float)
        expected = (0.5 * (a + a.T)).tobytes()
        for basis in (CARTESIAN, POLAR):
            q = QfiMatrix(basis, h)
            assert q.h.dtype == float and q.h.shape == (3, 3)
            assert q.h.tobytes() == expected
            assert QfiMatrix.from_entries(basis, a.ravel().tolist()).h.tobytes() == expected


def test_apply_channel_reads_a_list_target_as_its_array():
    rng = np.random.default_rng(3402)
    for i in range(200):
        p = 1.0 if i % 2 else rng.uniform(0.5, 1.0)
        u = rand_unitary(rng)
        rho = (u * [p, 1.0 - p]) @ u.conj().T
        for probe in PROBES:
            for mode in DetectionMode:
                state = apply_channel(rho, probe, 0.8, mode)
                assert _same_bits(apply_channel(rho.tolist(), probe, 0.8, mode), state)
                assert _same_bits(apply_channel(tuple(map(tuple, rho.tolist())), probe, 0.8,
                                                mode), state)


# the argv of each CLI usage refusal, and its message
CLI_REFUSALS = {
    "scan --strategy ea --vz 0.4 --omega 0.6 --sweep r --from 2 --to 1":
        "--from must be below --to",
    "scan --strategy nea --vz 0.4 --sweep theta-a": "--omega is required for this scan",
    "optimize --strategy direct": "optimize supports strategies nea and ea",
}


@pytest.mark.parametrize("argv", CLI_REFUSALS)
def test_cli_usage_refusal(argv, capsys):
    message = CLI_REFUSALS[argv]
    args = cli.build_parser().parse_args(argv.split())
    args.target = cli._resolve_target(args)
    with pytest.raises(cli.UsageError, match=f"^{re.escape(message)}$"):
        args.func(args)
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    assert capsys.readouterr()[:] == ("", f"usage error: {message}\n")


# each library refusal: the call, the exception type and its message
LIBRARY_REFUSALS = {
    "polar matrix at r = 1": (lambda: direct_qfi(1.0).matrix(0.3), ValueError,
                              "polar QFI matrix undefined at r = 1 (c_r diverges)"),
    "c_r in an unknown mode": (lambda: ea_cr(0.3, 0.6, "both"), ValueError,
                               "unknown detection mode both"),
    "c_perp in an unknown mode": (lambda: ea_cartesian(BlochVector(0.1, 0.0, 0.2), 0.6, "both"),
                                  ValueError, "unknown detection mode both"),
    "NEA factors in an unknown mode": (lambda: nea_qfi(0.3, 0.7, 0.6, "both"), ValueError,
                                       "unknown detection mode both"),
    "an argument the result lacks": (lambda: maximize_ea(0.5, DetectionMode.BOTH).param("theta_a"),
                                     KeyError, "'theta_a'"),
    "a one-point grid": (lambda: maximize_1d(lambda x: -x * x, (-1.0, 1.0), n_grid=1), ValueError,
                         "n_grid must be at least 2"),
    "a polar name on a cartesian matrix": (
        lambda: cr_bound(direct_cartesian(BlochVector(0.1, 0.0, 0.2)), 1, "theta"), ValueError,
        "target 'theta' not valid for basis 'cartesian'"),
}


@pytest.mark.parametrize("name", LIBRARY_REFUSALS)
def test_library_refusal(name):
    call, error, message = LIBRARY_REFUSALS[name]
    with pytest.raises(error) as refusal:
        call()
    assert type(refusal.value) is error and str(refusal.value) == message
