"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.

 1. Oracle equivalence of the numerical QFI and every closed form (1e-8
    relative, 200 random tuples, under 30 s).
 2. Scattering unitarity residuals below 1e-12 on a 50-point momentum grid.
 3. Purity-estimation optimum: Omega* = 0.616 +- 0.005, ratio 1.52 +- 0.01.
 4. Phase-estimation optimum: Omega* = 0.637 +- 0.005, value 1.354 +- 0.005.
 5. Optimality intervals for transmission/reflection, with the combined-mode
    optimum between them.
 6. QFI independent of the choice of maximally entangled input (1e-9).
 7. Axis isotropy of the cartesian EA matrices (1e-9).
 8. Dominance: entangled >= unentangled, combined >= single detector,
    scattering bounds never beat direct access.
 9. Analytic channel derivatives match central finite differences (1e-8).
10. QFI vanishes at extreme momenta (entries below 1e-6 at 1e-4 and 1e4).
"""

import math
import time

import numpy as np

from scattertomo.closedform import (
    direct_qfi,
    ea_cartesian,
    ea_polar,
    nea_qfi,
    phase_bound,
)
from scattertomo.optimize import (
    DEFAULT_OMEGA_BRACKET,
    ea_envelope_point,
    ea_optimality_intervals,
    maximize_1d,
    nea_envelope_point,
)
from scattertomo.qfi import cartesian_to_polar, qfi_numeric
from scattertomo.scatter import (
    DetectionMode,
    apply_channel,
    channel_derivatives,
    direct_branches,
    s_matrices,
    scattering_channel,
)
from scattertomo.states import (
    BlochVector,
    ProbeConfig,
    bloch_to_density,
    bloch_to_polar,
    max_entangled,
    singlet,
)

from conftest import log_uniform, rand_ball, rand_unitary, relerr

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


def report(number, text):
    print(f"ACCEPTANCE {number:>2}: PASS - {text}")


def ea_matrix(v, omega, mode):
    probe = ProbeConfig(entangled=True)
    rho = bloch_to_density(BlochVector.from_array(v))
    return qfi_numeric(apply_channel(rho, probe, omega, mode),
                       channel_derivatives(probe, omega, mode))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2026)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        v = rand_ball(rng, r_max=0.95)
        omega = log_uniform(rng, 0.05, 20)
        bloch = BlochVector.from_array(v)
        polar = bloch_to_polar(bloch)

        # direct estimation against the polar closed form
        state, derivs = direct_branches(bloch)
        h_polar = cartesian_to_polar(qfi_numeric(state, derivs), polar)
        expected = direct_qfi(polar.r).matrix(polar.theta).h
        worst = max(worst, relerr(h_polar.h, expected))

        # entanglement-assisted: cartesian and polar closed forms, all modes
        for mode in MODES:
            h_num = ea_matrix(v, omega, mode)
            worst = max(worst, relerr(h_num.h, ea_cartesian(bloch, omega, mode).h))
            coeffs = ea_polar(polar.r, omega, mode)
            expected = np.diag([coeffs.c_r, coeffs.c_theta,
                                coeffs.c_theta * math.sin(polar.theta) ** 2])
            worst = max(worst, relerr(cartesian_to_polar(h_num, polar).h, expected))

        # unentangled probe on the z axis against the closed-form functions
        vz = rng.uniform(-0.95, 0.95)
        theta_a = rng.uniform(0, math.pi)
        probe = ProbeConfig(theta_a=theta_a)
        rho = bloch_to_density(BlochVector(0, 0, vz))
        for mode in MODES:
            val = qfi_numeric(apply_channel(rho, probe, omega, mode),
                              channel_derivatives(probe, omega, mode)).entry("z", "z")
            expected = nea_qfi(vz, theta_a, omega, mode)
            worst = max(worst, abs(val - expected) / max(1.0, abs(expected)))
    elapsed = time.monotonic() - started
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed <= 30.0, f"took {elapsed:.1f} s"
    report(1, f"oracle equivalence, worst rel. err {worst:.2e} in {elapsed:.1f} s")


def test_criterion_2_unitarity():
    worst = 0.0
    for omega in np.geomspace(1e-3, 1e3, 50):
        s_t, s_r = s_matrices(float(omega))
        completeness = s_t.conj().T @ s_t + s_r.conj().T @ s_r - np.eye(4)
        cross = s_t.conj().T @ s_r + s_r.conj().T @ s_t
        worst = max(worst, float(np.max(np.abs(completeness))),
                    float(np.max(np.abs(cross))))
    assert worst <= 1e-12, f"max unitarity residual {worst:.3e}"
    report(2, f"unitarity residual {worst:.2e} over 50-point momentum grid")


def test_criterion_3_purity_optimum():
    res = maximize_1d(lambda om: float(ea_cartesian(
        BlochVector(0, 0, 0), om, DetectionMode.BOTH).h[0, 0]),
        DEFAULT_OMEGA_BRACKET, name="omega")
    omega_star = res.param("omega")
    ratio = 1.0 / res.value  # rescaled bound over the direct baseline
    assert abs(omega_star - 0.616) <= 0.005, omega_star
    assert abs(ratio - 1.52) <= 0.01, ratio
    report(3, f"purity optimum Omega*={omega_star:.4f}, ratio {ratio:.4f}")


def test_criterion_4_phase_optimum():
    res = maximize_1d(lambda om: -phase_bound(om, 1), DEFAULT_OMEGA_BRACKET,
                      name="omega")
    omega_star = res.param("omega")
    minimum = -res.value
    assert abs(omega_star - 0.637) <= 0.005, omega_star
    assert abs(minimum - 1.354) <= 0.005, minimum
    report(4, f"phase optimum Omega*={omega_star:.4f}, M*Var={minimum:.4f}")


def test_criterion_5_optimality_intervals():
    t_lo, t_hi = ea_optimality_intervals(DetectionMode.TRANSMISSION)
    r_lo, r_hi = ea_optimality_intervals(DetectionMode.REFLECTION)
    assert t_lo <= 0.55 and t_hi >= 0.51, (t_lo, t_hi)
    assert r_lo <= 0.68 and r_hi >= 0.67, (r_lo, r_hi)
    res = maximize_1d(lambda om: float(ea_cartesian(
        BlochVector(0, 0, 0), om, DetectionMode.BOTH).h[0, 0]),
        DEFAULT_OMEGA_BRACKET, name="omega")
    both_star = res.param("omega")
    assert abs(both_star - 0.61) <= 0.01, both_star
    assert t_hi < both_star < r_lo
    report(5, f"intervals t=[{t_lo:.3f},{t_hi:.3f}] r=[{r_lo:.3f},{r_hi:.3f}], "
              f"combined optimum {both_star:.3f} between them")


def test_criterion_6_entangled_input_invariance():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        v = rand_ball(rng, r_max=0.9)
        omega = log_uniform(rng, 0.05, 20)
        target = BlochVector.from_array(v)
        rho_in = max_entangled(rand_unitary(rng), rand_unitary(rng))
        for mode in MODES:
            ref = scattering_channel(singlet(), omega, mode)
            alt = scattering_channel(rho_in, omega, mode)
            h_ref = qfi_numeric(ref.state(target), ref.derivatives)
            h_alt = qfi_numeric(alt.state(target), alt.derivatives)
            worst = max(worst, float(np.max(np.abs(h_ref.h - h_alt.h))))
    assert worst <= 1e-9, f"max deviation {worst:.3e}"
    report(6, f"maximally-entangled-input invariance, max dev {worst:.2e}")


def test_criterion_7_axis_isotropy():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(0.05, 0.95)
        omega = log_uniform(rng, 0.05, 20)
        for mode in MODES:
            reference = (1 - r * r) * ea_polar(r, omega, mode).c_r
            for axis in range(3):
                v = np.zeros(3)
                v[axis] = r
                h = ea_cartesian(BlochVector.from_array(v), omega, mode)
                dev = abs((1 - r * r) * h.h[axis, axis] - reference)
                worst = max(worst, dev / max(1.0, reference))
    assert worst <= 1e-9, f"worst isotropy deviation {worst:.3e}"
    report(7, f"axis isotropy of cartesian EA matrices, worst dev {worst:.2e}")


def test_criterion_8_dominance():
    margins = []
    for vz in np.linspace(0.0, 0.95, 21):
        vz = float(vz)
        direct_value = 1.0 / (1.0 - vz * vz)
        ea_vals = {}
        nea_vals = {}
        for mode in MODES:
            ea_pt = ea_envelope_point(vz, mode)
            nea_pt = nea_envelope_point(vz, mode, tol=1e-7)
            ea_vals[mode] = ea_pt.best_qfi
            nea_vals[mode] = nea_pt.best_qfi
            assert ea_pt.best_qfi >= nea_pt.best_qfi - 1e-9, (vz, mode)
            assert ea_pt.best_qfi <= direct_value + 1e-9, (vz, mode)
            margins.append(ea_pt.best_qfi - nea_pt.best_qfi)
        for vals in (ea_vals, nea_vals):
            assert vals[DetectionMode.BOTH] >= vals[DetectionMode.TRANSMISSION] - 1e-9
            assert vals[DetectionMode.BOTH] >= vals[DetectionMode.REFLECTION] - 1e-9
    report(8, f"dominance on 21-point grid, min EA-NEA margin {min(margins):.3e}")


def test_criterion_9_derivative_check():
    rng = np.random.default_rng(909)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        entangled = bool(rng.integers(2))
        mode = MODES[rng.integers(3)]
        probe = ProbeConfig(theta_a=float(rng.uniform(0, math.pi)), entangled=entangled)
        v = rand_ball(rng, r_max=0.9)
        omega = log_uniform(rng, 0.05, 20)
        derivs = channel_derivatives(probe, omega, mode)
        for j in range(3):
            offset = np.zeros(3)
            offset[j] = step
            plus = apply_channel(bloch_to_density(BlochVector.from_array(v + offset)),
                                 probe, omega, mode)
            minus = apply_channel(bloch_to_density(BlochVector.from_array(v - offset)),
                                  probe, omega, mode)
            for i in range(len(derivs.labels)):
                fd = (plus.blocks[i][1] - minus.blocks[i][1]) / (2 * step)
                worst = max(worst, float(np.max(np.abs(fd - derivs.stacks[i][j]))))
    assert worst <= 1e-8, f"worst derivative mismatch {worst:.3e}"
    report(9, f"finite-difference derivative check, worst mismatch {worst:.2e}")


def test_criterion_10_momentum_limits():
    worst = 0.0
    v_generic = np.array([0.33, -0.21, 0.4])
    for omega in (1e-4, 1e4):
        for mode in MODES:
            worst = max(worst, float(np.max(np.abs(ea_matrix(v_generic, omega, mode).h))))
            worst = max(worst, float(np.max(np.abs(
                ea_cartesian(BlochVector.from_array(v_generic), omega, mode).h))))
            probe = ProbeConfig(theta_a=0.7)
            rho = bloch_to_density(BlochVector(0, 0, 0.5))
            h = qfi_numeric(apply_channel(rho, probe, omega, mode),
                            channel_derivatives(probe, omega, mode))
            worst = max(worst, float(np.max(np.abs(h.h))))
            worst = max(worst, abs(nea_qfi(0.5, 0.7, omega, mode)))
    assert worst <= 1e-6, f"largest entry at extreme momenta {worst:.3e}"
    report(10, f"QFI vanishes at extreme momenta, largest entry {worst:.2e}")
