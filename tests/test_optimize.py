import math

import numpy as np
import pytest

from scattertomo.closedform import ea_cr, nea_qfi, phase_bound
from scattertomo.optimize import (
    DEFAULT_OMEGA_BRACKET,
    EnvelopePoint,
    OptResult,
    _omega_form,
    _theta_form,
    ea_envelope_point,
    ea_optimality_intervals,
    ea_zaxis_qfi,
    maximize_1d,
    maximize_1d_batch,
    maximize_ea_batch,
    maximize_nea,
    maximize_nea_batch,
    nea_envelope_point,
)
from scattertomo.scatter import DetectionMode

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)


def rescaled_both(om):
    return float(ea_cr(0.0, om, DetectionMode.BOTH))


class TestMaximize1d:
    def test_purity_optimum(self):
        res = maximize_1d(rescaled_both, DEFAULT_OMEGA_BRACKET, name="omega")
        assert res.converged
        assert abs(res.param("omega") - 0.616) < 0.005
        # minimum rescaled bound is 1/value; ratio to the direct baseline
        assert abs(1.0 / res.value - 1.52) < 0.01

    def test_phase_optimum(self):
        res = maximize_1d(lambda om: -phase_bound(om, 1), DEFAULT_OMEGA_BRACKET,
                          name="omega")
        assert abs(res.param("omega") - 0.637) < 0.005
        assert abs(-res.value - 1.354) < 0.01

    def test_constant_objective(self):
        res = maximize_1d(lambda x: 2.0, (0.1, 5.0))
        assert res.converged
        assert res.value == 2.0
        assert 0.1 <= res.param("x") <= 5.0

    def test_reevaluation_invariant(self):
        res = maximize_1d(rescaled_both, DEFAULT_OMEGA_BRACKET, name="omega")
        again = rescaled_both(res.param("omega"))
        assert abs(res.value - again) <= 1e-10 * (1 + abs(again))

    def test_linear_bracket(self):
        res = maximize_1d(lambda x: -(x - 1.3) ** 2, (-2.0, 4.0), log_grid=False)
        assert abs(res.param("x") - 1.3) < 1e-6

    def test_multimodal_picks_global(self):
        f = lambda x: math.exp(-(x - 0.2) ** 2 / 0.005) + 2 * math.exp(-(x - 3.0) ** 2 / 0.005)
        res = maximize_1d(f, (0.05, 10.0), n_grid=256)
        assert abs(res.param("x") - 3.0) < 1e-4

    def test_errors(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, (1.0, 1.0))
        with pytest.raises(ValueError):
            maximize_1d(lambda x: math.inf, (0.1, 1.0))


class TestMaximizeNea:
    def test_returns_optresult(self):
        res = maximize_nea(0.3, mode=DetectionMode.BOTH, tol=1e-7)
        assert isinstance(res, OptResult)
        assert res.converged
        assert 0.0 <= res.param("theta_a") <= math.pi
        assert DEFAULT_OMEGA_BRACKET[0] <= res.param("omega") <= DEFAULT_OMEGA_BRACKET[1]

    def test_reevaluation_invariant(self):
        from scattertomo.closedform import nea_qfi
        res = maximize_nea(0.5, mode=DetectionMode.TRANSMISSION, tol=1e-8)
        again = nea_qfi(0.5, res.param("theta_a"), res.param("omega"),
                        DetectionMode.TRANSMISSION)
        assert abs(res.value - again) <= 1e-10 * (1 + abs(again))

    def test_beats_grid(self):
        from scattertomo.closedform import nea_qfi
        thetas = np.linspace(0, math.pi, 181)
        omegas = np.geomspace(*DEFAULT_OMEGA_BRACKET, 121)
        surface = nea_qfi(0.3, thetas[:, None], omegas[None, :], DetectionMode.BOTH)
        res = maximize_nea(0.3, mode=DetectionMode.BOTH)
        assert res.value >= float(surface.max()) - 1e-12

    def test_aligned_probe_for_nearly_pure_target(self):
        res = maximize_nea(0.9, mode=DetectionMode.TRANSMISSION)
        assert res.param("theta_a") < 0.6

    def test_envelope_even_in_vz(self):
        for mode in MODES:
            for vz in (0.3, 0.75):
                plus = maximize_nea(vz, mode=mode, tol=1e-8)
                minus = maximize_nea(-vz, mode=mode, tol=1e-8)
                assert abs(plus.value - minus.value) < 1e-6 * (1 + abs(plus.value))

    def test_degenerate_orientation_at_origin(self):
        res = maximize_nea(0.0, mode=DetectionMode.BOTH)
        assert res.converged  # any maximizer accepted; result must be consistent
        from scattertomo.closedform import nea_qfi
        val = nea_qfi(0.0, res.param("theta_a"), res.param("omega"), DetectionMode.BOTH)
        assert abs(val - res.value) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            maximize_nea(1.0)


class TestOptimalMomentumStructure:
    def test_ea_optimality_intervals(self):
        t_lo, t_hi = ea_optimality_intervals(DetectionMode.TRANSMISSION)
        assert 0.50 <= t_lo <= t_hi <= 0.56
        assert t_lo <= 0.55 and t_hi >= 0.51  # overlaps [0.51, 0.55]
        r_lo, r_hi = ea_optimality_intervals(DetectionMode.REFLECTION)
        assert r_lo <= 0.68 and r_hi >= 0.67  # overlaps [0.67, 0.68]
        res = maximize_1d(rescaled_both, DEFAULT_OMEGA_BRACKET, name="omega")
        both_star = res.param("omega")
        assert abs(both_star - 0.61) <= 0.01
        assert t_hi < both_star < r_lo

    def test_nea_momentum_ordering(self):
        for vz in (0.0, 0.4, 0.8):
            stars = {mode: maximize_nea(vz, mode=mode, tol=1e-7).param("omega")
                     for mode in MODES}
            assert stars[DetectionMode.TRANSMISSION] \
                <= stars[DetectionMode.BOTH] + 1e-5
            assert stars[DetectionMode.BOTH] \
                <= stars[DetectionMode.REFLECTION] + 1e-5


class TestEnvelopes:
    def test_ea_envelope_point(self):
        pt = ea_envelope_point(0.4, DetectionMode.BOTH)
        assert isinstance(pt, EnvelopePoint)
        assert pt.theta_a_star is None
        assert pt.best_qfi >= float(ea_zaxis_qfi(0.4, 0.5, DetectionMode.BOTH))
        # both-mode optimum is r independent
        assert abs(pt.omega_star - 0.6165) < 1e-3

    def test_nea_envelope_point(self):
        pt = nea_envelope_point(0.4, DetectionMode.BOTH, tol=1e-7)
        assert pt.theta_a_star is not None
        assert pt.v_z == 0.4

    def test_ea_dominates_nea(self):
        for mode in MODES:
            for vz in (0.0, 0.45, 0.9):
                ea = ea_envelope_point(vz, mode)
                nea = nea_envelope_point(vz, mode, tol=1e-7)
                assert ea.best_qfi >= nea.best_qfi - 1e-9

    def test_both_mode_collects_most_information(self):
        for vz in (0.2, 0.7):
            ea_vals = {mode: ea_envelope_point(vz, mode).best_qfi for mode in MODES}
            nea_vals = {mode: nea_envelope_point(vz, mode, tol=1e-7).best_qfi
                        for mode in MODES}
            for vals in (ea_vals, nea_vals):
                assert vals[DetectionMode.BOTH] >= vals[DetectionMode.TRANSMISSION] - 1e-9
                assert vals[DetectionMode.BOTH] >= vals[DetectionMode.REFLECTION] - 1e-9


# Rows of `scattertomo figure 7 --points 3` and `figure 8 --points 3` as
# printed by the scalar (one problem at a time) optimizers, frozen as the
# reference for the lockstep ones: (v_z, mode, best_qfi, theta_a*, omega*).
FIGURE_7_ROWS = [
    (-0.95, DetectionMode.TRANSMISSION, 2.68132342368, 2.78100709277, 0.57190047722),
    (-0.95, DetectionMode.REFLECTION, 2.5357269945, 2.92278344084, 0.585829808725),
    (-0.95, DetectionMode.BOTH, 5.13081669461, 2.86949094584, 0.584820721884),
    (0.0, DetectionMode.TRANSMISSION, 0.300944153097, 1.57079632679, 0.614788196649),
    (0.0, DetectionMode.REFLECTION, 0.178632794954, 1.57079632679, 0.759835579188),
    (0.0, DetectionMode.BOTH, 0.475210284066, 1.57079632679, 0.670012963433),
    (0.95, DetectionMode.TRANSMISSION, 2.68132342368, 0.360585401866, 0.57190047722),
    (0.95, DetectionMode.REFLECTION, 2.5357269945, 0.218808955561, 0.585829808725),
    (0.95, DetectionMode.BOTH, 5.13081669461, 0.272102123901, 0.584820721884),
]
# (v_z, mode, best NEA qfi, best EA qfi)
FIGURE_8_ROWS = [
    (0.475, DetectionMode.TRANSMISSION, 0.391455529973, 0.490565205714),
    (0.475, DetectionMode.REFLECTION, 0.272740272224, 0.440382171946),
    (0.475, DetectionMode.BOTH, 0.630125800665, 0.850437208159),
    (0.95, DetectionMode.BOTH, 5.13081669461, 6.75443398019),
]
CSV_REL = 1e-10  # the CSV prints 12 significant digits


class TestFrozenFigureRows:
    @pytest.mark.parametrize("vz, mode, qfi, theta_star, omega_star", FIGURE_7_ROWS)
    def test_figure_7(self, vz, mode, qfi, theta_star, omega_star):
        pt = nea_envelope_point(vz, mode, tol=1e-6)
        assert abs(pt.best_qfi - qfi) <= CSV_REL * qfi
        assert abs(pt.theta_a_star - theta_star) <= 1e-6 * (1 + theta_star)
        assert abs(pt.omega_star - omega_star) <= 1e-6 * (1 + omega_star)

    @pytest.mark.parametrize("vz, mode, nea, ea", FIGURE_8_ROWS)
    def test_figure_8(self, vz, mode, nea, ea):
        assert abs(nea_envelope_point(vz, mode, tol=1e-6).best_qfi - nea) <= CSV_REL * nea
        assert abs(ea_envelope_point(vz, mode, tol=1e-8).best_qfi - ea) <= CSV_REL * ea


def assert_same_solve(batched, single, tol):
    assert batched.iterations == single.iterations
    assert batched.converged == single.converged
    for (name, x), (name_1, x_1) in zip(batched.argmax, single.argmax):
        assert name == name_1
        assert abs(x - x_1) <= tol * (1 + abs(x_1))
    assert abs(batched.value - single.value) <= 1e-12 * abs(single.value)


class TestLockstep:
    @pytest.mark.parametrize("mode", MODES)
    def test_radial_batch_matches_one_problem_solves(self, mode):
        r_grid = np.linspace(0.0, 0.98, 9)
        for r, res in zip(r_grid, maximize_ea_batch(r_grid, mode)):
            single = maximize_1d(lambda om: float(ea_cr(float(r), om, mode)),
                                 DEFAULT_OMEGA_BRACKET, name="omega")
            assert_same_solve(res, single, 1e-8)

    @pytest.mark.parametrize("mode", MODES)
    def test_nea_batch_matches_one_problem_solves(self, mode):
        vz_grid = np.linspace(-0.9, 0.9, 7)
        for vz, res in zip(vz_grid, maximize_nea_batch(vz_grid, mode=mode, tol=1e-7)):
            assert_same_solve(res, maximize_nea(float(vz), mode=mode, tol=1e-7), 1e-7)

    def test_capped_lane_does_not_stop_the_others(self):
        # tol * (1 + 1e4) is below the float spacing at 1e4, so the second
        # problem's bracket can never shrink enough; the first converges near 0
        centers = np.array([0.0, 1e4, 0.0])
        results = maximize_1d_batch(lambda x, k: -(x - centers[k])**2, 3, (-1e5, 1e5),
                                    tol=1e-16, log_grid=False)
        assert [res.converged for res in results] == [True, False, True]
        assert results[1].iterations == 300
        assert results[0] == results[2]
        assert abs(results[1].param("x") - 1e4) < 1e-6

    def test_batch_sizes_zero_and_one(self):
        assert maximize_1d_batch(lambda x, k: -x * x, 0, (-1.0, 2.0), log_grid=False) == []
        assert maximize_nea_batch([], mode=DetectionMode.BOTH) == []
        assert maximize_ea_batch([], DetectionMode.BOTH) == []
        (res,) = maximize_nea_batch([0.3], mode=DetectionMode.BOTH, tol=1e-7)
        assert res == maximize_nea(0.3, mode=DetectionMode.BOTH, tol=1e-7)
        (res,) = maximize_1d_batch(lambda x, k: -(x - 0.7)**2, 1, (-1.0, 2.0), log_grid=False)
        assert res == maximize_1d(lambda x: -(x - 0.7)**2, (-1.0, 2.0), log_grid=False)
        assert abs(res.param("x") - 0.7) < 1e-6


def relerr_each(a, b):
    return float(np.max(np.abs(np.asarray(a) - b) / np.abs(b)))


class TestNeaPerLaneForms:
    """The forms the NEA golden-section steps evaluate, against ``nea_qfi``."""

    @staticmethod
    def lanes(bracket, seed):
        rng = np.random.default_rng(seed)
        v = np.concatenate([[-0.99, 0.0, 0.99], rng.uniform(-0.99, 0.99, 400)])
        u = rng.uniform(math.log(bracket[0]), math.log(bracket[1]), v.size)
        theta = np.concatenate([[0.0, math.pi / 2, math.pi],
                                rng.uniform(0.0, math.pi, v.size - 3)])
        return rng, v, u, theta

    @pytest.mark.parametrize("bracket", [DEFAULT_OMEGA_BRACKET, (1e-3, 1e3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_theta_form(self, mode, bracket):
        rng, v, u, theta = self.lanes(bracket, 11)
        form = _theta_form(v, np.exp(u)**2, mode)
        exact = nea_qfi(v, theta, np.exp(u), mode)
        assert relerr_each(form(theta, np.arange(v.size)), exact) <= 1e-12
        sub = rng.permutation(v.size)[:17]
        assert relerr_each(form(theta[sub], sub), exact[sub]) <= 1e-12
        # a lone lane is evaluated on scalars
        assert relerr_each(form(theta[5], 5), exact[5]) <= 1e-12

    @pytest.mark.parametrize("bracket", [DEFAULT_OMEGA_BRACKET, (1e-3, 1e3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_omega_form(self, mode, bracket):
        rng, v, u0, theta = self.lanes(bracket, 12)
        # each lane's log-Omega bracket, as the refinement sets it around a
        # point of the default 121-point grid
        u_lo, u_hi = math.log(bracket[0]), math.log(bracket[1])
        half = 2.0 * (u_hi - u_lo) / 120
        a, b = np.maximum(u_lo, u0 - half), np.minimum(u_hi, u0 + half)
        u = a + (b - a) * np.concatenate([[0.0, 1.0, 0.5], rng.uniform(size=v.size - 3)])
        form = _omega_form(v, theta, a, b, mode)
        exact = nea_qfi(v, theta, np.exp(u), mode)
        assert relerr_each(form(u, np.arange(v.size)), exact) <= 1e-12
        sub = rng.permutation(v.size)[:17]
        assert relerr_each(form(u[sub], sub), exact[sub]) <= 1e-12
        assert relerr_each(form(u[5], 5), exact[5]) <= 1e-12


class TestBatchInputChecks:
    @pytest.mark.parametrize("v_z, bracket", [
        (math.nan, DEFAULT_OMEGA_BRACKET),
        (1.0, DEFAULT_OMEGA_BRACKET),
        (-1.5, DEFAULT_OMEGA_BRACKET),
        (0.3, (0.0, 10.0)),
        (0.3, (-1.0, 10.0)),
        (0.3, (0.05, math.inf)),
        (0.3, (2.0, 2.0)),
        (0.3, (2.0, 1.0)),
    ])
    def test_nea_batch_rejects(self, v_z, bracket):
        with pytest.raises(ValueError):
            maximize_nea_batch([0.2, v_z], bracket)

    @pytest.mark.parametrize("mode", MODES)
    def test_ea_batch_rejects(self, mode):
        # the messages of ea_cr, which checks the same radii
        with pytest.raises(ValueError, match="pure-state boundary r = 1"):
            maximize_ea_batch([1.0], mode)
        with pytest.raises(ValueError, match="pure-state boundary r = 1"):
            maximize_ea_batch([0.2, -1.0], mode)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            maximize_ea_batch([math.nan], mode)
        with pytest.raises(ValueError, match="omega must be positive"):
            maximize_ea_batch([0.2], mode, (0.0, 1.0))
