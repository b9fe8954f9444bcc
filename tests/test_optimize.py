import math
from pathlib import Path

import numpy as np
import pytest

import scattertomo.optimize as opt
from scattertomo.cli import main
from scattertomo.closedform import (_NEA_TERMS, _ea_cr, _nea_factors, ea_cartesian, ea_cr,
                                    nea_qfi, phase_bound)
from scattertomo.optimize import (
    DEFAULT_OMEGA_BRACKET,
    EA_GRID,
    MAX_ITER,
    NEA_GRID,
    OptResult,
    _grid_maxima,
    _local_maxima,
    _nea_form,
    _nea_refine,
    _nea_scan,
    _newton_max,
    _newton_root,
    ea_optimality_intervals,
    maximize_1d,
    maximize_ea,
    maximize_nea,
)
from scattertomo.scatter import DetectionMode
from scattertomo.states import BlochVector

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
        res = maximize_1d(lambda x: -(x - 1.3) ** 2, (-2.0, 4.0))
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

    def test_purity_optimum_to_the_bit(self):
        # the optimum of acceptance criterion 3, pinned to the bit
        res = maximize_1d(lambda om: float(ea_cartesian(BlochVector(0, 0, 0), om,
                                                         DetectionMode.BOTH).h[0, 0]),
                          DEFAULT_OMEGA_BRACKET, name="omega")
        assert res == OptResult((("omega", 0.6164609689081711),), 0.6585573130684343, 35, True)

    @pytest.mark.parametrize("objective, bracket, calls", [
        (lambda x: math.sin(5.0 * x) * x, (0.1, 10.0), 352),
        (lambda x: -(x - 1.3)**2, (-2.0, 4.0), None)], ids=["log", "linear"])
    def test_one_float_per_call(self, objective, bracket, calls):
        # the scan's nodes, then each golden-section evaluation, one Python float at a time
        seen = []

        def record(x):
            seen.append(type(x))
            return objective(x)
        res = maximize_1d(record, bracket)
        assert len(seen) == 64 + res.iterations
        assert calls is None or len(seen) == calls
        assert set(seen) == {float}


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

    @pytest.mark.parametrize("mode", MODES)
    def test_even_in_vz_next_to_the_pure_state(self, mode):
        # the surface is even under (v_z, theta_a) -> (-v_z, pi - theta_a); here the
        # optimum lies within a cell of theta_a = 0 for v_z > 0 and of pi for v_z < 0
        v = 1.0 - np.geomspace(1e-6, 1e-3)
        plus = np.array([res.value for res in maximize_nea(v, mode=mode)])
        minus = np.array([res.value for res in maximize_nea(-v, mode=mode)])
        assert relerr_each(plus, minus) <= 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_mirror_pairs_next_to_the_pure_state(self, mode):
        # d_t and d_r keep their digits there, so -v_z finds the mirror image of
        # v_z's optimum: the same value and theta_a* -> pi - theta_a*
        v = np.array([0.9999, 0.99999628, 0.999999])
        for plus, minus in zip(maximize_nea(v, mode, 1e-8), maximize_nea(-v, mode, 1e-8)):
            assert abs(plus.value - minus.value) <= 1e-12 * minus.value
            assert abs(math.pi - plus.param("theta_a") - minus.param("theta_a")) <= 1e-8
            assert plus.param("theta_a") < 0.02

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
        pt = maximize_ea(0.4, DetectionMode.BOTH)
        assert isinstance(pt, OptResult)
        assert [name for name, _ in pt.argmax] == ["omega"]
        assert pt.value >= float(ea_cr(0.4, 0.5, DetectionMode.BOTH))
        # both-mode optimum is r independent
        assert abs(pt.param("omega") - 0.6165) < 1e-3

    def test_nea_envelope_point(self):
        pt = maximize_nea(0.4, DetectionMode.BOTH, tol=1e-7)
        assert [name for name, _ in pt.argmax] == ["theta_a", "omega"]

    def test_ea_dominates_nea(self):
        for mode in MODES:
            for vz in (0.0, 0.45, 0.9):
                ea = maximize_ea(vz, mode)
                nea = maximize_nea(vz, mode, tol=1e-7)
                assert ea.value >= nea.value - 1e-9

    def test_both_mode_collects_most_information(self):
        for vz in (0.2, 0.7):
            ea_vals = {mode: maximize_ea(vz, mode).value for mode in MODES}
            nea_vals = {mode: maximize_nea(vz, mode, tol=1e-7).value
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
DATA = Path(__file__).parent / "data"


class TestFrozenFigureRows:
    @pytest.mark.parametrize("vz, mode, qfi, theta_star, omega_star", FIGURE_7_ROWS)
    def test_figure_7(self, vz, mode, qfi, theta_star, omega_star):
        pt = maximize_nea(vz, mode, tol=1e-6)
        assert abs(pt.value - qfi) <= CSV_REL * qfi
        assert abs(pt.param("theta_a") - theta_star) <= 1e-6 * (1 + theta_star)
        assert abs(pt.param("omega") - omega_star) <= 1e-6 * (1 + omega_star)

    @pytest.mark.parametrize("vz, mode, nea, ea", FIGURE_8_ROWS)
    def test_figure_8(self, vz, mode, nea, ea):
        assert abs(maximize_nea(vz, mode, tol=1e-6).value - nea) <= CSV_REL * nea
        assert abs(maximize_ea(vz, mode, tol=1e-8).value - ea) <= CSV_REL * ea

    @pytest.mark.parametrize("number", ["7", "8"])
    def test_default_figure_in_full(self, number, tmp_path):
        # every cell of `scattertomo figure N` against data/figureN.csv: values to
        # the CSV's digits, theta_a* and Omega* to the figures' optimizer tolerance
        out = tmp_path / "figure.csv"
        assert main(["figure", number, "-o", str(out)]) == 0
        got = out.read_text().splitlines()
        frozen = (DATA / f"figure{number}.csv").read_text().splitlines()
        assert got[:2] == frozen[:2] and len(got) == len(frozen)
        columns = frozen[1].removeprefix("# columns: ").split(",")
        for line, frozen_line in zip(got[2:], frozen[2:]):
            row, frozen_row = line.split(","), frozen_line.split(",")
            assert len(row) == len(frozen_row) == len(columns)
            for name, x, ref in zip(columns, map(float, row), map(float, frozen_row)):
                if name.startswith(("theta_a_", "omega_")):
                    assert abs(x - ref) <= 1e-6 * (1 + ref), (name, line)
                else:
                    assert abs(x - ref) <= CSV_REL * abs(ref), (name, line)


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
        for r, res in zip(r_grid, maximize_ea(r_grid, mode)):
            assert_same_solve(res, maximize_ea(r, mode), 1e-8)
            # golden section on the same objective finds the same optimum
            golden = maximize_1d(lambda om: float(ea_cr(float(r), om, mode)),
                                 DEFAULT_OMEGA_BRACKET, name="omega")
            omega = golden.param("omega")
            assert abs(res.param("omega") - omega) <= 1e-8 * (1 + omega)
            assert abs(res.value - golden.value) <= 1e-12 * golden.value

    @pytest.mark.parametrize("mode", MODES)
    def test_nea_batch_matches_one_problem_solves(self, mode):
        vz_grid = np.linspace(-0.9, 0.9, 7)
        for vz, res in zip(vz_grid, maximize_nea(vz_grid, mode=mode, tol=1e-7)):
            assert_same_solve(res, maximize_nea(float(vz), mode=mode, tol=1e-7), 1e-7)

    def test_capped_lane_does_not_stop_the_others(self):
        # tol * (1 + 1e4) is below the float spacing at 1e4, so the seed at the
        # lower peak there is capped; the seed at 0 converges as it does alone
        def two_peaks(x):
            return -min(x * x, (x - 1e4)**2 + 1.0)
        alone = maximize_1d(lambda x: -x * x, (-1e5, 1e5), tol=1e-16)
        res = maximize_1d(two_peaks, (-1e5, 1e5), tol=1e-16)
        assert alone.converged and not res.converged
        assert res.iterations == alone.iterations + MAX_ITER
        assert (res.argmax, res.value) == (alone.argmax, alone.value)
        assert abs(res.param("x")) < 1e-6

    def test_batch_sizes_zero_and_one(self):
        assert maximize_nea([], mode=DetectionMode.BOTH) == []
        assert maximize_ea([], DetectionMode.BOTH) == []
        (res,) = maximize_nea([0.3], mode=DetectionMode.BOTH, tol=1e-7)
        assert res == maximize_nea(0.3, mode=DetectionMode.BOTH, tol=1e-7)


class TestBroadcasting:
    """A scalar target gives one OptResult, equal to that of a batch of one."""

    @staticmethod
    def targets():
        # python floats, numpy scalars and 0-d arrays, in turn
        v_z = np.random.default_rng(419).uniform(-0.99, 0.99, 201)
        return [(float, np.float64, np.array)[k % 3](v) for k, v in enumerate(v_z)]

    @pytest.mark.parametrize("mode", MODES)
    def test_nea_scalar_is_a_batch_of_one(self, mode):
        for v in self.targets():
            res = maximize_nea(v, mode)
            assert isinstance(res, OptResult)
            assert res == maximize_nea([v], mode)[0]

    @pytest.mark.parametrize("mode", MODES)
    def test_ea_scalar_is_a_batch_of_one(self, mode):
        for v in self.targets():
            res = maximize_ea(v, mode)
            assert isinstance(res, OptResult)
            assert res == maximize_ea([v], mode)[0]


def ea_radii():
    """The radii of figures 6 and 8, and 1,000 seeded ones up to 0.999999."""
    rng = np.random.default_rng(229)
    return np.concatenate([np.linspace(0.0, 0.98, 50), np.linspace(0.0, 0.95, 20),
                           rng.uniform(0.0, 0.999999, 999), [0.999999]])


class TestEaNewton:
    """maximize_ea: Newton steps on c_r's critical-point polynomial."""

    @pytest.mark.parametrize("mode", MODES)
    def test_optimum_is_a_critical_point(self, mode):
        r = ea_radii()
        results = maximize_ea(r, mode)
        w = np.array([res.param("omega") for res in results])**2
        h = 1e-20 * w
        log_slope = _ea_cr(r * r, w + 1j * h, mode).imag / h * w / _ea_cr(r * r, w, mode)
        assert np.all(np.abs(log_slope) <= 1e-9)  # d ln c_r / d ln W
        assert all(res.converged for res in results)

    @pytest.mark.parametrize("mode", MODES)
    def test_never_below_a_dense_scan(self, mode):
        r = ea_radii()
        values = np.array([res.value for res in maximize_ea(r, mode)])
        w = np.geomspace(*DEFAULT_OMEGA_BRACKET, 20001)**2
        for chunk in np.array_split(np.arange(r.size), 20):
            scan = _ea_cr(r[chunk, None]**2, w, mode).max(axis=1)
            assert np.all(values[chunk] >= scan * (1 - 1e-12))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_handful_of_steps(self, mode):
        results = maximize_ea(ea_radii(), mode)
        assert max(res.iterations for res in results) <= 6

    @pytest.mark.parametrize("mode", MODES)
    def test_tight_tolerance_takes_a_step_or_two_more(self, mode):
        # a zero step from a bracket end is taken, not mistaken for leaving it
        results = maximize_ea(ea_radii(), mode, tol=1e-15)
        assert all(res.converged and res.iterations <= 7 for res in results)

    def test_the_higher_bracket_end_wins(self, monkeypatch):
        # a polynomial negative everywhere sends each lane to its lower end, yet
        # the lane ends at the higher end of its bracket
        monkeypatch.setattr(opt, "_ea_cr_critical", lambda r2, mode: -np.ones((len(r2), 1)))
        r = np.array([0.0, 0.5, 0.9])
        omegas = np.geomspace(*DEFAULT_OMEGA_BRACKET, EA_GRID)
        for mode in MODES:
            ys = ea_cr(r[:, None], omegas, mode)
            i, rows = ys.argmax(axis=1), np.arange(r.size)
            ends = np.maximum(ys[rows, i - 1], ys[rows, i + 1])
            values = [res.value for res in maximize_ea(r, mode)]
            assert values == pytest.approx(ends, rel=1e-7)
            assert not np.allclose(ys[rows, i - 1], ys[rows, i + 1], rtol=1e-6)

    def test_both_optimum_does_not_depend_on_the_radius(self):
        # c_r in both is a function of W over (1 - r^2)
        stars = {res.param("omega") for res in maximize_ea(ea_radii(), DetectionMode.BOTH)}
        stars |= {maximize_ea(r, DetectionMode.BOTH).param("omega") for r in (0, 0.9)}
        assert len(stars) == 1

    @staticmethod
    def root(coef, w, lo, hi, tol=1e-12):
        return _newton_root(np.array(coef, dtype=float), np.array(w, dtype=float),
                            np.array(lo, dtype=float), np.array(hi, dtype=float),
                            lambda a, b: np.abs(b - a) <= tol)

    def test_a_step_leaving_the_bracket_bisects(self):
        # (w - 1)(w - 2)(w - 3) falls through zero at 2; from 1.45, where its
        # slope nearly vanishes, Newton jumps to 5.6 and on to the rising root 3
        w, steps, ok = self.root([[-6, 11, -6, 1]], [1.45], [1.44], [2.56])
        assert ok[0] and abs(w[0] - 2.0) <= 1e-12 and steps[0] < 60

    def test_no_root_ends_on_the_rising_side(self):
        # the polynomial keeps its sign: the maximum is the upper end for a
        # positive one and the lower end for a negative one
        w, _, ok = self.root([[1.0, 0.5], [-1.0, -0.5]], [0.6, 0.6], [0.5, 0.5], [0.8, 0.8])
        assert ok.all() and abs(w[0] - 0.8) <= 1e-11 and abs(w[1] - 0.5) <= 1e-11

    def test_lanes_are_independent(self):
        coef = [[-6, 11, -6, 1], [2, 0, 0, -1], [0.3, -1, 0, 0]]
        lanes = ([1.45, 1.3, 0.2], [1.44, 1.0, 0.1], [2.56, 1.5, 0.5])
        w, steps, ok = self.root(coef, *lanes)
        for k in range(3):
            one = self.root(coef[k:k + 1], *([x[k]] for x in lanes))
            assert (w[k], steps[k], ok[k]) == tuple(x[0] for x in one)
        assert np.allclose(w, [2.0, 2**(1 / 3), 0.3], rtol=0, atol=1e-12)

    def test_capped_lane_does_not_stop_the_others(self):
        w, steps, ok = _newton_root(np.array([[2.0, 0, 0, -1], [2.0, 0, 0, -1]]),
                                    np.array([1.3, 1.3]), np.array([1.0, 1.0]),
                                    np.array([1.5, 1.5]), lambda a, b: np.array([True, False])
                                    & (np.abs(b - a) <= 1e-12))
        assert ok.tolist() == [True, False]
        assert steps[1] == MAX_ITER and steps[0] < 10
        assert w[0] == pytest.approx(2**(1 / 3), abs=1e-12)


def relerr_each(a, b):
    return float(np.max(np.abs(np.asarray(a) - b) / np.abs(b)))


def central_difference(f, h, axis):
    """The five-point central difference of f(theta, u) along axis 0 (theta) or 1 (u)."""
    def df(theta, u):
        total = 0.0
        for k, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            shift = (k * h, 0.0) if axis == 0 else (0.0, k * h)
            total = total + c * f(theta + shift[0], u + shift[1])
        return total / (12.0 * h)
    return df


class TestNeaPerLaneForms:
    """The bivariate form the NEA Newton steps evaluate, against ``nea_qfi``."""

    @staticmethod
    def lanes(bracket, seed):
        """Lanes at random (v_z, theta_a) and log Omega over the whole bracket, ends included."""
        rng = np.random.default_rng(seed)
        v = np.concatenate([[-0.99, 0.0, 0.99], rng.uniform(-0.99, 0.99, 400)])
        theta = np.concatenate([[0.0, math.pi / 2, math.pi],
                                rng.uniform(0.0, math.pi, v.size - 3)])
        u_lo, u_hi = math.log(bracket[0]), math.log(bracket[1])
        u = u_lo + (u_hi - u_lo) * np.concatenate([[0.0, 1.0, 0.5], rng.uniform(size=v.size - 3)])
        return rng, v, theta, u

    @staticmethod
    def check_subsets(build, theta, u, exact, rng):
        """A form built on all lanes, on 17 of them and on one, evaluated as arrays."""
        n = exact.size
        jet = build(np.arange(n))(theta, u)
        assert jet.shape == (6, n)
        assert relerr_each(jet[0], exact) <= 1e-12
        sub = rng.permutation(n)[:17]
        assert relerr_each(build(sub)(theta[sub], u[sub])[0], exact[sub]) <= 1e-12
        one = np.array([5])
        value = build(one)(theta[one], u[one])
        assert value.shape == (6, 1)
        assert relerr_each(value[0], exact[one]) <= 1e-12
        return jet

    def jet_and_qfi(self, mode, bracket, seed):
        rng, v, theta, u = self.lanes(bracket, seed)

        def qfi(t, uu):
            return nea_qfi(v, t, np.exp(uu), mode)
        jet = self.check_subsets(lambda k: _nea_form(v[k], mode), theta, u,
                                 qfi(theta, u), rng)
        return jet, qfi, theta, u

    @pytest.mark.parametrize("mode", MODES)
    def test_value_to_rounding(self, mode):
        # each factor's cosine coefficients are exact: the value is nea_qfi's to
        # rounding at theta_a = k pi/4, between them, and next to the pure state
        rng = np.random.default_rng(13)
        gap = np.geomspace(1e-7, 1e-3, 500)
        v = np.concatenate([rng.uniform(-0.999, 0.999, 1000), 1.0 - gap, gap - 1.0])
        v = np.concatenate([v, v])
        theta = np.concatenate([rng.choice(np.arange(5) * (math.pi / 4), v.size // 2),
                                rng.uniform(0.0, math.pi, v.size // 2)])
        u = rng.uniform(*np.log(DEFAULT_OMEGA_BRACKET), v.size)
        value = _nea_form(v, mode)(theta, u)[0]
        assert relerr_each(value, nea_qfi(v, theta, np.exp(u), mode)) <= 1e-15

    @pytest.mark.parametrize("bracket", [DEFAULT_OMEGA_BRACKET, (1e-3, 1e3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_theta_form(self, mode, bracket):
        # value, d/dtheta and d2/dtheta2 against central differences of nea_qfi
        jet, qfi, theta, u = self.jet_and_qfi(mode, bracket, 11)
        d_t = central_difference(qfi, 1e-3, 0)
        scale = np.abs(jet[0])
        assert np.max(np.abs(jet[1] - d_t(theta, u)) / scale) <= 1e-9
        assert np.max(np.abs(jet[3] - central_difference(d_t, 1e-3, 0)(theta, u)) / scale) <= 1e-7

    @pytest.mark.parametrize("bracket", [DEFAULT_OMEGA_BRACKET, (1e-3, 1e3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_omega_form(self, mode, bracket):
        # d/du, d2/du2 and d2/dtheta du, u = log Omega, against central differences
        jet, qfi, theta, u = self.jet_and_qfi(mode, bracket, 12)
        d_u = central_difference(qfi, 1e-3, 1)
        scale = np.abs(jet[0])
        assert np.max(np.abs(jet[2] - d_u(theta, u)) / scale) <= 1e-9
        assert np.max(np.abs(jet[4] - central_difference(d_u, 1e-3, 0)(theta, u)) / scale) <= 1e-7
        assert np.max(np.abs(jet[5] - central_difference(d_u, 1e-3, 1)(theta, u)) / scale) <= 1e-7


@pytest.mark.parametrize("grouping", ["each mode", "mixed"])
def test_form_matches_nea_qfi_over_the_domain(grouping):
    # one form per call, with no box: Omega log-uniform in [1e-3, 1e3] and
    # |v_z| up to 1 - 1e-6, on lanes of one mode and of all three in one form
    rng = np.random.default_rng(3200)
    n = 2000
    edge = 1.0 - 1e-6
    v = np.concatenate([[edge, -edge, 0.0], rng.uniform(-edge, edge, n - 3)])
    theta = np.concatenate([[0.0, math.pi, math.pi / 2], rng.uniform(0.0, math.pi, n - 3)])
    u = rng.uniform(math.log(1e-3), math.log(1e3), n)
    if grouping == "mixed":
        cuts = np.sort(rng.integers(1, n, 2)).tolist()
        calls = [[(MODES[k], slice(a, b))
                  for k, a, b in zip(rng.permutation(3), [0, *cuts], [*cuts, n])]]
    else:
        calls = [[(mode, slice(None))] for mode in MODES]
    for groups in calls:
        jet = _nea_form(v, groups if len(groups) > 1 else groups[0][0])(theta, u)
        for mode, at in groups:
            exact = nea_qfi(v[at], theta[at], np.exp(u[at]), mode)
            assert relerr_each(jet[0, at], exact) <= 1e-13


@pytest.mark.parametrize("mode", MODES)
def test_form_is_exact_at_the_poles(mode):
    # at theta_a in {0, pi} next to the pure state d_t and d_r are nearly all
    # of the value's rounding: they enter the form from their nonnegative terms, as in nea_qfi
    delta = np.geomspace(1e-4, 1e-12, 5)
    v = np.concatenate([1.0 - delta, delta - 1.0])
    v, theta, omega = (x.ravel() for x in np.meshgrid(
        v, [0.0, math.pi], [0.05, 0.3, 0.57735, 1.0, 3.0, 10.0], indexing="ij"))
    jet = _nea_form(v, mode)(theta, np.log(omega))
    assert relerr_each(jet[0], nea_qfi(v, theta, omega, mode)) <= 1e-14


class TestNeaRefinement:
    """The Newton refinement on random targets |v_z| <= 0.99, in every mode."""

    @staticmethod
    def targets(seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([[-0.99, 0.0, 0.99], rng.uniform(-0.99, 0.99, 25)])

    @pytest.mark.parametrize("mode", MODES)
    def test_never_below_the_dense_grid(self, mode):
        assert_never_below_the_dense_grid(self.targets(21), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_seed_refines_to_a_critical_point(self, mode):
        # all grid-local maxima of the NEA_GRID scan, not only the best six per target
        v_z = self.targets(22)
        thetas = np.linspace(0.0, math.pi, NEA_GRID[0])
        u_lo, u_hi = (math.log(x) for x in DEFAULT_OMEGA_BRACKET)
        us = np.linspace(u_lo, u_hi, NEA_GRID[1])
        scan = nea_qfi(v_z[:, None, None], thetas[:, None], np.exp(us), mode)
        prob, i, j = np.nonzero(_local_maxima(scan, (1, 2)))
        seed_value, v = scan[prob, i, j], v_z[prob]
        theta, u, evals, ok = _nea_refine(v, thetas[i], us[j], [(mode, slice(None))], 1e-8)
        assert ok.all() and evals.max() <= 12
        jet = _nea_form(v, mode)(theta, u)
        value = nea_qfi(v, theta, np.exp(u), mode)
        assert np.all(value >= seed_value - 1e-14 * seed_value)
        # the gradient vanishes where the lane ends inside its box
        w_theta, w_u = 2.0 * (thetas[1] - thetas[0]), 2.0 * (us[1] - us[0])
        lo = np.stack([np.maximum(0.0, thetas[i] - w_theta), np.maximum(u_lo, us[j] - w_u)])
        hi = np.stack([np.minimum(math.pi, thetas[i] + w_theta), np.minimum(u_hi, us[j] + w_u)])
        x = np.stack([theta, u])
        inside = ((x > lo) & (x < hi)).all(axis=0)
        on_edge = (theta == 0.0) | (theta == math.pi)
        assert np.all(np.abs(jet[1:3, inside]) <= 1e-10 * value[inside])
        # on theta_a in {0, pi} the surface is even in theta_a: dQ/dtheta_a = 0
        assert np.all(np.abs(jet[1, on_edge]) <= 1e-12 * value[on_edge])
        assert np.all(np.abs(jet[2, on_edge]) <= 1e-10 * value[on_edge])
        for edge in (0.0, math.pi):
            at_edge = _nea_form(v, mode)(np.full(v.size, edge), u)
            assert np.all(np.abs(at_edge[1]) <= 1e-12 * np.abs(at_edge[0]))
        # a lane may end on a face of its box inside the domain: there the
        # gradient points out of the box, and the target's optimum lies elsewhere
        face = ~inside & ~on_edge
        x, g, lo, hi = x[:, face], jet[1:3, face], lo[:, face], hi[:, face]
        assert np.all(np.where(x <= lo, g <= 0.0,
                               np.where(x >= hi, g >= 0.0, np.abs(g) <= 1e-10 * value[face])))
        best = np.array([res.value for res in maximize_nea(v_z, mode=mode)])
        assert np.all(value[face] < best[prob[face]] * (1.0 - 1e-8))

    @staticmethod
    def leave_the_edge(v, edge):
        # close to the pure state the best probe lies within a cell of theta_a = edge,
        # where the surface has zero slope but curves up along theta_a
        v = np.array([v])
        us = np.linspace(*np.log(DEFAULT_OMEGA_BRACKET), NEA_GRID[1])
        u0 = us[np.argmin(np.abs(us - math.log(0.57735)))]
        at_edge = _nea_form(v, DetectionMode.BOTH)(np.array([edge]), np.array([u0]))
        assert at_edge[1, 0] == pytest.approx(0.0, abs=1e-12 * at_edge[0, 0]) and at_edge[3, 0] > 0.0
        theta, u, evals, ok = _nea_refine(v, np.array([edge]), np.array([u0]),
                                          [(DetectionMode.BOTH, slice(None))], 1e-8)
        assert ok[0] and evals[0] <= 20
        assert abs(theta[0] - edge) > 1e-3
        assert (nea_qfi(v, theta, np.exp(u), DetectionMode.BOTH)
                > nea_qfi(v, edge, np.exp(u), DetectionMode.BOTH) * (1.0 + 1e-8))

    def test_leaves_an_edge_where_the_surface_curves_up(self):
        self.leave_the_edge(-0.99999628, math.pi)

    def test_leaves_the_zero_edge_where_the_surface_curves_up(self):
        # at theta_a = 0 the slope is exactly zero, not rounding noise as at pi
        self.leave_the_edge(0.99999628, 0.0)

    def test_a_false_best_node_leaves_the_optimum(self, monkeypatch):
        # one far scan node made each target's best seed: its lane climbs to
        # another local maximum, and the lower-ranked seeds still find the optimum
        v_z = np.array([0.3, -0.6, 0.9])
        expected = maximize_nea(v_z)

        def false_best(v, thetas, w, mode):
            y = _nea_scan(v, thetas, w, mode)
            y[:, 30, 2] = 10.0 * y.max(axis=(1, 2))
            return y

        monkeypatch.setattr(opt, "_nea_scan", false_best)
        for got, want in zip(maximize_nea(v_z), expected):
            assert got.value == want.value
            assert got.argmax == want.argmax

    @pytest.mark.parametrize("mode", MODES)
    def test_a_handful_of_evaluations_per_target(self, mode):
        results = maximize_nea(np.linspace(-0.99, 0.99, 199), mode=mode)
        assert all(res.converged for res in results)
        assert max(res.iterations for res in results) <= 20

    @pytest.mark.parametrize("mode", MODES)
    def test_interior_optima_are_critical_points(self, mode):
        v_z = self.targets(23)
        results = maximize_nea(v_z, mode=mode)
        theta = np.array([res.param("theta_a") for res in results])
        u = np.log([res.param("omega") for res in results])
        jet = _nea_form(v_z, mode)(theta, u)
        interior = (theta > 0.0) & (theta < math.pi)
        assert interior.any()
        assert np.all(np.abs(jet[1:3, interior]) <= 1e-10 * jet[0, interior])
        assert np.all(np.abs(jet[1, ~interior]) <= 1e-12 * jet[0, ~interior])


class TestNewtonMax:
    """The projected Newton ascent on coupled, multimodal objectives with known jets."""

    def test_never_descends_and_ends_at_a_box_critical_point(self):
        rng = np.random.default_rng(31)
        n = 400
        a, k = rng.uniform(0.2, 1.0, n), rng.integers(2, 5, n)
        phi, b = rng.uniform(0.0, 2 * math.pi, n), rng.uniform(-0.9, 0.9, n)

        def jet(t, u):
            # cos t + a cos(k t + phi) + cos u + b cos(t - u)
            s, c = np.sin(k * t + phi), np.cos(k * t + phi)
            return np.stack([np.cos(t) + a * c + np.cos(u) + b * np.cos(t - u),
                             -np.sin(t) - a * k * s - b * np.sin(t - u),
                             -np.sin(u) + b * np.sin(t - u),
                             -np.cos(t) - a * k * k * c - b * np.cos(t - u),
                             b * np.cos(t - u),
                             -np.cos(u) - b * np.cos(t - u)])
        hi = np.stack([np.full(n, 3.0), np.full(n, 1.5)])
        start = np.stack([rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n)])
        x, evals, ok = _newton_max(jet, start.copy(), -hi, hi, (0.5, 0.5),
                                   lambda x, y: np.abs(y - x).max(axis=0) <= 1e-10)
        assert ok.all() and evals.max() <= 40
        end = jet(*x)
        assert np.all(end[0] >= jet(*start)[0])
        # zero slope inside the box; on a bound the slope points out of it
        g = end[1:3]
        assert np.all(np.abs(g[:, (np.abs(x) < hi).all(axis=0)]) <= 1e-12)
        assert np.all(np.where(x <= -hi, g <= 1e-12, True) & np.where(x >= hi, g >= -1e-12, True))


def padded_maxima_1d(ys):
    """Grid-local maxima along the last axis of a 2-D scan, by comparing with a padded copy."""
    padded = np.pad(ys, ((0, 0), (1, 1)), constant_values=-math.inf)
    return (ys > padded[:, :-2]) & (ys >= padded[:, 2:])


def padded_maxima_nea(surface):
    """Grid-local maxima of a (target, theta_a, Omega) scan against its four neighbours."""
    padded = np.pad(surface, ((0, 0), (1, 1), (1, 1)), constant_values=-math.inf)
    return ((surface >= padded[:, :-2, 1:-1]) & (surface >= padded[:, 2:, 1:-1])
            & (surface >= padded[:, 1:-1, :-2]) & (surface >= padded[:, 1:-1, 2:]))


class TestLocalMaxima:
    """The slice comparisons pick the same candidates as a padded copy of the scan."""

    @pytest.mark.parametrize("mode", MODES)
    def test_figure_7_targets(self, mode):
        thetas = np.linspace(0.0, math.pi, 181)[:, None]
        omegas = np.geomspace(*DEFAULT_OMEGA_BRACKET, 121)[None, :]
        surface = np.stack([nea_qfi(v, thetas, omegas, mode)
                            for v in np.linspace(-0.95, 0.95, 39)])
        assert np.array_equal(_local_maxima(surface, (1, 2)), padded_maxima_nea(surface))
        rows = surface.reshape(-1, omegas.size)
        assert np.array_equal(_local_maxima(rows, (1,), strict_before=True),
                              padded_maxima_1d(rows))

    def test_random_surface_with_plateaus(self):
        surface = np.random.default_rng(331).integers(0, 4, size=(6, 23, 17)).astype(float)
        assert np.array_equal(_local_maxima(surface, (1, 2)), padded_maxima_nea(surface))
        rows = surface.reshape(-1, 17)
        assert np.array_equal(_local_maxima(rows, (1,), strict_before=True),
                              padded_maxima_1d(rows))
        # a plateau keeps its first point in one dimension, every point in two
        flat = np.ones((1, 5))
        assert _local_maxima(flat, (1,), strict_before=True).tolist() == [[1, 0, 0, 0, 0]]
        assert _local_maxima(flat[:, None], (1, 2)).all()


class TestGridMaxima:
    """The theta_a-first seeding picks the points of the 2-D neighbour test, in its order."""

    @staticmethod
    def assert_as_nonzero(y):
        want = np.nonzero(_local_maxima(y, (1, 2)))
        got = _grid_maxima(y)
        assert len(got) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return want

    @pytest.mark.parametrize("mode", MODES)
    def test_figure_scans(self, mode):
        v_z = np.concatenate([np.linspace(-0.95, 0.95, 39), np.linspace(0.0, 0.95, 20)])
        thetas = np.linspace(0.0, math.pi, NEA_GRID[0])
        w = np.geomspace(*DEFAULT_OMEGA_BRACKET, NEA_GRID[1])**2
        self.assert_as_nonzero(_nea_scan(v_z, thetas, w, mode))

    def test_plateaus_ties_and_edges(self):
        rng = np.random.default_rng(337)
        for shape in [(6, 23, 17), (5, 4, 3), (3, 2, 2), (2, 1, 7), (2, 7, 1), (1, 9, 6)]:
            # few levels: many ties and plateaus, and maxima on every edge
            prob, i, j = self.assert_as_nonzero(rng.integers(0, 3, size=shape).astype(float))
            if min(shape[1:]) > 2:
                assert {0, shape[1] - 1} <= set(i.tolist())
                assert {0, shape[2] - 1} <= set(j.tolist())

    def test_maxima_in_the_corners(self):
        # one peak per target, in each corner in turn, on a slope towards it
        i, j = np.ogrid[:7, :5]
        y = np.stack([-(abs(i - a) + abs(j - b)) for a in (0, 6) for b in (0, 4)]).astype(float)
        prob, i_max, j_max = self.assert_as_nonzero(y)
        assert list(zip(prob, i_max, j_max)) == [(0, 0, 0), (1, 0, 4), (2, 6, 0), (3, 6, 4)]

    def test_one_target(self):
        thetas = np.linspace(0.0, math.pi, NEA_GRID[0])
        w = np.geomspace(*DEFAULT_OMEGA_BRACKET, NEA_GRID[1])**2
        for mode in MODES:
            self.assert_as_nonzero(_nea_scan(np.array([0.4]), thetas, w, mode))
        self.assert_as_nonzero(np.random.default_rng(339).normal(size=(1, 12, 8)))

    def test_constant_surface(self):
        y = np.full((2, 5, 4), 0.7)
        prob, i, j = self.assert_as_nonzero(y)
        assert prob.size == y.size

    def test_no_targets(self):
        assert [x.size for x in self.assert_as_nonzero(np.empty((0,) + NEA_GRID))] == [0, 0, 0]


class TestModePerTarget:
    """One mode per target: each result equals that of a call with its mode alone."""

    @staticmethod
    def assert_as_per_mode(v_z, modes, tol=1e-8):
        merged = maximize_nea(v_z, modes, tol)
        assert len(merged) == v_z.size
        for mode in MODES:
            at = [k for k, m in enumerate(modes) if m is mode]
            assert [merged[k] for k in at] == maximize_nea(v_z[at], mode, tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_figure_targets(self, tol):
        # the one solve of figure 7 and of figure 8: every target in every mode
        for v_z in (np.linspace(-0.95, 0.95, 39), np.linspace(0.0, 0.95, 20)):
            self.assert_as_per_mode(np.tile(v_z, 3), [m for m in MODES for _ in v_z], tol)

    def test_seeded_targets_with_shuffled_modes(self):
        rng = np.random.default_rng(733)
        v_z = np.concatenate([[0.0, 0.999, -0.999], rng.uniform(-0.999, 0.999, 297)])
        modes = [MODES[k] for k in rng.permutation(np.arange(v_z.size) % 3)]
        self.assert_as_per_mode(v_z, modes)

    def test_one_refinement_for_all_modes(self, monkeypatch):
        calls, refine = [], opt._nea_refine

        def count(v, theta, u, groups, tol):
            calls.append(v.size)
            return refine(v, theta, u, groups, tol)
        monkeypatch.setattr(opt, "_nea_refine", count)
        maximize_nea([0.3, -0.6, 0.9], [DetectionMode.REFLECTION, DetectionMode.BOTH,
                                               DetectionMode.TRANSMISSION])
        assert len(calls) == 1 and calls[0] >= 3

    def test_one_mode_as_a_sequence(self):
        v_z = np.array([0.3, -0.6, 0.9])
        for mode in MODES:
            assert maximize_nea(v_z, [mode] * 3) == maximize_nea(v_z, mode)

    def test_no_targets(self):
        assert maximize_nea([], []) == []

    @pytest.mark.parametrize("modes", [[DetectionMode.BOTH], [DetectionMode.BOTH] * 3, []],
                             ids=["short", "long", "empty"])
    def test_one_mode_per_target(self, modes):
        with pytest.raises(ValueError, match="one detection mode per target"):
            maximize_nea([0.2, 0.4], modes)

    @pytest.mark.parametrize("entry", ["t", None, 0])
    def test_entries_are_detection_modes(self, entry):
        with pytest.raises(ValueError, match="must be a DetectionMode"):
            maximize_nea([0.2, 0.4], [DetectionMode.TRANSMISSION, entry])

    @pytest.mark.parametrize("v_z", [0.3, [0.1, 0.2, 0.3, 0.4]])
    @pytest.mark.parametrize("mode", ["both", None])
    def test_mode_is_not_iterated(self, v_z, mode):
        with pytest.raises(ValueError, match=f"must be a DetectionMode, got {mode!r}$"):
            maximize_nea(v_z, mode)


class TestEaModePerTarget:
    """maximize_ea with one mode per target: each result is that of its mode alone."""

    def test_shuffled_modes(self):
        rng = np.random.default_rng(743)
        r = np.concatenate([[0.0, 0.99, 0.0, 0.99, 0.5], rng.uniform(0.0, 0.99, 145)])
        modes = [MODES[k] for k in rng.permutation(np.arange(r.size) % 3)]
        merged = maximize_ea(r, modes)
        assert len(merged) == r.size
        for mode in MODES:
            at = [k for k, m in enumerate(modes) if m is mode]
            assert [merged[k] for k in at] == maximize_ea(r[at], mode)
        assert maximize_ea(r[:3], [MODES[2]] * 3) == maximize_ea(r[:3], MODES[2])
        assert maximize_ea([], []) == []

    @pytest.mark.parametrize("modes, message", [
        ([DetectionMode.BOTH], "one detection mode per target"),
        ([DetectionMode.TRANSMISSION, "t"], "must be a DetectionMode, got 't'$"),
        ("both", "must be a DetectionMode, got 'both'$"),
        (None, "must be a DetectionMode, got None$")])
    def test_refuses_as_the_nea_search(self, modes, message):
        for maximize in (maximize_ea, maximize_nea):
            with pytest.raises(ValueError, match=message):
                maximize([0.2, 0.4], modes)

    @pytest.mark.parametrize("number, ea_calls, nea_calls", [(6, 1, 0), (7, 0, 1), (8, 1, 1)])
    def test_one_solve_per_figure(self, number, ea_calls, nea_calls, monkeypatch, tmp_path):
        calls = []
        for name in ("maximize_ea", "maximize_nea"):
            def spy(*args, _solve=getattr(opt, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(opt, name, spy)
        assert main(["figure", str(number), "--points", "4", "-o", str(tmp_path / "f.csv")]) == 0
        assert calls.count("maximize_ea") == ea_calls
        assert calls.count("maximize_nea") == nea_calls


def per_element_results(prob, n, evals, ok, pick, argmax, value):
    """``_results`` one problem at a time, from numpy scalars."""
    iterations = np.bincount(prob, weights=evals, minlength=n)
    failed = np.bincount(prob, weights=~ok, minlength=n)
    return [OptResult(tuple((name, float(x[p])) for name, x in argmax), float(value[p]),
                      int(iterations[k]), not failed[k])
            for k, p in enumerate(pick)]


def test_results_by_column(monkeypatch):
    # the OptResults of mixed-mode batches (one with an unconverged lane), field by
    # field and type by type, against a per-element reference
    seen, results = [], opt._results

    def spy(*args):
        got = results(*args)
        seen.append((got, per_element_results(*args)))
        return got
    monkeypatch.setattr(opt, "_results", spy)
    v = np.linspace(-0.9, 0.9, 12)
    maximize_nea(v, [MODES[k % 3] for k in range(v.size)])
    maximize_ea(np.abs(v), [MODES[k % 3] for k in range(v.size)])
    maximize_ea(0.3, DetectionMode.BOTH)
    prob, evals, ok = np.array([0, 0, 1, 2, 2]), np.array([3, 4, 5, 6, 7]), np.ones(5, dtype=bool)
    ok[3] = False
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    seen.append((results(prob, 3, evals, ok, np.array([1, 2, 4]), [("a", x), ("b", -x)], x),
                 per_element_results(prob, 3, evals, ok, np.array([1, 2, 4]),
                                     [("a", x), ("b", -x)], x)))
    assert len(seen) == 4 and [r.converged for r in seen[-1][0]] == [True, True, False]
    for got, want in seen:
        assert got == want
        for a, b in zip(got, want):
            assert [type(x) for _, x in a.argmax] == [float] * len(b.argmax)
            assert (type(a.value), type(a.iterations), type(a.converged)) == (float, int, bool)


def dense_maximum(v_z, mode, grid=(181, 121), bracket=DEFAULT_OMEGA_BRACKET):
    """Each target's largest ``nea_qfi`` on a (theta_a, log Omega) grid, at its nodes in the domain.

    The grid spans theta_a in [0, pi] and ``bracket``; only the Omega nodes in
    DEFAULT_OMEGA_BRACKET are scanned, a few targets at a time.
    """
    thetas = np.linspace(0.0, math.pi, grid[0])[:, None]
    omegas = np.geomspace(*bracket, grid[1])
    omegas = omegas[(omegas >= DEFAULT_OMEGA_BRACKET[0]) & (omegas <= DEFAULT_OMEGA_BRACKET[1])]
    return np.concatenate([
        nea_qfi(v_z[first:first + 16, None, None], thetas, omegas, mode).max(
            axis=(1, 2), initial=-math.inf)
        for first in range(0, v_z.size, 16)])


def assert_never_below_the_dense_grid(v_z, mode, grid=(181, 121), bracket=DEFAULT_OMEGA_BRACKET):
    v_z = np.asarray(v_z, dtype=float)
    results = maximize_nea(v_z, mode=mode)
    assert all(res.converged for res in results)
    value = np.array([res.value for res in results])
    dense = dense_maximum(v_z, mode, grid, bracket)
    assert np.all(value >= dense - 1e-12 * np.abs(dense))


class TestNeaSeeds:
    """Seeds from the coarse NEA_GRID scan land in every target's best basin.

    Refined, they are never below the maximum of a denser grid over the
    domain: a 181 x 121 grid (nine times NEA_GRID's nodes), finer and offset
    grids, and the nodes in the domain of grids on other brackets.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_figure_targets(self, mode):
        v_z = np.concatenate([np.linspace(-0.95, 0.95, 39), np.linspace(0.0, 0.95, 20)])
        assert_never_below_the_dense_grid(v_z, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_sweep_on_the_default_grid(self, mode):
        rng = np.random.default_rng(701)
        v_z = np.concatenate([[0.0, 0.999, -0.999], rng.uniform(-0.999, 0.999, 1000)])
        assert_never_below_the_dense_grid(v_z, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_targets_near_the_poles(self, mode):
        v_z = [0.9999, -0.9999, 0.99999, -0.99999, 0.999999, -0.999999]
        assert_never_below_the_dense_grid(v_z, mode)

    @pytest.mark.parametrize("bracket", [DEFAULT_OMEGA_BRACKET, (1e-3, 1e3), (0.5, 2.0)])
    @pytest.mark.parametrize("grid", [(181, 121), (180, 120), (91, 61), (361, 241), (7, 5),
                                      (2, 2)])
    def test_other_grids_and_brackets(self, grid, bracket):
        rng = np.random.default_rng(grid[0] * grid[1])
        v_z = np.concatenate([[0.0, 0.999, -0.999, 0.5], rng.uniform(-0.999, 0.999, 20)])
        for mode in MODES:
            assert_never_below_the_dense_grid(v_z, mode, grid, bracket)


class _Seeded(Exception):
    """Raised in place of the NEA refinement once a solve has chosen its seeds."""


def nea_seeds(v_z, mode, monkeypatch, scan=None):
    """The lanes (v_z, theta_a, log Omega) that seed ``maximize_nea``'s refinement, in order.

    Lanes come per target in rank order, so equal lanes mean equal seeds:
    problem, theta_a node, Omega node and rank. ``scan`` replaces ``_nea_scan``.
    """
    seen = []

    def spy(v, theta, u, groups, tol):
        seen.append((v, theta, u))
        raise _Seeded
    with monkeypatch.context() as patch:
        patch.setattr(opt, "_nea_refine", spy)
        if scan is not None:
            patch.setattr(opt, "_nea_scan", scan)
        with pytest.raises(_Seeded):
            maximize_nea(v_z, mode=mode)
    return seen[0]


def direct_scan(v, thetas, w, mode):
    # the scan's W are squares of floats, whose sqrt is exact, so nea_qfi sees the same W
    return nea_qfi(v[:, None, None], thetas[:, None], np.sqrt(w), mode)


class TestNeaScan:
    """The seeding scan's factors, read at the grid's own theta_a, against ``nea_qfi``."""

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_nea_qfi_on_the_grid(self, mode):
        # each term's products, read at every grid theta_a, against nea_qfi at
        # every grid node: seeded targets with |v_z| <= 0.999, then 1 - |v_z| down to
        # 1e-7, where the small d_t and d_r carry the rounding; the grid-local
        # maxima are those of the exact surface
        rng = np.random.default_rng(719)
        inner = np.concatenate([[0.0, 0.999, -0.999], rng.uniform(-0.999, 0.999, 300)])
        gap = np.geomspace(1e-7, 1e-3, 30)
        thetas = np.linspace(0.0, math.pi, NEA_GRID[0])
        w = np.exp(np.linspace(*np.log(DEFAULT_OMEGA_BRACKET), NEA_GRID[1]))**2
        for v, bound in ((inner, 5e-13), (np.concatenate([1.0 - gap, gap - 1.0]), 2e-9)):
            y, exact = _nea_scan(v, thetas, w, mode), direct_scan(v, thetas, w, mode)
            assert y.shape == (v.size,) + NEA_GRID
            assert relerr_each(y, exact) <= bound
            for a, b in zip(_grid_maxima(y), _grid_maxima(exact)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_to_rounding(self, mode):
        # the factors themselves at every theta_a, on the grid and at its midpoints:
        # within a few ulps of nea_qfi, next to the pure state too
        rng = np.random.default_rng(719)
        inner = np.concatenate([[0.0, 0.999, -0.999], rng.uniform(-0.999, 0.999, 300)])
        gap = np.geomspace(1e-7, 1e-3, 30)
        grid = np.linspace(0.0, math.pi, NEA_GRID[0])
        w = np.exp(np.linspace(*np.log(DEFAULT_OMEGA_BRACKET), NEA_GRID[1]))**2
        for v in (inner, np.concatenate([1.0 - gap, gap - 1.0])):
            for thetas in (grid, 0.5 * (grid[1:] + grid[:-1])):
                y = _nea_scan(v, thetas, w, mode)
                # relerr_each broadcasts, so the shape is checked on its own
                assert y.shape == (v.size, thetas.size, NEA_GRID[1])
                assert relerr_each(y, direct_scan(v, thetas, w, mode)) <= 4e-15

    @pytest.mark.parametrize("targets", ["figures", "seeded", "poles"])
    @pytest.mark.parametrize("mode", MODES)
    def test_seeds_of_a_direct_scan(self, mode, targets, monkeypatch):
        # the figure 7 and 8 targets, then those of TestNeaSeeds' sweep and pole list
        v_z = {"figures": np.concatenate([np.linspace(-0.95, 0.95, 39),
                                          np.linspace(0.0, 0.95, 20)]),
               "seeded": np.concatenate([[0.0, 0.999, -0.999],
                                         np.random.default_rng(701).uniform(-0.999, 0.999, 1000)]),
               "poles": [0.9999, -0.9999, 0.99999, -0.99999, 0.999999, -0.999999]}[targets]
        fitted = nea_seeds(v_z, mode, monkeypatch)
        direct = nea_seeds(v_z, mode, monkeypatch, direct_scan)
        assert fitted[0].size >= len(v_z)
        for a, b in zip(fitted, direct):
            assert np.array_equal(a, b)


class TestNeaDenominators:
    """Every denominator of ``nea_qfi`` is positive on the whole domain.

    So ``nea_qfi`` is finite everywhere in it: at every node of the NEA_GRID
    scan, which checks them all, and at the off-grid points where the Newton
    refinement evaluates its forms, which are not checked. Every factor's sign
    is also checked in ``test_nea_terms.py``; here the denominators on the
    scan's own nodes, and the sums-of-squares forms of the two that vanish at
    the pure state.
    """

    # (d_t, d_r, f_t, f_r, n, m): the slots each mode's QFI divides by
    DENOMINATOR_SLOTS = {DetectionMode.TRANSMISSION: (0, 2, 3),  # d_t, f_t, f_r
                         DetectionMode.REFLECTION: (1, 5),  # d_r, m
                         DetectionMode.BOTH: (0, 1, 2, 3)}  # d_t, d_r, f_t, f_r

    @pytest.mark.parametrize("mode", MODES)
    def test_positive(self, mode):
        slots = self.DENOMINATOR_SLOTS[mode]
        terms = _NEA_TERMS[mode][1]
        assert set(slots) == {i for e in terms for i, p in enumerate(e) if p < 0}
        v = np.concatenate([[0.0, 0.999999, -0.999999], np.linspace(-0.9999, 0.9999, 41)])
        theta = np.linspace(0.0, math.pi, 73)
        w = np.geomspace(1e-8, 1e8, 49)
        v, theta, w = np.meshgrid(v, theta, w, indexing="ij", sparse=True)
        factors = _nea_factors(v, theta, w, mode)
        for i in slots:
            assert np.all(factors[i] > 0.0)

    def test_sum_of_squares_forms(self):
        # d_t = 2(1+W)(1 - v cos)^2 + 2(1+9W)(1 - v^2) and
        # d_r = 2(1 - v cos)^2 + 2(1 - v^2): both positive for |v| < 1
        rng = np.random.default_rng(709)
        v = rng.uniform(-0.999, 0.999, 500)
        theta = rng.uniform(0.0, math.pi, 500)
        w = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), 500))
        d_t, d_r = _nea_factors(v, theta, w, DetectionMode.BOTH)[:2]
        square, rest = (1 - v * np.cos(theta))**2, 1 - v**2
        assert relerr_each(d_t, 2 * (1 + w) * square + 2 * (1 + 9 * w) * rest) <= 1e-10
        assert relerr_each(d_r, 2 * square + 2 * rest) <= 1e-10


class TestBatchInputChecks:
    @pytest.mark.parametrize("v_z", [math.nan, 1.0, -1.5])
    def test_nea_batch_rejects(self, v_z):
        with pytest.raises(ValueError):
            maximize_nea([0.2, v_z])

    def test_nea_scan_must_be_finite(self, monkeypatch):
        def nan_at_one_node(v, thetas, w, mode):
            y = _nea_scan(v, thetas, w, mode)
            y[..., 7, 3] = math.nan
            return y
        monkeypatch.setattr(opt, "_nea_scan", nan_at_one_node)
        with pytest.raises(ValueError, match="not finite on the scan grid"):
            maximize_nea([0.2, 0.4])

    @pytest.mark.parametrize("mode", MODES)
    def test_ea_batch_rejects(self, mode):
        # the messages of ea_cr, which checks the same radii
        with pytest.raises(ValueError, match="pure-state boundary r = 1"):
            maximize_ea([1.0], mode)
        with pytest.raises(ValueError, match="pure-state boundary r = 1"):
            maximize_ea([0.2, -1.0], mode)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            maximize_ea([math.nan], mode)
