import math

import numpy as np
import pytest

from scattertomo.closedform import (
    _EA_CR_CRITICAL,
    _ea_cperp,
    _ea_cr,
    _ea_cr_critical,
    axis_vz,
    closed_matrix,
    direct_cartesian,
    direct_qfi,
    ea_cartesian,
    ea_cr,
    ea_polar,
    nea_qfi,
    phase_bound,
    purity_bound,
)
from scattertomo.qfi import cartesian_to_polar, qfi_numeric
from scattertomo.scatter import (OMEGA_MAX, DetectionMode, apply_channel, channel_derivatives,
                                 direct_branches)
from scattertomo.states import (AXIS_TOL, BlochVector, PolarCoords, ProbeConfig,
                                bloch_to_density, bloch_to_polar, polar_to_bloch)

from conftest import log_uniform, relerr

MODES = (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION, DetectionMode.BOTH)
MODE_KEYS = {"t": DetectionMode.TRANSMISSION, "r": DetectionMode.REFLECTION,
             "both": DetectionMode.BOTH}


class TestDirectQfi:
    def test_maximally_mixed(self):
        coeffs = direct_qfi(0.0)
        assert (coeffs.c_r, coeffs.c_theta) == (1.0, 0.0)

    def test_r_06(self):
        coeffs = direct_qfi(0.6)
        assert abs(coeffs.c_r - 1.5625) < 1e-15
        assert abs(coeffs.c_theta - 0.36) < 1e-15

    def test_angle_independent(self):
        # the oracle's polar rr and theta-theta entries do not depend on theta
        coeffs = direct_qfi(0.4)
        entries = []
        for theta in (0.3, 2.2):
            p = PolarCoords(0.4, theta, 0.7)
            h = cartesian_to_polar(qfi_numeric(*direct_branches(polar_to_bloch(p))), p).h
            entries.append((h[0, 0], h[1, 1]))
            assert abs(h[0, 0] - coeffs.c_r) <= 1e-12 * coeffs.c_r
            assert abs(h[1, 1] - coeffs.c_theta) <= 1e-12 * coeffs.c_theta
        assert entries[0] == pytest.approx(entries[1], rel=1e-12, abs=0.0)

    def test_boundary_and_domain(self):
        assert direct_qfi(1.0).c_r == math.inf
        with pytest.raises(ValueError):
            direct_qfi(-0.1)
        with pytest.raises(ValueError):
            direct_qfi(1.2)

    def test_polar_matrix_layout(self):
        h = direct_qfi(0.5).matrix(math.pi / 3)
        assert h.basis == "polar"
        assert abs(h.h[2, 2] - 0.25 * math.sin(math.pi / 3) ** 2) < 1e-15

    def test_cartesian_matches_polar_coefficients(self):
        v = BlochVector(0.3, -0.4, 0.5)
        p = bloch_to_polar(v)
        h = cartesian_to_polar(direct_cartesian(v), p)
        assert relerr(h.h, direct_qfi(p.r).matrix(p.theta).h) < 1e-14

    def test_cartesian_boundary_is_domain_error(self):
        for v in (BlochVector(0.0, 0.0, 1.0), BlochVector(0.8, 0.0, 0.6)):
            with pytest.raises(ValueError):
                direct_cartesian(v)


class TestEaPolar:
    def test_vanishes_at_momentum_extremes(self):
        for om in (1e-4, 1e4):
            for mode in MODES:
                coeffs = ea_polar(0.5, om, mode)
                assert coeffs.c_r < 1e-6
                assert coeffs.c_theta < 1e-6

    def test_both_mode_rescaled_cr_is_r_independent(self):
        om = 0.73
        values = [(1 - r * r) * ea_polar(r, om, DetectionMode.BOTH).c_r
                  for r in (0.0, 0.3, 0.6, 0.9)]
        assert max(values) - min(values) < 1e-14

    def test_single_mode_rescaled_cr_depends_on_r(self):
        om = 0.73
        for mode in (DetectionMode.TRANSMISSION, DetectionMode.REFLECTION):
            values = [(1 - r * r) * ea_polar(r, om, mode).c_r for r in (0.0, 0.9)]
            assert abs(values[0] - values[1]) > 1e-3

    def test_pure_boundary(self):
        coeffs = ea_polar(1.0, 0.7, DetectionMode.BOTH)
        assert coeffs.c_r == math.inf
        assert math.isfinite(coeffs.c_theta)

    def test_domain(self):
        with pytest.raises(ValueError):
            ea_polar(0.5, -1.0, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            ea_polar(1.1, 1.0, DetectionMode.BOTH)

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(97)
        probe = ProbeConfig(entangled=True)
        for _ in range(10):
            r = rng.uniform(0.05, 0.9)
            om = log_uniform(rng, 0.05, 20)
            rho = bloch_to_density(BlochVector(0, 0, r))
            for mode in MODES:
                h = qfi_numeric(apply_channel(rho, probe, om, mode),
                                channel_derivatives(probe, om, mode))
                coeffs = ea_polar(r, om, mode)
                # on the z axis the polar radial/angular directions are the
                # cartesian z and x/y directions
                assert abs(h.h[2, 2] - coeffs.c_r) < 1e-9 * max(1, coeffs.c_r)
                c_theta_over_r2 = h.h[0, 0]  # c_theta / r^2 in cartesian form
                assert abs(c_theta_over_r2 * r * r - coeffs.c_theta) \
                    < 1e-9 * max(1, coeffs.c_theta)


def ea_cr_slope(r2, w, mode):
    """dc_r/dW by the complex step, exact to rounding."""
    h = 1e-20 * w
    return _ea_cr(r2, w + 1j * h, mode).imag / h


def powers_sum(coef, w):
    return (coef * w[:, None]**np.arange(coef.shape[-1])).sum(axis=-1)


# the denominator D of c_r = N / ((1 - r^2) D), as _ea_cr writes it
EA_CR_DENOMINATOR = {
    DetectionMode.BOTH: lambda r2, w: (1 + w) * (1 + 5 * w) * (1 + 9 * w)**2,
    DetectionMode.TRANSMISSION:
        lambda r2, w: (1 + w) * (1 + 5 * w) * (1 + 9 * w) * (9 * (1 + 3 * w)**2 - 4 * r2),
    DetectionMode.REFLECTION:
        lambda r2, w: (1 + w) * (1 + 9 * w)**2 * ((1 + 7 * w)**2 - 4 * r2 * w**2),
}


class TestEaCriticalPolynomial:
    @staticmethod
    def points(seed, n=4000):
        rng = np.random.default_rng(seed)
        r2 = rng.uniform(0.0, 0.999999, n)**2
        return r2, np.exp(rng.uniform(math.log(1e-4), math.log(1e4), n))

    @pytest.mark.parametrize("mode", MODES)
    def test_shape(self, mode):
        table = np.array(_EA_CR_CRITICAL[mode])
        assert table.dtype.kind == "i"
        # degree 6 in W with no r^2 term in both; degree 8 and quadratic in r^2 otherwise
        assert table.shape == ((1, 7) if mode is DetectionMode.BOTH else (3, 9))
        assert table[0, -1] != 0
        assert _ea_cr_critical(np.zeros((4, 5)), mode).shape == (4, 5, table.shape[1])

    @pytest.mark.parametrize("mode", MODES)
    def test_sign_is_the_slope_sign(self, mode):
        r2, w = self.points(211)
        slope = ea_cr_slope(r2, w, mode)
        away = np.abs(slope) * w > 1e-6 * _ea_cr(r2, w, mode)  # away from the roots
        assert away.mean() > 0.99
        p = powers_sum(_ea_cr_critical(r2, mode), w)
        assert np.array_equal(np.sign(p[away]), np.sign(slope[away]))

    @pytest.mark.parametrize("mode", MODES)
    def test_is_the_quotient_rule_numerator(self, mode):
        # P = N'D - ND' = (1 - r^2) D^2 dc_r/dW, to rounding in P's terms
        r2, w = self.points(223)
        p = powers_sum(_ea_cr_critical(r2, mode), w)
        expected = (1 - r2) * EA_CR_DENOMINATOR[mode](r2, w)**2 * ea_cr_slope(r2, w, mode)
        table = np.abs(np.array(_EA_CR_CRITICAL[mode], dtype=float))
        terms = r2[:, None, None]**np.arange(len(table))[:, None] * table
        assert np.all(np.abs(p - expected) <= 1e-12 * powers_sum(terms.sum(axis=1), w))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown detection mode"):
            _ea_cr_critical(0.5, "both")


class TestNeaQfi:
    def test_vanishes_at_momentum_extremes(self):
        for om in (1e-4, 1e4):
            for mode in MODES:
                assert nea_qfi(0.4, 0.6, om, mode) < 1e-6

    def test_symmetry_under_inversion(self):
        # flipping the target through the origin and the probe with it leaves
        # the information unchanged: H(-v_z, pi - theta_a) = H(v_z, theta_a)
        rng = np.random.default_rng(101)
        for _ in range(20):
            vz = rng.uniform(-0.9, 0.9)
            ta = rng.uniform(0, math.pi)
            om = log_uniform(rng, 0.05, 20)
            for mode in MODES:
                a = nea_qfi(vz, ta, om, mode)
                b = nea_qfi(-vz, math.pi - ta, om, mode)
                assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_divergence_toward_pure_aligned_target(self):
        # grows without bound as v_z -> 1 with theta_a = 0 (like 1/(1 - v_z^2))
        for mode in MODES:
            near = nea_qfi(0.999, 0.0, 0.5, mode)
            nearer = nea_qfi(0.9999, 0.0, 0.5, mode)
            assert near > 1e2
            assert nearer > 1e3
            ratio = nearer / near
            assert 8.0 < ratio < 12.0

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            vz = rng.uniform(-0.9, 0.9)
            ta = rng.uniform(0, math.pi)
            om = log_uniform(rng, 0.05, 20)
            probe = ProbeConfig(theta_a=ta)
            rho = bloch_to_density(BlochVector(0, 0, vz))
            for mode in MODES:
                val = qfi_numeric(apply_channel(rho, probe, om, mode),
                                  channel_derivatives(probe, om, mode)).entry("z", "z")
                expected = nea_qfi(vz, ta, om, mode)
                assert abs(val - expected) < 1e-9 * max(1.0, abs(expected))

    def test_domain(self):
        with pytest.raises(ValueError):
            nea_qfi(1.0, 0.0, 0.5, DetectionMode.BOTH)
        with pytest.raises(ValueError):
            nea_qfi(0.5, 0.0, 0.0, DetectionMode.BOTH)

    def test_broadcasts(self):
        out = nea_qfi(0.3, np.linspace(0, math.pi, 5)[:, None],
                      np.array([0.5, 1.0])[None, :], DetectionMode.BOTH)
        assert out.shape == (5, 2)

    @pytest.mark.parametrize("mode", MODES)
    def test_scalar_call_is_the_array_element_bit_for_bit(self, mode):
        rng = np.random.default_rng(83)
        n = 3000
        v, theta = rng.uniform(-0.999, 0.999, n), rng.uniform(0.0, math.pi, n)
        omega = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
        array = nea_qfi(v, theta, omega, mode)
        scalar = [nea_qfi(*args, mode) for args in zip(v.tolist(), theta.tolist(), omega.tolist())]
        assert all(type(x) is float for x in scalar)
        assert np.array_equal(scalar, array)
        # numpy scalars and 0-d arrays are scalars too, alone or among Python floats
        for i in range(20):
            x, t, o = v[i], theta[i], omega[i]
            fx, ft, fo = float(x), float(t), float(o)
            for args in ((x, t, o), (np.array(x), t, np.array(o)),
                         (x, ft, fo), (fx, t, fo), (fx, ft, o),
                         (np.array(x), ft, fo), (fx, np.array(t), fo), (fx, ft, np.array(o)),
                         (np.array(x), np.array(t), np.array(o))):
                got = nea_qfi(*args, mode)
                assert type(got) is float and got == array[i]


class TestAxisVz:
    @pytest.mark.parametrize("vz", [0.0, 0.4, -0.95, 1.0])
    def test_on_the_axis(self, vz):
        assert axis_vz(BlochVector(0.0, 0.0, vz)) == vz

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_boundary_is_axis_tol(self, sign):
        inside = sign * 0.999 * AXIS_TOL
        assert axis_vz(BlochVector(inside, 0.0, 0.4)) == 0.4
        assert axis_vz(BlochVector(0.0, inside, 0.4)) == 0.4
        assert axis_vz(BlochVector(inside, inside, 0.4)) == 0.4
        for v in (BlochVector(sign * AXIS_TOL, 0.0, 0.4), BlochVector(0.0, sign * AXIS_TOL, 0.4),
                  BlochVector(0.3, 0.0, 0.4), BlochVector(0.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="z axis"):
                axis_vz(v)


class TestClosedMatrix:
    V = BlochVector(0.2, -0.3, 0.4)
    ON_AXIS = BlochVector(0.0, 0.0, -0.6)

    @pytest.mark.parametrize("mode", MODES)
    def test_direct_and_ea_fill_every_cell(self, mode):
        p = bloch_to_polar(self.V)
        expected = {
            ("direct", "cartesian"): direct_cartesian(self.V).h,
            ("direct", "polar"): direct_qfi(p.r).matrix(p.theta).h,
            ("ea", "cartesian"): ea_cartesian(self.V, 0.7, mode).h,
            ("ea", "polar"): ea_polar(p.r, 0.7, mode).matrix(p.theta).h,
        }
        for (strategy, basis), h in expected.items():
            got = closed_matrix(strategy, self.V, 0.7, mode, 0.3, basis)
            assert not np.isnan(got).any()
            assert np.array_equal(got, h)

    @pytest.mark.parametrize("mode", MODES)
    def test_nea_has_zz_on_the_axis_only(self, mode):
        h = closed_matrix("nea", self.ON_AXIS, 0.7, mode, 0.3, "cartesian")
        assert h[2, 2] == nea_qfi(-0.6, 0.3, 0.7, mode)
        assert np.isnan(np.delete(h.ravel(), 8)).all()
        for v, basis in ((self.V, "cartesian"), (self.ON_AXIS, "polar"), (self.V, "polar"),
                         (BlochVector(AXIS_TOL, 0.0, -0.6), "cartesian")):
            assert np.isnan(closed_matrix("nea", v, 0.7, mode, 0.3, basis)).all()
        near = closed_matrix("nea", BlochVector(0.5 * AXIS_TOL, 0.0, -0.6), 0.7, mode, 0.3,
                             "cartesian")
        assert near[2, 2] == h[2, 2]

    def test_nea_on_axis_keeps_the_domain_checks(self):
        with pytest.raises(ValueError, match=r"\|v_z\| < 1"):
            closed_matrix("nea", BlochVector(0.0, 0.0, 1.0), 0.7, DetectionMode.BOTH, 0.3,
                          "cartesian")

    @pytest.mark.parametrize("strategy, basis", [("bogus", "cartesian"), ("ea", "bogus"),
                                                 ("nea", "spherical")])
    def test_unknown_strategy_or_basis(self, strategy, basis):
        with pytest.raises(ValueError, match="unknown"):
            closed_matrix(strategy, self.V, 0.7, DetectionMode.BOTH, 0.3, basis)


class TestInputChecks:
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_omega_must_be_positive_and_finite(self, omega):
        v, arr = BlochVector(0.1, 0.2, 0.3), np.array([0.5, omega])
        for mode in MODES:
            for call in (lambda: ea_cartesian(v, omega, mode),
                         lambda: ea_polar(0.5, omega, mode),
                         lambda: ea_polar(0.5, arr, mode),
                         lambda: nea_qfi(0.3, 0.6, omega, mode),
                         lambda: nea_qfi(0.3, 0.6, arr, mode)):
                with pytest.raises(ValueError, match="omega must be positive and finite"):
                    call()

    @pytest.mark.parametrize("omega", [np.nextafter(OMEGA_MAX, math.inf), 1e30, 1e200])
    def test_omega_above_the_limit_is_refused(self, omega):
        v, arr = BlochVector(0.1, 0.2, 0.3), np.array([0.5, omega])
        for mode in MODES:
            for call in (lambda: ea_cartesian(v, omega, mode),
                         lambda: ea_cr(0.5, omega, mode),
                         lambda: ea_polar(0.5, arr, mode),
                         lambda: nea_qfi(0.3, 0.6, omega, mode),
                         lambda: nea_qfi(0.3, 0.6, arr, mode)):
                with pytest.raises(ValueError, match="at most OMEGA_MAX"):
                    call()
        with pytest.raises(ValueError, match="at most OMEGA_MAX"):
            phase_bound(omega, 1)

    def test_every_closed_form_is_finite_and_positive_at_the_limit(self):
        r = np.linspace(0.0, 0.999999, 301)
        vz = np.linspace(-0.999999, 0.999999, 201)[:, None]
        theta_a = np.linspace(0.0, math.pi, 181)[None, :]
        v = BlochVector(0.3, -0.2, 0.5)
        for mode in MODES:
            coeffs = ea_polar(r, OMEGA_MAX, mode)
            for values in (ea_cr(r, OMEGA_MAX, mode), coeffs.c_r, coeffs.c_theta[1:],
                           nea_qfi(vz, theta_a, OMEGA_MAX, mode)):
                assert np.isfinite(values).all() and (values > 0.0).all()
            h = ea_cartesian(v, OMEGA_MAX, mode).h
            assert np.isfinite(h).all() and np.linalg.eigvalsh(h).min() > 0.0
        assert 0.0 < phase_bound(OMEGA_MAX, 1) < math.inf
        assert 0.0 < purity_bound(0.5, OMEGA_MAX, 1) < math.inf

    @pytest.mark.parametrize("vz", [math.nan, math.inf, -math.inf, 1.0, -1.0])
    def test_nea_vz_inside_the_ball(self, vz):
        for v in (vz, np.array([0.3, vz])):
            with pytest.raises(ValueError, match=r"v_z must satisfy \|v_z\| < 1"):
                nea_qfi(v, 0.6, 0.5, DetectionMode.BOTH)

    @pytest.mark.parametrize("theta_a", [math.nan, math.inf, -math.inf])
    def test_nea_theta_a_finite(self, theta_a):
        for t in (theta_a, np.array([0.6, theta_a])):
            with pytest.raises(ValueError, match="theta_a must be finite"):
                nea_qfi(0.3, t, 0.5, DetectionMode.BOTH)


class TestEaCartesian:
    def test_diagonal_on_axis(self):
        for mode in MODES:
            h = ea_cartesian(BlochVector(0, 0, 0.4), 0.8, mode)
            off = h.h - np.diag(np.diag(h.h))
            assert np.max(np.abs(off)) < 1e-14

    def test_zz_entry_equals_radial_coefficient(self):
        for mode in MODES:
            h = ea_cartesian(BlochVector(0, 0, 0.4), 0.8, mode)
            assert abs(h.h[2, 2] - ea_polar(0.4, 0.8, mode).c_r) < 1e-12

    def test_axis_isotropy(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            r = rng.uniform(0.05, 0.9)
            om = log_uniform(rng, 0.05, 20)
            for mode in MODES:
                rescaled = []
                for axis in range(3):
                    v = np.zeros(3)
                    v[axis] = r
                    h = ea_cartesian(BlochVector.from_array(v), om, mode)
                    rescaled.append((1 - r * r) * h.h[axis, axis])
                expected = (1 - r * r) * ea_polar(r, om, mode).c_r
                for val in rescaled:
                    assert abs(val - expected) < 1e-9 * max(1, expected)

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(109)
        probe = ProbeConfig(entangled=True)
        for _ in range(15):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.95) / np.linalg.norm(v)
            om = log_uniform(rng, 0.05, 20)
            rho = bloch_to_density(BlochVector.from_array(v))
            for mode in MODES:
                h_num = qfi_numeric(apply_channel(rho, probe, om, mode),
                                    channel_derivatives(probe, om, mode))
                h_closed = ea_cartesian(BlochVector.from_array(v), om, mode)
                assert relerr(h_num.h, h_closed.h) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            ea_cartesian(BlochVector(1.0, 0, 0), 0.5, DetectionMode.BOTH)


# ea_cartesian outside the oracle's tested window, recorded from the per-mode
# cartesian expressions the covariant form replaced: (Omega, |v|, mode, upper
# triangle xx, xy, xz, yy, yz, zz) at v = |v| (2, 6, 9)/11
EA_CARTESIAN_PINS = (
    (0.001, 0.0, 't',
     (7.333252000779326e-06, 0.0, 0.0,
      7.333252000779326e-06, 0.0, 7.333252000779326e-06)),
    (0.001, 0.0, 'r',
     (2.0000199994300083e-06, 0.0, 0.0,
      2.0000199994300083e-06, 0.0, 2.0000199994300083e-06)),
    (0.001, 0.0, 'both',
     (7.999952000104002e-06, 0.0, 0.0,
      7.999952000104002e-06, 0.0, 7.999952000104002e-06)),
    (0.001, 0.0001, 't',
     (7.333252017462592e-06, 5.050452290291107e-15, 7.57567843543666e-15,
      7.333252030930465e-06, 2.2727035306309987e-14, 7.333252049869662e-06)),
    (0.001, 0.0001, 'r',
     (2.000020004925746e-06, 1.4876330758946218e-15, 2.2314496138419325e-15,
      2.0000200088927677e-06, 6.694348841525799e-15, 2.0000200144713923e-06)),
    (0.001, 0.0001, 'both',
     (7.99995202208711e-06, 5.950401396493558e-15, 8.925602094740339e-15,
      7.999952037954847e-06, 2.677680628422102e-14, 7.99995206026885e-06)),
    (0.001, 0.999999, 't',
     (0.0991816494760589, 0.29751694878417245, 0.4462754231762587,
      0.8925601795671854, 1.3388262695287758, 2.0082487375078317)),
    (0.001, 0.999999, 'r',
     (0.03306071072629555, 0.09917413220421965, 0.14876119830632947,
      0.29752506327088124, 0.44628359491898834, 0.6694280590367048)),
    (0.001, 0.999999, 'both',
     (0.13224099162161235, 0.3966909752061666, 0.5950364628092499,
      1.19008359217139, 1.7851093884277494, 2.677674749194514)),
    (1000.0, 0.0, 't',
     (5.777772029635175e-07, 0.0, 0.0,
      5.777772029635175e-07, 0.0, 5.777772029635175e-07)),
    (1000.0, 0.0, 'r',
     (7.301578604191334e-07, 0.0, 0.0,
      7.301578604191334e-07, 0.0, 7.301578604191334e-07)),
    (1000.0, 0.0, 'both',
     (1.2444430301248918e-06, 0.0, 0.0,
      1.2444430301248918e-06, 0.0, 1.2444430301248918e-06)),
    (1000.0, 0.0001, 't',
     (5.777772036573278e-07, 5.214319354938012e-16, 7.821479032407017e-16,
      5.777772050478129e-07, 2.3464437097221053e-15, 5.777772070031828e-07)),
    (1000.0, 0.0001, 'r',
     (7.301578622527997e-07, 5.0100744331952925e-16, 7.515111649792938e-16,
      7.301578635888196e-07, 2.254533494937882e-15, 7.301578654675975e-07)),
    (1000.0, 0.0001, 'both',
     (1.2444430326506553e-06, 1.0172991960544397e-15, 1.5259487940816597e-15,
      1.2444430353634532e-06, 4.5778463822449805e-15, 1.2444430391783253e-06)),
    (1000.0, 0.999999, 't',
     (0.009550654301821913, 0.028650058145797113, 0.04297508721869567,
      0.08595080935728087, 0.12892526165608698, 0.19338852740402002)),
    (1000.0, 0.999999, 'r',
     (0.011020199376843655, 0.033057740993245946, 0.04958661148986892,
      0.09917417535883284, 0.14875983446960675, 0.2231407040835051)),
    (1000.0, 0.999999, 'both',
     (0.020570790000063104, 0.061707798579335525, 0.0925616978690033,
      0.18512491954495788, 0.2776850936070099, 0.416529164217466)),
)


class TestEaCartesianPins:
    @pytest.mark.parametrize("omega, r, mode, upper", EA_CARTESIAN_PINS)
    def test_matches_recorded_values(self, omega, r, mode, upper):
        v = BlochVector(*(r * np.array([2.0, 6.0, 9.0]) / 11.0))
        expected = np.zeros((3, 3))
        expected[np.triu_indices(3)] = upper
        expected = expected + np.triu(expected, 1).T
        h = ea_cartesian(v, omega, MODE_KEYS[mode]).h
        assert relerr(h, expected) < 1e-13

    @pytest.mark.parametrize("omega", [1e-3, 0.7, 1e3])
    def test_isotropic_at_the_origin(self, omega):
        for mode in MODES:
            h = ea_cartesian(BlochVector(0.0, 0.0, 0.0), omega, mode).h
            assert relerr(h, ea_cr(0.0, omega, mode) * np.eye(3)) < 1e-14


def bit_targets(rng, n):
    """The origin, zeros of both signs, both ends of each axis at |v| = 0.999999, then n
    seeded targets whose radii reach from 1e-8 to the same 0.999999."""
    targets = [np.zeros(3), np.array([-0.0, 0.0, -0.5]), np.array([0.4, -0.0, 0.0])]
    for axis in np.eye(3):
        targets += [0.999999 * axis, -0.999999 * axis, 0.3 * axis]
    for _ in range(n):
        d = rng.normal(size=3)
        r = (rng.uniform(), 1.0 - 10.0**rng.uniform(-6.0, -1.0), 10.0**rng.uniform(-8.0, 0.0))
        targets.append(d / np.linalg.norm(d) * min(r[rng.integers(3)], 0.999999))
    return targets


class TestCartesianBits:
    """The closed-form matrices are built from Python floats, with the bits of the numpy
    expressions they replace, kept here as the reference."""

    def test_ea_cartesian_equals_the_numpy_expression(self):
        rng = np.random.default_rng(2311)
        for i, vec in enumerate(bit_targets(rng, 3000)):
            omega, mode = 10.0**rng.uniform(-3.0, 3.0), MODES[i % 3]
            r2, w = float(vec @ vec), omega**2
            c_perp = _ea_cperp(r2, w, mode)
            expected = c_perp * np.eye(3)
            if r2 > 0.0:
                expected += (_ea_cr(r2, w, mode) - c_perp) * np.outer(vec, vec) / r2
            h = ea_cartesian(BlochVector.from_array(vec), omega, mode).h
            assert h.tobytes() == expected.tobytes(), (vec, omega, mode)

    def test_direct_cartesian_equals_the_numpy_expression(self):
        rng = np.random.default_rng(2312)
        for vec in bit_targets(rng, 3000):
            v = BlochVector.from_array(vec)
            expected = np.eye(3) + np.outer(vec, vec) / (1.0 - v.norm**2)
            assert direct_cartesian(v).h.tobytes() == expected.tobytes(), vec


class TestPurityBound:
    def test_direct_baseline(self):
        # the comparison baseline (1/M)(1/c_r_dir) is (1 - r^2)/M
        for r, m in ((0.0, 1), (0.5, 10)):
            coeffs = direct_qfi(r)
            assert abs(1.0 / (m * coeffs.c_r) - (1 - r * r) / m) < 1e-15

    def test_quoted_optimal_ratio(self):
        r, m = 0.3, 1
        bound = purity_bound(r, 0.616, m)
        ratio = bound / ((1 - r * r) / m)
        assert abs(ratio - 1.52) < 0.01

    def test_ratio_always_at_least_one(self):
        r = 0.45
        for om in np.geomspace(0.05, 20, 40):
            ratio = purity_bound(r, float(om), 1) / (1 - r * r)
            assert ratio >= 1.0

    def test_m_scaling(self):
        assert abs(purity_bound(0.2, 0.7, 5) - purity_bound(0.2, 0.7, 1) / 5) < 1e-15


class TestPhaseBound:
    def test_always_above_direct_threshold(self):
        for om in np.geomspace(0.05, 20, 40):
            assert phase_bound(float(om), 1) > 1.0

    def test_diverges_at_small_momentum(self):
        assert phase_bound(1e-6, 1) > 1e9

    def test_equals_inverse_angular_coefficient_at_boundary(self):
        for om in (0.3, 0.7, 1.3, 2.5):
            c_theta = ea_polar(1.0, om, DetectionMode.BOTH).c_theta
            assert abs(phase_bound(om, 1) - 1.0 / c_theta) < 1e-12 * (1.0 / c_theta)

    def test_m_scaling(self):
        assert abs(phase_bound(0.7, 4) - phase_bound(0.7, 1) / 4) < 1e-15


def test_vectorized_radial_kernel_matches_scalar():
    rs = np.array([0.0, 0.3, 0.8])
    oms = np.array([0.2, 1.0, 5.0])
    for mode in MODES:
        grid = ea_cr(rs[:, None], oms[None, :], mode)
        for i, r in enumerate(rs):
            for j, om in enumerate(oms):
                assert abs(grid[i, j] - ea_polar(float(r), float(om), mode).c_r) < 1e-14
