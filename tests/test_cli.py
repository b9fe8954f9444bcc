import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scattertomo
import scattertomo.optimize as opt
from scattertomo.cli import (MODES, _figure_surface, _fmt, _resolve_target, _rows, build_parser,
                             main)
from scattertomo.closedform import (direct_qfi, ea_cartesian, ea_cr, ea_polar, nea_qfi,
                                    phase_bound)
from scattertomo.scatter import DetectionMode
from scattertomo.states import BlochVector


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows(text):
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


class TestQfiCommand:
    def test_direct_mixed_polar(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "direct",
                           "--r", "0", "--theta", "1.0", "--basis", "polar")
        assert code == 0
        table = {r[0]: (r[1], r[2]) for r in rows(out)}
        assert table["rr"] == ("1", "1")
        for key in ("thetatheta", "phiphi", "rtheta"):
            assert float(table[key][0]) == 0.0

    def test_ea_closed_form_agreement(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "ea", "--mode", "both",
                           "--vz", "0.3", "--omega", "0.616")
        assert code == 0
        diff_line = [l for l in out.splitlines() if l.startswith("# max_abs_diff")]
        assert diff_line and float(diff_line[0].split(":")[1]) < 1e-9

    def test_ea_relative_residual(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "ea", "--mode", "r", "--vx", "0.2",
                           "--vy", "-0.5", "--vz", "0.4", "--omega", "0.05")
        assert code == 0
        diff_line = [l for l in out.splitlines() if l.startswith("# max_rel_diff: ")]
        assert len(diff_line) == 1
        assert 0.0 <= float(diff_line[0].split(":")[1]) <= 1e-8
        # the absolute residual is printed too, on the line before
        assert out.splitlines()[-2].startswith("# max_abs_diff: ")

    def test_direct_cartesian_on_the_boundary_is_domain_error(self, capsys):
        code, out, err = run(capsys, "qfi", "--strategy", "direct", "--vz", "1")
        assert code == 3
        assert out == ""
        assert "pure target" in err

    @pytest.mark.parametrize("basis", ["cartesian", "polar"])
    def test_pure_target_is_domain_error(self, capsys, basis):
        # a probe aligned with a pure target: the QFI diverges, but the
        # numeric sum drops the zero-weight terms and would print zz 0.234
        code, out, err = run(capsys, "qfi", "--strategy", "nea", "--omega", "0.6",
                             "--theta-a", "0.6435011087932844", "--vx", "0.6", "--vz", "0.8",
                             "--basis", basis)
        assert code == 3
        assert out == "" and "pure target" in err and "--param" not in err

    @pytest.mark.parametrize("target", [("--vz", "1"), ("--vx", "0.6", "--vz", "0.8")],
                             ids=["on-axis", "off-axis"])
    @pytest.mark.parametrize("basis", ["cartesian", "polar"])
    @pytest.mark.parametrize("strategy", ["direct", "ea", "nea"])
    def test_one_refusal_for_a_pure_target(self, capsys, strategy, basis, target):
        # every strategy and basis, on the z axis and off it: the same refusal
        code, out, err = run(capsys, "qfi", "--strategy", strategy, "--omega", "0.6",
                             "--basis", basis, *target)
        assert code == 3
        assert out == "" and "pure target" in err

    def test_missing_omega_before_a_pure_target(self, capsys):
        code, out, err = run(capsys, "qfi", "--strategy", "ea", "--vz", "1")
        assert code == 2
        assert out == "" and "--omega" in err

    def test_near_pure_target_is_not_refused(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "nea", "--omega", "0.6",
                           "--theta-a", "0.6435011087932844", "--vx", "0.599999", "--vz", "0.8")
        assert code == 0
        assert float({r[0]: r[1] for r in rows(out)}["zz"]) > 1e5

    def test_nea_on_axis_gives_zz_closed_form(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "nea", "--mode", "t",
                           "--vz", "0.3", "--omega", "0.7", "--theta-a", "0.4")
        assert code == 0
        table = {r[0]: r for r in rows(out)}
        assert table["zz"][2] != ""      # closed form available on axis
        assert table["xx"][2] == ""      # and only for the zz entry
        assert abs(float(table["zz"][1]) - float(table["zz"][2])) < 1e-9

    @pytest.mark.parametrize("strategy", ["ea", "direct"])
    @pytest.mark.parametrize("command", [("qfi",), ("bound", "--param", "z")])
    @pytest.mark.parametrize("theta_a", ["5", "-1", "nan"])
    def test_theta_a_is_ignored_unless_nea(self, capsys, strategy, command, theta_a):
        # the singlet probe and direct access have no orientation to check
        argv = (*command, "--strategy", strategy, "--vz", "0.3", "--omega", "0.6")
        code, out, err = run(capsys, *argv, "--theta-a", theta_a)
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv)[1]

    @pytest.mark.parametrize("command", [("qfi",), ("bound", "--param", "z")])
    def test_nea_theta_a_outside_zero_to_pi_is_domain_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--strategy", "nea", "--vz", "0.3",
                             "--omega", "0.6", "--theta-a", "5")
        assert code == 3
        assert out == "" and "theta_a=5.0 outside [0, pi]" in err

    def test_missing_omega_is_usage_error(self, capsys):
        code, _, err = run(capsys, "qfi", "--strategy", "ea", "--vz", "0.2")
        assert code == 2
        assert "omega" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "qfi", "--strategy", "ea", "--vz", "0.2",
                           "--omega", "-1.0")
        assert code == 3
        assert err.strip()

    @pytest.mark.parametrize("argv", [
        ("qfi", "--strategy", "ea", "--vz", "0.3"),
        ("qfi", "--strategy", "nea", "--vz", "0.3", "--theta-a", "0.7"),
        ("bound", "--strategy", "ea", "--vz", "0.3", "--param", "z"),
        ("bound", "--strategy", "nea", "--vz", "0.3", "--theta-a", "0.7", "--param", "z"),
        ("scan", "--strategy", "nea", "--vz", "0.4", "--sweep", "theta-a"),
        ("scan", "--strategy", "nea", "--vz", "0.4", "--sweep", "vz"),
        ("scan", "--strategy", "ea", "--vz", "0.4", "--sweep", "r"),
    ], ids=["qfi-ea", "qfi-nea", "bound-ea", "bound-nea", "scan-nea-theta-a", "scan-nea-vz",
            "scan-ea-r"])
    @pytest.mark.parametrize("omega", ["1e200", "1.0000000000001e20"])
    def test_omega_above_the_limit_is_domain_error(self, capsys, tmp_path, argv, omega):
        # no traceback, no NaN rows: every command refuses Omega above OMEGA_MAX
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--omega", omega, "-o", str(target))
        assert code == 3
        assert out == "" and "at most OMEGA_MAX = 1e+20" in err and not target.exists()

    @pytest.mark.parametrize("argv", [
        ("qfi", "--strategy", "ea", "--vx", "1e200", "--omega", "0.6"),
        ("qfi", "--strategy", "direct", "--vz", "1e155"),
        ("bound", "--strategy", "nea", "--vz", "-1e155", "--omega", "0.6", "--param", "z"),
    ], ids=["qfi-ea", "qfi-direct", "bound-nea"])
    def test_huge_bloch_component_is_domain_error(self, capsys, tmp_path, argv):
        # refused before the norm squares it: no OverflowError traceback, no file
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == 3
        assert out == "" and "exceeds 1 in magnitude" in err and not target.exists()

    def test_unparseable_flags_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--strategy", "bogus"])
        assert exc.value.code == 2


class TestNumericFlags:
    """--eps and --tol take a finite positive number, --m-copies a positive integer."""

    @pytest.mark.parametrize("argv", [
        ("qfi", "--strategy", "direct", "--vz", "0.5", "--eps", "nan"),
        ("qfi", "--strategy", "direct", "--vz", "0.5", "--eps", "inf"),
        ("bound", "--strategy", "direct", "--vz", "0.5", "--eps", "nan"),
        ("bound", "--strategy", "ea", "--omega", "0.6", "--vz", "0.5", "--eps", "0"),
        ("optimize", "--strategy", "ea", "--r", "0.3", "--tol", "nan"),
        ("optimize", "--strategy", "ea", "--r", "0.3", "--tol", "-1"),
        ("optimize", "--strategy", "nea", "--vz", "0.3", "--tol", "inf"),
        ("bound", "--strategy", "direct", "--vz", "0.5", "--m-copies", "0"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_bad_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and argv[-2] in out.err

    def test_good_values_are_kept(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "direct", "--vz", "0.5", "--eps", "1e-10")
        assert code == 0 and "eps=1e-10 " in out
        code, out, _ = run(capsys, "bound", "--strategy", "direct", "--vz", "0.5",
                           "--param", "z", "--m-copies", "4")
        assert code == 0 and "m_copies=4 " in out
        assert abs(float(rows(out)[0][1]) - 0.75 / 4) < 1e-12
        code, out, _ = run(capsys, "optimize", "--strategy", "ea", "--r", "0.3", "--tol", "1e-6")
        # a polar target leaves vx/vy/vz out of the header, so tol is its last flag
        assert code == 0 and "tol=1e-06" in out.splitlines()[0].split()


class TestTargetFlags:
    @pytest.mark.parametrize("argv", [
        ("qfi", "--strategy", "ea", "--omega", "0.7", "--r", "0.5", "--vx", "0.9"),
        ("bound", "--strategy", "direct", "--vz", "0.2", "--theta", "1.0"),
        ("scan", "--strategy", "ea", "--sweep", "omega", "--r", "0.3", "--vz", "0.1"),
        ("optimize", "--strategy", "ea", "--r", "0.3", "--vy", "0.0"),
    ])
    def test_mixed_polar_and_cartesian_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--r/--theta/--phi" in err

    @pytest.mark.parametrize("value", ["-1.5e-05", "-2E-01", "-.5", "-0"])
    def test_negative_numbers_are_values(self, capsys, value):
        code, out, _ = run(capsys, "qfi", "--strategy", "direct", "--vx", "0.1",
                           "--vy", value, "--vz", "0.1")
        assert code == 0
        assert f"vy={float(value)}" in out.splitlines()[0]

    def test_unset_cartesian_components_read_zero(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "direct", "--vy", "0.5")
        assert code == 0
        assert "vx=0.0 vy=0.5 vz=0.0" in out.splitlines()[0]
        table = {r[0]: float(r[1]) for r in rows(out)}
        assert abs(table["yy"] - 1.0 / 0.75) < 1e-10

    def test_polar_target_header_has_no_cartesian_flags(self, capsys):
        code, out, _ = run(capsys, "bound", "--strategy", "ea", "--r", "0.5", "--theta", "1",
                           "--phi", "2", "--omega", "0.6", "--param", "theta")
        assert code == 0
        header = out.splitlines()[0].split()
        assert {"r=0.5", "theta=1.0", "phi=2.0", "omega=0.6"} <= set(header)
        assert not [part for part in header if part.startswith(("vx=", "vy=", "vz="))]
        # the target is the polar one, not the origin
        polar = ea_polar(0.5, 0.6, DetectionMode.BOTH)
        assert abs(float(rows(out)[0][1]) * polar.c_theta - 1.0) < 1e-8

    @pytest.mark.parametrize("argv", [
        ("scan", "--strategy", "direct", "--sweep", "r", "--vx", "2"),
        ("scan", "--strategy", "ea", "--sweep", "r", "--omega", "0.6", "--r", "1.5"),
    ])
    def test_target_is_checked_where_the_command_ignores_it(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and "domain error" in err


class TestHeader:
    """The header records mode only where a probe is scattered, and theta_a only
    where NEA reads it; their defaults are not recorded for other commands."""

    @pytest.mark.parametrize("argv, recorded, left_out", [
        (("optimize", "--strategy", "nea", "--mode", "t", "--vz", "0.9"),
         {"mode=t"}, {"theta_a"}),
        (("optimize", "--strategy", "ea", "--mode", "r", "--r", "0.5"), {"mode=r"}, {"theta_a"}),
        (("bound", "--strategy", "direct", "--r", "0.5", "--param", "r"),
         set(), {"mode", "theta_a"}),
        (("qfi", "--strategy", "direct", "--vz", "0.4", "--mode", "t"),
         set(), {"mode", "theta_a"}),
        (("scan", "--strategy", "direct", "--sweep", "r"), set(), {"mode", "theta_a"}),
        (("scan", "--strategy", "ea", "--r", "0.5", "--sweep", "omega"),
         {"mode=both"}, {"theta_a"}),
        (("qfi", "--strategy", "ea", "--vz", "0.4", "--omega", "0.6", "--theta-a", "0.7"),
         {"mode=both"}, {"theta_a"}),
        (("scan", "--strategy", "nea", "--vz", "0.4", "--omega", "0.6", "--sweep", "theta-a"),
         {"mode=both"}, {"theta_a"}),
        (("qfi", "--strategy", "nea", "--vz", "0.4", "--omega", "0.6", "--theta-a", "0.7"),
         {"mode=both", "theta_a=0.7"}, set()),
        (("bound", "--strategy", "nea", "--vz", "0.4", "--omega", "0.6", "--param", "z"),
         {"mode=both", "theta_a=0.0"}, set()),
        (("scan", "--strategy", "nea", "--vz", "0.4", "--theta-a", "0.3", "--sweep", "omega"),
         {"mode=both", "theta_a=0.3"}, set()),
        # omega only where NEA/EA qfi, bound and scans read it; a scan not the
        # swept variable's flag, and an r-sweep no target
        (("qfi", "--strategy", "direct", "--vz", "0.5", "--omega", "0.6"),
         {"vz=0.5"}, {"omega"}),
        (("bound", "--strategy", "direct", "--vz", "0.5", "--omega", "3"),
         {"vz=0.5"}, {"omega"}),
        (("optimize", "--strategy", "ea", "--mode", "t", "--vz", "0.5", "--omega", "0.6"),
         {"mode=t", "vz=0.5"}, {"omega", "theta_a"}),
        (("optimize", "--strategy", "nea", "--mode", "t", "--vz", "0.5", "--omega", "0.6"),
         {"mode=t", "vz=0.5"}, {"omega", "theta_a"}),
        (("scan", "--strategy", "nea", "--vz", "0.4", "--omega", "0.6", "--sweep", "omega"),
         {"vz=0.4", "theta_a=0.0"}, {"omega"}),
        (("scan", "--strategy", "ea", "--r", "0.4", "--omega", "0.6", "--sweep", "omega"),
         {"r=0.4"}, {"omega", "theta_a"}),
        (("scan", "--strategy", "nea", "--vz", "0.3", "--omega", "0.6", "--sweep", "vz"),
         {"vx=0.0", "vy=0.0", "omega=0.6", "theta_a=0.0"}, {"vz"}),
        (("scan", "--strategy", "ea", "--vz", "0.3", "--omega", "0.6", "--sweep", "vz"),
         {"vx=0.0", "vy=0.0", "omega=0.6"}, {"vz"}),
        (("scan", "--strategy", "nea", "--omega", "0.6", "--sweep", "vz"),
         {"vx=0.0", "vy=0.0"}, {"vz"}),
        (("scan", "--strategy", "direct", "--sweep", "r"),
         set(), {"vx", "vy", "vz", "r", "omega"}),
        (("scan", "--strategy", "ea", "--sweep", "r", "--omega", "0.6", "--vz", "0.2"),
         {"mode=both", "omega=0.6"}, {"vx", "vy", "vz", "r"}),
    ])
    def test_flags_the_command_reads(self, capsys, argv, recorded, left_out):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header = out.splitlines()[0].split()
        assert recorded <= set(header)
        assert not [part for part in header if part.split("=")[0] in left_out]


class TestBoundCommand:
    def test_direct_radial(self, capsys):
        code, out, _ = run(capsys, "bound", "--strategy", "direct", "--r", "0.5",
                           "--m-copies", "10", "--param", "r")
        assert code == 0
        assert abs(float(rows(out)[0][1]) - 0.075) < 1e-12

    def test_matrix_bound_shape(self, capsys):
        code, out, _ = run(capsys, "bound", "--strategy", "ea", "--vz", "0.3",
                           "--omega", "0.7", "--param", "matrix")
        assert code == 0
        assert len(rows(out)) == 3

    def test_small_omega_component_bound(self, capsys):
        # H is small at Omega = 0.002 (det ~ 4e-14) but well conditioned
        code, out, _ = run(capsys, "bound", "--strategy", "ea", "--mode", "both",
                           "--vx", "0.1", "--vy", "0.2", "--vz", "0.3",
                           "--omega", "0.002", "--param", "z")
        assert code == 0
        h = ea_cartesian(BlochVector(0.1, 0.2, 0.3), 0.002, DetectionMode.BOTH).h
        expected = np.linalg.inv(h)[2, 2]
        assert abs(float(rows(out)[0][1]) / expected - 1.0) < 1e-8

    def test_phi_at_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bound", "--strategy", "ea", "--vz", "0.3",
                           "--omega", "0.7", "--param", "phi")
        assert code == 3
        assert "phi" in err

    def test_undefined_parameter_is_checked_before_omega(self, capsys):
        # the target and its parameter are checked first, as on a pure target
        code, out, err = run(capsys, "bound", "--strategy", "ea", "--vz", "0.3",
                             "--param", "theta")
        assert code == 3
        assert out == "" and "z axis" in err


class TestAngularBoundsNearSingularPoints:
    # g^T H^-1 g / M with the cartesian gradient g: a large gradient on a
    # well-conditioned H is a large, finite bound, not a singular matrix
    STRATEGIES = {"direct": ("--strategy", "direct"),
                  "ea": ("--strategy", "ea", "--mode", "both", "--omega", "0.6"),
                  "nea": ("--strategy", "nea", "--mode", "both", "--omega", "0.6",
                          "--theta-a", "0.3")}

    @staticmethod
    def expected(strategy, r, theta, param):
        if strategy == "direct":
            c_theta = direct_qfi(r).c_theta
        else:
            c_theta = ea_polar(r, 0.6, DetectionMode.BOTH).c_theta
        return 1.0 / (c_theta * (math.sin(theta)**2 if param == "phi" else 1.0))

    @pytest.mark.parametrize("strategy", ["direct", "ea", "nea"])
    @pytest.mark.parametrize("r", ["1e-6", "1e-9"])
    @pytest.mark.parametrize("param", ["theta", "phi"])
    def test_near_the_origin(self, capsys, strategy, r, param):
        code, out, err = run(capsys, "bound", *self.STRATEGIES[strategy], "--r", r,
                             "--theta", "1", "--phi", "0.5", "--param", param)
        assert code == 0, err
        value = float(rows(out)[0][1])
        assert math.isfinite(value) and value > 0.0
        if strategy != "nea":
            expected = self.expected(strategy, float(r), 1.0, param)
            assert abs(value / expected - 1.0) < 1e-9

    @pytest.mark.parametrize("strategy", ["direct", "ea"])
    def test_phase_near_the_z_axis(self, capsys, strategy):
        code, out, err = run(capsys, "bound", *self.STRATEGIES[strategy], "--r", "0.5",
                             "--theta", "1e-6", "--param", "phi")
        assert code == 0, err
        expected = self.expected(strategy, 0.5, 1e-6, "phi")
        assert abs(float(rows(out)[0][1]) / expected - 1.0) < 1e-9


class TestBoundOnPureTarget:
    # at |v| = 1 the radial QFI diverges but the numeric QFI reports a finite
    # value, so only bounds across the Bloch vector are printed
    EA = ("--strategy", "ea", "--mode", "both", "--omega", "0.6")
    EQUATOR = ("--r", "1", "--theta", repr(math.pi / 2), "--phi", "0.3")

    @pytest.mark.parametrize("target, param", [
        (("--strategy", "direct", "--vz", "1"), "z"),
        (("--strategy", "direct", "--vz", "1"), "r"),
        (("--strategy", "direct", "--vz", "1"), "matrix"),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "x"),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "z"),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "r"),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "matrix"),
        ((*EA, *EQUATOR), "x"),
        ((*EA, *EQUATOR), "r"),
        (("--strategy", "nea", "--omega", "0.6", "--vz", "-1"), "z"),
    ])
    def test_radial_dependence_is_domain_error(self, capsys, target, param):
        code, out, err = run(capsys, "bound", *target, "--param", param)
        assert code == 3
        assert out == "" and "pure target" in err

    @pytest.mark.parametrize("target, param, sin2", [
        ((*EA, *EQUATOR), "phi", 1.0),
        ((*EA, *EQUATOR), "theta", 1.0),
        ((*EA, *EQUATOR), "z", 1.0),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "theta", 1.0),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "phi", 0.36),
        ((*EA, "--vx", "0.6", "--vz", "0.8"), "y", 1.0),
        ((*EA, "--vz", "1"), "x", 1.0),
    ])
    def test_transverse_bounds_are_kept(self, capsys, target, param, sin2):
        # across the Bloch vector the EA bound is 1/c_perp(r = 1), the phase bound
        code, out, _ = run(capsys, "bound", *target, "--param", param)
        assert code == 0
        assert abs(float(rows(out)[0][1]) * sin2 / phase_bound(0.6, 1) - 1.0) < 1e-9

    def test_direct_transverse_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--strategy", "direct", "--vz", "1",
                           "--param", "x")
        assert code == 0
        assert abs(float(rows(out)[0][1]) - 1.0) < 1e-12

    def test_near_pure_target_is_not_refused(self, capsys):
        code, out, _ = run(capsys, "bound", "--strategy", "direct", "--vz", "0.999999",
                           "--param", "z")
        assert code == 0
        assert abs(float(rows(out)[0][1]) - (1 - 0.999999**2)) < 1e-9


class TestScanCommand:
    def test_single_interior_maximum(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "ea", "--mode", "both",
                           "--r", "0.3", "--sweep", "omega", "--points", "121")
        assert code == 0
        c_r = [float(r[1]) for r in rows(out)]
        peak = int(np.argmax(c_r))
        assert 0 < peak < len(c_r) - 1
        assert all(b > a for a, b in zip(c_r[:peak], c_r[1:peak + 1]))
        assert all(b < a for a, b in zip(c_r[peak:], c_r[peak + 1:]))

    def test_nea_vz_sweep(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "nea", "--sweep", "vz",
                           "--omega", "0.7", "--theta-a", "0.5", "--points", "11")
        assert code == 0
        assert len(rows(out)) == 11

    def test_direct_r_sweep(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "direct", "--sweep", "r",
                           "--points", "5")
        assert code == 0
        assert [float(r[1]) for r in rows(out)][0] == 1.0

    @pytest.mark.parametrize("strategy, sweep, extra", [
        ("ea", "omega", ()),
        ("nea", "theta-a", ("--omega", "0.6")),
        ("nea", "omega", ("--theta-a", "0.4")),
    ])
    def test_target_flag_forms_agree(self, capsys, strategy, sweep, extra):
        scans = [run(capsys, "scan", "--strategy", strategy, "--mode", "t", "--sweep", sweep,
                     "--points", "7", *extra, *target)
                 for target in (("--vz", "0.5"), ("--r", "0.5"))]
        assert [code for code, _, _ in scans] == [0, 0]
        assert rows(scans[0][1]) == rows(scans[1][1])
        default = run(capsys, "scan", "--strategy", strategy, "--mode", "t", "--sweep", sweep,
                      "--points", "7", *extra)
        assert rows(default[1]) != rows(scans[0][1])

    def test_ea_omega_scan_uses_the_target_radius(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "ea", "--sweep", "omega",
                           "--vx", "0.3", "--vy", "0.4", "--points", "3")
        assert code == 0
        for row in rows(out):
            coeffs = ea_polar(0.5, float(row[0]), DetectionMode.BOTH)
            assert abs(float(row[1]) / coeffs.c_r - 1.0) < 1e-11
            assert abs(float(row[2]) / coeffs.c_theta - 1.0) < 1e-11

    @pytest.mark.parametrize("target", [("--vx", "0.3"), ("--r", "0.5", "--theta", "1.0")])
    def test_nea_off_axis_target_is_domain_error(self, capsys, target):
        code, out, err = run(capsys, "scan", "--strategy", "nea", "--sweep", "theta-a",
                             "--omega", "0.6", *target)
        assert code == 3
        assert out == "" and "z axis" in err

    @pytest.mark.parametrize("target", [("--vx", "0.1"), ("--vy", "-0.2", "--vz", "0.4"),
                                        ("--r", "0.5", "--theta", "1.0")])
    def test_ea_vz_off_axis_target_is_domain_error(self, capsys, target):
        # off the axis c_r(|v_z|) is not the zz entry: at (0.1, 0, 0.4) in t
        # it would print 0.448399 where the zz entry is 0.449669
        code, out, err = run(capsys, "scan", "--strategy", "ea", "--sweep", "vz",
                             "--omega", "0.6", *target)
        assert code == 3
        assert out == "" and "z axis" in err

    @pytest.mark.parametrize("mode", ["t", "r", "both"])
    def test_ea_vz_scan_is_the_zz_entry_on_the_axis(self, capsys, mode):
        code, out, _ = run(capsys, "scan", "--strategy", "ea", "--mode", mode, "--sweep", "vz",
                           "--omega", "0.6", "--points", "5")
        assert code == 0
        for v_z, zz in ((float(x) for x in row) for row in rows(out)):
            h = ea_cartesian(BlochVector(0.0, 0.0, v_z), 0.6, MODES[mode]).h
            assert abs(zz / h[2, 2] - 1.0) < 1e-11

    @pytest.mark.parametrize("strategy, sweep, flag", [
        ("nea", "vz", ("--vz", "0.9")), ("ea", "r", ("--r", "0.9"))])
    def test_swept_variable_overrides_its_flag(self, capsys, strategy, sweep, flag):
        argv = ("scan", "--strategy", strategy, "--sweep", sweep, "--omega", "0.7",
                "--points", "5")
        assert rows(run(capsys, *argv, *flag)[1]) == rows(run(capsys, *argv)[1])

    @pytest.mark.parametrize("flags", [
        ("--sweep", "theta-a", "--from", "-1"), ("--sweep", "theta-a", "--to", "4"),
        ("--sweep", "omega", "--theta-a", "5"), ("--sweep", "vz", "--theta-a", "-0.1")])
    def test_nea_theta_a_outside_zero_to_pi_is_domain_error(self, capsys, flags):
        # as qfi and bound refuse it; the bound is ProbeConfig's
        code, out, err = run(capsys, "scan", "--strategy", "nea", "--vz", "0.4",
                             "--omega", "0.6", *flags)
        assert code == 3
        assert out == "" and "theta_a" in err

    def test_nea_theta_a_sweep_to_pi_in_twelve_digits(self, capsys):
        # pi printed to 12 digits lies within ProbeConfig's rounding margin
        code, out, _ = run(capsys, "scan", "--strategy", "nea", "--vz", "0.4", "--omega", "0.6",
                           "--sweep", "theta-a", "--to", "3.14159265359", "--points", "3")
        assert code == 0
        assert len(rows(out)) == 3

    def test_unsupported_sweep_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--strategy", "direct", "--sweep", "omega")
        assert code == 2

    def test_nea_radius_sweep_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--strategy", "nea", "--sweep", "r",
                             "--omega", "0.7")
        assert code == 2
        assert out == "" and "sweep 'r'" in err

    def test_pure_state_radius_in_r_sweep(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "ea", "--sweep", "r",
                           "--omega", "0.7", "--to", "1.0", "--points", "3")
        assert code == 0
        last = rows(out)[-1]
        assert last[:2] == ["1", "inf"] and float(last[2]) > 0.0

    @pytest.mark.parametrize("mode", ["t", "r", "both"])
    def test_ea_omega_scan_at_a_pure_target(self, capsys, mode):
        # a scan prints closed forms: c_r = +inf is their exact value on the
        # boundary, and c_theta the finite transverse coefficient phase_bound
        # reads. qfi refuses the target, since the oracle drops the diverging terms
        code, out, _ = run(capsys, "scan", "--strategy", "ea", "--mode", mode, "--vz", "1",
                           "--sweep", "omega", "--points", "9")
        assert code == 0
        table = rows(out)
        assert len(table) == 9 and [row[1] for row in table] == ["inf"] * 9
        for omega, _, c_theta in ((float(x) for x in row) for row in table):
            assert abs(c_theta / ea_polar(1.0, omega, MODES[mode]).c_theta - 1.0) <= 1e-11
            if mode == "both":
                assert abs(c_theta * phase_bound(omega, 1) - 1.0) <= 1e-11
        assert run(capsys, "qfi", "--strategy", "ea", "--mode", mode, "--vz", "1",
                   "--omega", "0.6")[0] == 3

    def test_direct_r_sweep_to_a_pure_target(self, capsys):
        code, out, _ = run(capsys, "scan", "--strategy", "direct", "--sweep", "r", "--to", "1",
                           "--points", "3")
        assert code == 0
        assert out.splitlines()[-1] == "1,inf,1"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_nonpositive_points_is_usage_error(self, capsys, points):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--strategy", "direct", "--sweep", "r", "--points", points])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--points" in out.err


class TestOptimizeCommand:
    def test_ea(self, capsys):
        code, out, _ = run(capsys, "optimize", "--strategy", "ea", "--mode", "both",
                           "--r", "0.3")
        assert code == 0
        row = rows(out)[0]
        assert abs(float(row[0]) - 0.616) < 0.005
        assert row[3] == "true" or row[3] == "false"

    def test_nea(self, capsys):
        code, out, _ = run(capsys, "optimize", "--strategy", "nea", "--mode", "t",
                           "--vz", "0.9", "--tol", "1e-7")
        assert code == 0
        row = rows(out)[0]
        assert float(row[0]) < 0.6  # theta_a* near the pole

    @pytest.mark.parametrize("mode", ["t", "r", "both"])
    def test_ea_target_flag_forms_agree(self, capsys, mode):
        results = [run(capsys, "optimize", "--strategy", "ea", "--mode", mode, *target)
                   for target in (("--vz", "0.5"), ("--r", "0.5"), ("--vx", "0.3", "--vy", "0.4"),
                                  ("--vz", "-0.5"))]
        assert [code for code, _, _ in results] == [0] * 4
        found = [rows(out)[0] for _, out, _ in results]
        assert found[1:] == found[:1] * 3
        omega_star, value = float(found[0][0]), float(found[0][1])
        assert abs(value / ea_cr(0.5, omega_star, MODES[mode]) - 1.0) < 1e-11

    def test_ea_value_at_the_given_radius(self, capsys):
        code, out, _ = run(capsys, "optimize", "--strategy", "ea", "--vz", "0.5")
        assert code == 0
        assert rows(out)[0][1] == "0.878076417425"

    @pytest.mark.parametrize("mode", ["t", "r", "both"])
    def test_nea_target_flag_forms_agree(self, capsys, mode):
        results = [run(capsys, "optimize", "--strategy", "nea", "--mode", mode, *target)
                   for target in (("--vz", "0.5"), ("--r", "0.5"))]
        assert [code for code, _, _ in results] == [0, 0]
        assert rows(results[0][1]) == rows(results[1][1])
        theta_a, omega, value = (float(x) for x in rows(results[0][1])[0][:3])
        assert abs(value / nea_qfi(0.5, theta_a, omega, MODES[mode]) - 1.0) < 1e-11
        _, below, _ = run(capsys, "optimize", "--strategy", "nea", "--mode", mode,
                          "--r", "0.5", "--theta", repr(math.pi))
        assert rows(below)[0][2] == rows(results[0][1])[0][2]

    @pytest.mark.parametrize("target", [("--vx", "0.3"), ("--r", "0.5", "--theta", "1.0")])
    def test_nea_off_axis_target_is_domain_error(self, capsys, target):
        code, out, err = run(capsys, "optimize", "--strategy", "nea", *target)
        assert code == 3
        assert out == "" and "z axis" in err


class TestConvergenceFailure:
    """Every command that prints an optimum exits 4, printing nothing, if one did not converge."""

    @pytest.mark.parametrize("argv", [
        ("optimize", "--strategy", "nea", "--mode", "t", "--vz", "0.9"),
        ("optimize", "--strategy", "ea", "--mode", "r", "--r", "0.5"),
        ("figure", "6"),
        ("figure", "7"),
        ("figure", "8"),
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_capped_optimizer_exits_4(self, capsys, monkeypatch, argv):
        # two evaluations (EA: Newton steps) per lane are too few for any optimum here
        monkeypatch.setattr(opt, "MAX_ITER", 2)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == "" and "did not converge" in err


class TestOutputPath:
    """Commands return (columns, rows) and print nothing; main writes them, and only on success."""

    @pytest.mark.parametrize("argv", [
        ("qfi", "--strategy", "ea", "--mode", "t", "--vx", "0.2", "--vz", "0.3", "--omega", "0.6"),
        ("bound", "--strategy", "nea", "--vz", "0.4", "--omega", "0.7", "--theta-a", "1.1"),
        ("scan", "--strategy", "ea", "--r", "0.3", "--sweep", "omega", "--points", "4"),
        ("optimize", "--strategy", "ea", "--mode", "r", "--r", "0.5"),
        ("figure", "7", "--points", "3"),
    ], ids=lambda argv: argv[0])
    def test_command_returns_what_main_writes(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        args = build_parser().parse_args(list(argv))
        if hasattr(args, "vx"):
            args.target = _resolve_target(args)
        assert args.func.__name__ == f"cmd_{argv[0]}"
        columns, lines = args.func(args)
        assert capsys.readouterr() == ("", "")
        written = out.splitlines()
        assert written[1] == "# columns: " + ",".join(columns)
        assert written[2:] == lines
        assert len(rows(out)) >= 1

    @pytest.mark.parametrize("argv, expected", [
        (("scan", "--strategy", "direct", "--sweep", "omega"), 2),
        (("figure", "9"), 2),
        (("qfi", "--strategy", "ea", "--mode", "t", "--vz", "0.3", "--omega", "-1"), 3),
        (("bound", "--strategy", "direct", "--vz", "0.5", "--param", "phi"), 3),
        (("optimize", "--strategy", "nea", "--mode", "t", "--vz", "0.9"), 4),
        (("figure", "8", "--points", "3"), 4),
    ], ids=["usage-scan", "usage-figure", "domain-qfi", "domain-bound", "convergence-optimize",
            "convergence-figure"])
    def test_failed_command_creates_no_file(self, capsys, monkeypatch, tmp_path, argv, expected):
        monkeypatch.setattr(opt, "MAX_ITER", 2)  # too few for the optima of the exit-4 cases
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == expected
        assert out == "" and err and not target.exists()

    @pytest.mark.parametrize("where", ["missing/out.csv", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, out, err = run(capsys, "figure", "3", "--points", "2", "-o", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot write {target}: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []


class TestFigures:
    def test_figure_three_minimizing_row(self, capsys):
        code, out, _ = run(capsys, "figure", "3")
        assert code == 0
        data = rows(out)
        best = min(data, key=lambda r: float(r[2]))
        assert abs(float(best[0]) - 0.616) < 0.005

    def test_figure_six_ordering(self, capsys):
        code, out, _ = run(capsys, "figure", "6", "--points", "9")
        assert code == 0
        for r, direct, both, t, refl in ((float(x) for x in row) for row in rows(out)):
            assert direct <= both + 1e-12
            assert both <= t + 1e-12 and both <= refl + 1e-12

    def test_figure_seven_smoke(self, capsys):
        code, out, _ = run(capsys, "figure", "7", "--points", "5")
        assert code == 0
        assert len(rows(out)) == 5

    def test_figure_eight_dominance(self, capsys):
        code, out, _ = run(capsys, "figure", "8", "--points", "5")
        assert code == 0
        for row in rows(out):
            vals = [float(x) for x in row]
            for nea, ea in zip(vals[1::2], vals[2::2]):
                assert ea >= nea - 1e-9

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_nonpositive_points_is_usage_error(self, capsys, points):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "3", "--points", points])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--points" in out.err

    def test_bad_figure_number(self, capsys):
        code, _, _ = run(capsys, "figure", "9")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "figure", "3", "--points", "50")
        _, second, _ = run(capsys, "figure", "3", "--points", "50")
        assert first == second

    def test_default_grid_runtime(self, capsys):
        import time
        started = time.monotonic()
        code, out, _ = run(capsys, "figure", "7")
        assert code == 0
        assert time.monotonic() - started < 60.0
        assert len(rows(out)) == 39


class TestTable:
    """_rows formats a row at once; every cell reads as ``_fmt`` prints it."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             1.7976931348623157e308, 1e-5, 0.1, 123456789012.5, 1e16, 2.5e-300]

    @staticmethod
    def per_cell(data):
        return [",".join(_fmt(x) for x in row) for row in zip(*data)]

    def test_edge_values(self):
        edges = np.array(self.EDGES)
        for data in ([edges], [edges, edges[::-1], list(edges)], [[1], [2.0], [np.float64(3.5)]]):
            assert _rows(data) == self.per_cell(data)

    def test_seeded_floats(self):
        rng = np.random.default_rng(233)
        x = rng.standard_normal(20000) * 10.0**rng.integers(-300, 300, 20000)
        data = [x[:10000], x[10000:], -x[:10000]]
        assert _rows(data) == self.per_cell(data)


@pytest.mark.parametrize("points", [1, 2, 121])
@pytest.mark.parametrize("number, mode", [(4, DetectionMode.TRANSMISSION),
                                          (5, DetectionMode.REFLECTION)])
def test_surface_rows_are_the_table_rows(number, mode, points):
    # a surface figure formats each r and each omega once: its rows are those of
    # _rows over the broadcast (r, omega, value) columns
    r = np.linspace(0.0, 0.98, 15)[:, None]
    omegas = np.geomspace(*opt.DEFAULT_OMEGA_BRACKET, points)[None, :]
    rescaled = (1.0 - r * r) * ea_cr(r, omegas, mode)
    data = [a.ravel() for a in np.broadcast_arrays(r, omegas, rescaled)]
    args = build_parser().parse_args(["figure", str(number), "--points", str(points)])
    columns, rows = _figure_surface(args, mode)
    assert columns == ["r", "omega", "rescaled_c_r"]
    assert len(rows) == 15 * points
    assert rows == _rows(data)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["scan", "--strategy", "direct", "--sweep", "r",
                 "--points", "3", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.startswith("# scattertomo")
    assert len(rows(text)) == 3


def test_repeated_main_calls_match_separate_runs(tmp_path, capsys):
    # the parser is built once per process: flags of one call must not leak
    # into the next, also after a usage error
    first = ["scan", "--strategy", "nea", "--mode", "r", "--vz", "0.3", "--omega", "0.7",
             "--sweep", "theta-a", "--from", "0.2", "--to", "1.0", "--points", "5"]
    second = ["scan", "--strategy", "ea", "--mode", "t", "--r", "0.3", "--sweep", "omega",
              "--points", "4"]
    assert main(first + ["-o", str(tmp_path / "first_in.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--strategy", "ea", "--sweep", "omega", "--points", "0"])
    assert exc.value.code == 2
    assert main(["scan", "--strategy", "direct", "--sweep", "omega"]) == 2
    assert main(second + ["-o", str(tmp_path / "second_in.csv")]) == 0
    capsys.readouterr()

    src = str(Path(scattertomo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, name in ((first, "first"), (second, "second")):
        subprocess.run([sys.executable, "-m", "scattertomo.cli", *argv,
                        "-o", str(tmp_path / f"{name}_alone.csv")], check=True, env=env)
        alone = (tmp_path / f"{name}_alone.csv").read_text()
        assert (tmp_path / f"{name}_in.csv").read_text() == alone
    assert "start=0.2" not in (tmp_path / "second_in.csv").read_text()


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("scattertomo ")]


def test_readme_cli_examples_run(tmp_path, capsys):
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for i, line in enumerate(lines):
        argv = shlex.split(line)[1:]
        if "-o" in argv:
            k = argv.index("-o")
            del argv[k:k + 2]
        target = tmp_path / f"example_{i}.csv"
        assert main(argv + ["-o", str(target)]) == 0, line
        assert rows(target.read_text()), line
    capsys.readouterr()
