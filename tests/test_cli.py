import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scattertomo
from scattertomo.cli import main
from scattertomo.closedform import ea_cartesian
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
        assert "|v| < 1" in err

    def test_nea_on_axis_gives_zz_closed_form(self, capsys):
        code, out, _ = run(capsys, "qfi", "--strategy", "nea", "--mode", "t",
                           "--vz", "0.3", "--omega", "0.7", "--theta-a", "0.4")
        assert code == 0
        table = {r[0]: r for r in rows(out)}
        assert table["zz"][2] != ""      # closed form available on axis
        assert table["xx"][2] == ""      # and only for the zz entry
        assert abs(float(table["zz"][1]) - float(table["zz"][2])) < 1e-9

    def test_missing_omega_is_usage_error(self, capsys):
        code, _, err = run(capsys, "qfi", "--strategy", "ea", "--vz", "0.2")
        assert code == 2
        assert "omega" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "qfi", "--strategy", "ea", "--vz", "0.2",
                           "--omega", "-1.0")
        assert code == 3
        assert err.strip()

    def test_unparseable_flags_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--strategy", "bogus"])
        assert exc.value.code == 2


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
