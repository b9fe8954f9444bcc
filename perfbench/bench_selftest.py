"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/bench_selftest.py``.
The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import scattertomo as st  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def commands_only(monkeypatch):
    """Make a cli pass just the eight single-shot commands (no figures)."""
    monkeypatch.setattr(workloads.Cli, "draw", lambda self: workloads._commands(self.rng))


def traced(name, quota, tmp_path, seed=7):
    return run.trace_workload(workloads, name, seed, tmp_path, quota)


def failures(tallies):
    return sum(t.failed for t in tallies), sum(t.attempted for t in tallies)


def test_counts_repeat_for_a_fixed_seed(tmp_path, monkeypatch):
    first, _, _ = traced("oracle_stream", 40, tmp_path)
    second, _, _ = traced("oracle_stream", 40, tmp_path)
    for key in ("scatter.s_matrices.calls_per_point", "smallmat.herm_eig.calls_per_point",
                "closedform.calls"):
        assert first[key] == second[key]
    assert first["scatter.s_matrices.calls_per_point"][0] == 4.0

    commands_only(monkeypatch)
    first, _, _ = traced("cli", 1, tmp_path)
    second, _, _ = traced("cli", 1, tmp_path)
    for key in ("optimize.evals", "optimize.solves", "closedform.calls", "cli.rows_out"):
        assert first[key] == second[key]
        assert first[key][0] > 0


def test_self_times_sum_to_traced_wall_time(tmp_path):
    metrics, summary, tallies = traced("oracle_sweep", 1, tmp_path)
    total = sum(layer["self_s"] for layer in summary["layers"].values())
    wall = summary["traced_wall_s"]
    assert abs(total - wall) <= 0.02 * wall
    assert failures(tallies)[0] == 0
    assert metrics["qfi.max_rel_residual"][0] <= workloads.REL_TOL


def test_tracer_restores_bindings_and_reports_absent_names(monkeypatch):
    originals = (st.apply_channel, st.scatter.apply_channel, st.optimize.nea_qfi,
                 st.closedform.nea_qfi, st.cli.main)
    monkeypatch.setattr(tracer, "REQUIRED", tracer.REQUIRED + ("scatter.no_such_function",))
    with tracer.Tracer() as tr:
        assert st.optimize.nea_qfi is st.closedform.nea_qfi is not originals[2]
        st.nea_qfi(0.3, 0.5, 0.6, st.DetectionMode.BOTH)
    assert (st.apply_channel, st.scatter.apply_channel, st.optimize.nea_qfi,
            st.closedform.nea_qfi, st.cli.main) == originals
    summary = tr.summary()
    assert summary["absent"] == ["scatter.no_such_function"]
    assert summary["functions"]["closedform.nea_qfi"]["calls"] == 1


def scaled(fn, factor):
    def wrong(*args, **kwargs):
        h = fn(*args, **kwargs)
        return st.QfiMatrix(h.basis, h.h * factor)
    return wrong


def test_wrong_reference_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(st, "ea_cartesian", scaled(st.ea_cartesian, 1 + 1e-6))
    wl = workloads.make("oracle_stream", 3, tmp_path)
    tally = workloads.Tally()
    for _ in range(40):
        wl.run(wl.draw(), tally)
    assert tally.attempted == 40
    assert tally.failed == 16  # the EA share of the mix


def test_wrong_closed_form_fails_the_cli_workload(tmp_path, monkeypatch):
    commands_only(monkeypatch)
    monkeypatch.setattr(st.closedform, "ea_cartesian",
                        scaled(st.closedform.ea_cartesian, 1 + 1e-6))
    wl = workloads.make("cli", 3, tmp_path)
    tally = workloads.Tally()
    wl.run(wl.draw(), tally)
    assert (tally.failed, tally.attempted) == (1, 8)
    assert "closed" in tally.errors[0] or "residual" in tally.errors[0]


def test_failed_operation_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(st, "nea_qfi", lambda *args: 1.0)
    code = run.main(["--workload", "oracle_stream", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summary_scales_each_step_by_its_slowdown():
    steps = [("grid", "figure 3", 0.2, 1, 2.0), ("grid", "figure 3", 0.1, 1, 1.0),
             ("grid", "figure 3", 0.3, 1, 3.0), ("opt", "figure 7", 1.5, 1, 1.5),
             ("opt", "figure 7", 2.0, 1, 1.0), ("opt", "figure 7", 1.0, 1, 1.0)]
    kinds, tail = run.summarize(steps)
    assert list(kinds) == ["figure 3", "figure 7"]
    assert kinds["figure 3"]["p50"] == pytest.approx(0.1)
    assert kinds["figure 3"]["mean"] == pytest.approx(0.1)
    assert kinds["figure 7"]["p50"] == pytest.approx(1.0)
    # ratios to the kind's median: 1, 1, 1 and 1, 2, 1
    assert tail[90] == pytest.approx(1.5)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def points(seed):
        wl = workloads.make("oracle_stream", seed, tmp_path)
        return [wl.draw() for _ in range(25)]

    assert points(5) == points(5)
    assert points(5) != points(6)
    kinds = [p.kind for p in points(5)[:20]]
    assert sorted(kinds) == sorted(workloads.STREAM_BLOCK)
    assert all(np.linalg.norm(p.v) <= workloads.R_MAX for p in points(5))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_warmup_passes_every_check(name, tmp_path):
    tally = workloads.Tally()
    workloads.make(name, 11, tmp_path).warmup(tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors
