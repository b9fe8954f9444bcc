"""Benchmark of the scattertomo package: seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_stream --seed 1 --seconds 20 --trace 0

``--workload`` is ``oracle_stream``, ``oracle_sweep``, ``cli`` or ``all``. With
``--trace 0`` the run measures set-up time in fresh processes, then times the
workload for ``--seconds`` with tracing off and prints the end-to-end metrics;
with ``--trace 1`` it runs a fixed quota of the workload once untraced and once
traced, and prints the per-layer metrics. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
report with provenance is written under ``perfbench/out/``. The exit code is
0 only if every checked operation passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("oracle_stream", "oracle_sweep", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11  # timed fresh-process set-ups per run, after one untimed
# traced runs execute a fixed amount of work so that their counts repeat exactly
TRACE_QUOTA = {"oracle_stream": 2000, "oracle_sweep": 6, "cli": 1}

# The machine shares its cores and caches with other machines, which slow it
# down by up to 2x, in bursts and for minutes at a time. A fixed reference
# kernel of small numpy calls, like the package's own but not the package, is
# timed at least every CALIBRATE_EVERY_S between steps. Each step's latency
# is multiplied by REFERENCE_S over the kernel's time around it (the mean of
# its timings just before and just after the step): timings are reported for
# a machine on which the kernel takes REFERENCE_S, whatever the load.
CALIBRATE_EVERY_S = 0.1
REFERENCE_S = 1e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import scattertomo from this checkout's src/, never from elsewhere."""
    init = SRC / "scattertomo" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import scattertomo

    if Path(scattertomo.__file__).resolve() != init.resolve():
        raise ImportError(f"imported {scattertomo.__file__}, expected {init}")
    return scattertomo


# --- measurement -----------------------------------------------------------

def reference_loop() -> float:
    """Seconds for a fixed kernel of small numpy calls (best of two)."""
    import numpy as np

    m = np.eye(4, dtype=complex) * 0.5
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(30):
            a = np.kron(m[:2, :2], m[:2, :2]) @ m
            np.linalg.eigh(a + a.conj().T)
        best = min(best, time.perf_counter() - start)
    return best


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seconds: float, tally) -> tuple[list[tuple], int, float]:
    """Closed loop over freshly drawn inputs until the deadline passes.

    Returns every step as (group, key, latency, items, slowdown), where the
    slowdown is the mean of the reference kernel's timings just before and
    just after the step over REFERENCE_S; the number of operations run; and
    the kernel's median timing.
    """
    calibration = [reference_loop()]
    last = time.perf_counter()
    deadline = last + seconds
    steps, n_ops = [], 0
    while True:
        op = wl.draw()
        n_ops += 1
        for group, key, step in wl.steps(op, tally):
            before = len(calibration) - 1
            start = time.perf_counter()
            items = step()
            end = time.perf_counter()
            steps.append((group, key, end - start, items, before))
            if end - last >= CALIBRATE_EVERY_S:
                calibration.append(reference_loop())
                last = time.perf_counter()
        if end >= deadline:
            break
    calibration.append(reference_loop())
    return [(group, key, latency, items,
             (calibration[i] + calibration[i + 1]) / (2 * REFERENCE_S))
            for group, key, latency, items, i in steps], n_ops, statistics.median(calibration)


def summarize(steps: list[tuple]) -> tuple[dict, dict]:
    """Statistics of the scaled latencies per kind of step, and pooled tails.

    Returns the kinds in order of first appearance, and the 90th and 99th
    percentiles of every step's latency over its kind's median, pooled over
    all kinds: a cli run holds about 140 invocations but only 10 passes.
    """
    by_key: dict = {}
    for group, key, latency, items, slowdown in steps:
        by_key.setdefault(key, (group, []))[1].append((latency / slowdown, items, slowdown))
    kinds, ratios = {}, []
    for key, (group, rows) in by_key.items():
        latencies = [latency for latency, _, _ in rows]
        median = statistics.median(latencies)
        ratios.extend(latency / median for latency in latencies)
        kinds[key] = {"group": group, "samples": len(rows), "p50": median,
                      "mean": statistics.fmean(latencies),
                      "items": statistics.fmean(items for _, items, _ in rows),
                      "median_slowdown": statistics.median(s for _, _, s in rows)}
    return kinds, {q: percentile(ratios, q) for q in (90, 99)}


def setup_seconds(workload: str, seed: int) -> float:
    """Scaled wall time of a fresh process importing the package and warming up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def calibrate() -> float:
        """The kernel's median of five; few probes need steadier calibrations."""
        return statistics.median(reference_loop() for _ in range(5))

    times, around = [], [calibrate()]
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        around.append(calibrate())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        if probe:  # the first probe only fills the page and bytecode caches
            times.append(elapsed)
    return statistics.median(t * 2 * REFERENCE_S / (around[i + 1] + around[i + 2])
                             for i, t in enumerate(times))


def time_workload(workloads, name: str, seed: int, seconds: float, workdir: Path):
    """Warm up, then time the workload.

    An operation's median is the sum of its steps' medians (one kind of step
    for a point, 8 for a sweep, 14 for a cli pass), and its 90th or 99th
    percentile is that median times the pooled tail of ``summarize``.
    Returns (metrics, named metrics, counts, tallies).
    """
    wl = workloads.make(name, seed, workdir)
    warm, timed = workloads.Tally(), workloads.Tally()
    wl.warmup(warm)
    steps, n_ops, reference_s = timed_run(wl, seconds, timed)
    kinds, tail = summarize(steps)

    def total(stat, group=None):
        return sum(k[stat] for k in kinds.values() if group in (None, k["group"]))

    items_per_s = total("items") / total("mean")
    p50 = total("p50")
    metrics = {
        "items_per_s": (items_per_s, "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p50 * tail[90], "ms"),
    }
    if name == "oracle_stream":
        named = {"oracle_stream.points_per_s": (items_per_s, "1/s"),
                 "oracle_stream.point_p50_us": (1e6 * p50, "us"),
                 "oracle_stream.point_p99_us": (1e6 * p50 * tail[99], "us")}
    elif name == "oracle_sweep":
        named = {"oracle_sweep.points_per_s": (items_per_s, "1/s"),
                 "oracle_sweep.sweep_p50_ms": (1e3 * p50, "ms"),
                 "oracle_sweep.sweep_p90_ms": (1e3 * p50 * tail[90], "ms")}
    else:
        named = {f"cli.{label}_s": (total("p50", group), "s")
                 for label, group in (("grid_figures", "grid"), ("opt_figures", "opt"),
                                      ("commands", "commands"))}
    counts = {"ops": n_ops, "reference_kernel_s": reference_s, "tail": tail, "steps": kinds}
    return metrics, named, counts, (warm, timed)


def trace_workload(workloads, name: str, seed: int, workdir: Path, quota: int):
    """Run a fixed quota untraced, then traced; returns (metrics, summary, tallies)."""
    from tracer import Tracer

    wl = workloads.make(name, seed, workdir)
    warm, plain, seen = workloads.Tally(), workloads.Tally(), workloads.Tally()
    wl.warmup(warm)
    inputs = [wl.draw() for _ in range(quota)]
    start = time.perf_counter()
    for op in inputs:
        wl.run(op, plain)
    untraced_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        for op in inputs:
            tracer.call("bench.op", wl.run, op, seen)
        traced_s = time.perf_counter() - start
    summary = tracer.summary()
    summary.update(traced_wall_s=traced_s, untraced_wall_s=untraced_s)
    residual = max(t.max_rel_residual for t in (warm, plain, seen))
    metrics = layer_metrics(summary, seen, residual, traced_s / untraced_s)
    return metrics, summary, (warm, plain, seen)


def layer_metrics(summary: dict, tally, max_rel_residual: float,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced run (README.md describes each)."""
    from tracer import calls, per_call_us, ratio

    layers = summary["layers"]

    def per_point(name):
        return (ratio(calls(summary, name), tally.channel_points), "count")

    def self_s(layer):
        return (layers[layer]["self_s"], "s")

    cf, opt = layers["closedform"], layers["optimize"]
    return {
        "scatter.s_matrices.calls_per_point": per_point("scatter.s_matrices"),
        "scatter.apply_channel.self_us": (per_call_us(summary, "scatter.apply_channel"), "us"),
        "scatter.channel_derivatives.self_us":
            (per_call_us(summary, "scatter.channel_derivatives"), "us"),
        "scatter.self_s": self_s("scatter"),
        "smallmat.herm_eig.calls_per_point": per_point("smallmat.herm_eig"),
        "smallmat.partial_trace.calls_per_point": per_point("smallmat.partial_trace"),
        "smallmat.self_s": self_s("smallmat"),
        "states.probe_state.calls_per_point": per_point("states.probe_state"),
        "states.self_s": self_s("states"),
        "qfi.qfi_numeric.self_us": (per_call_us(summary, "qfi.qfi_numeric"), "us"),
        "qfi.self_s": self_s("qfi"),
        "qfi.max_rel_residual": (max_rel_residual, "ratio"),
        "closedform.calls": (cf["entry_calls"], "count"),
        "closedform.elements": (cf["elements"], "count"),
        "closedform.elements_per_call": (ratio(cf["elements"], cf["entry_calls"]), "ratio"),
        "closedform.self_s": self_s("closedform"),
        "optimize.solves": (opt["solves"], "count"),
        "optimize.evals": (opt["evals"], "count"),
        "optimize.converged_ratio": (ratio(opt["converged"], opt["solves"]), "ratio"),
        "optimize.self_s": self_s("optimize"),
        "cli.self_s": self_s("cli"),
        "cli.rows_out": (tally.rows_out, "count"),
        "cli.bytes_out": (tally.bytes_out, "B"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


# --- provenance ------------------------------------------------------------

def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git (None if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(package, seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
                for key in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_commit": git_commit(ROOT),
        "package": f"scattertomo {getattr(package, '__version__', 'unknown')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# --- entry point -----------------------------------------------------------

def selected(args) -> tuple[str, ...]:
    return WORKLOADS if args.workload == "all" else (args.workload,)


def measure(workloads, args, workdir: Path):
    """Run the selected workloads; returns (metrics, named, counts, tally, summaries)."""
    tally = workloads.Tally()
    metrics, named, counts, summaries = {}, {}, {}, {}
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")
    for name in selected(args):
        if args.trace:
            layer, summary, tallies = trace_workload(
                workloads, name, args.seed, workdir, TRACE_QUOTA[name])
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in layer.items()})
            summaries[name] = summary
            extra = {"quota": TRACE_QUOTA[name]}
        else:
            generic, own, extra, tallies = time_workload(
                workloads, name, args.seed, args.seconds, workdir)
            named.update(own)
            if args.workload != "all":
                metrics.update(generic)
        counts[name] = {"attempted": sum(t.attempted for t in tallies),
                        "failed": sum(t.failed for t in tallies), **extra}
        for t in tallies:
            tally.merge(t)
    if args.workload == "all" and not args.trace:
        metrics.update(named)
    return metrics, named, counts, tally, summaries


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # one caller, small matrices: no BLAS threads
        os.environ.setdefault(var, "1")
    try:
        package = load_package()
        sys.path.insert(0, str(HERE))
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.setup_probe:
            tally = workloads.Tally()
            for name in selected(args):
                workloads.make(name, args.seed, Path(workdir)).warmup(tally)
            return 0 if tally.failed == 0 else 1
        metrics, named, counts, tally, summaries = measure(workloads, args, Path(workdir))

    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    for summary in summaries.values():
        for missing in summary["absent"]:
            print(f"absent from the package: {missing}", file=sys.stderr)

    def as_json(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(package, args.seed),
        "counts": counts, "errors": tally.errors, "max_rel_residual": tally.max_rel_residual,
        "metrics": as_json(metrics), "named_metrics": as_json(named),
        "trace_summary": summaries,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": as_json(metrics)}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
