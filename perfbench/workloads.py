"""Seeded workloads of the scattertomo benchmark and the checks on their outputs.

Every workload is single-process, single-caller and closed-loop: ``draw``
makes the next input from the workload's seeded generator (untimed), and
``run`` hands it to the package and checks every result. A raised exception
or a failed check counts as one failed operation in the ``Tally`` and the
run goes on, so a wrong result can never pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import scattertomo as st
import scattertomo.cli  # noqa: F401  (makes st.cli available)

# acceptance criterion 1: oracle vs closed forms at 1e-8 relative, on this window
REL_TOL = 1e-8
OMEGA_RANGE = (0.05, 20.0)
R_MAX = 0.95
PSD_TOL = 1e-9

MODES = (st.DetectionMode.TRANSMISSION, st.DetectionMode.REFLECTION,
         st.DetectionMode.BOTH)
MODE_FLAGS = {st.DetectionMode.TRANSMISSION: "t", st.DetectionMode.REFLECTION: "r",
              st.DetectionMode.BOTH: "both"}

# oracle_stream mix per block of 20 points: 40% EA, 30% NEA on the z axis,
# 15% direct, 15% NEA off-axis; shuffled within each block so every seed
# runs the same mix
STREAM_BLOCK = ("ea",) * 8 + ("nea_z",) * 6 + ("direct",) * 3 + ("nea_off",) * 3
# oracle_sweep: two EA sweeps per NEA sweep in every detection mode, shuffled
# within each block of nine
SWEEP_BLOCK = tuple((kind, mode) for kind in ("ea", "ea", "nea_z") for mode in MODES)
SWEEP_TARGETS = 256
SWEEP_CHUNK = 32


class CheckError(Exception):
    """An output of the package disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Tally:
    """Operations attempted and failed, plus counts the checks observe."""

    attempted: int = 0
    failed: int = 0
    channel_points: int = 0        # oracle points that built a channel (EA/NEA)
    max_rel_residual: float = 0.0  # worst oracle vs closed-form relative residual
    rows_out: int = 0              # CSV data rows the CLI wrote
    bytes_out: int = 0             # CSV bytes the CLI wrote
    errors: list = field(default_factory=list)

    def record(self, op, *args) -> None:
        """Run one checked operation; any exception marks it failed."""
        self.attempted += 1
        try:
            op(*args)
        except Exception as exc:  # a failure of any kind is counted, not fatal
            self.failed += 1
            if len(self.errors) < 10:
                what = getattr(args[0], "argv", args[0]) if args else ""
                self.errors.append(f"{op.__name__}({what}): {type(exc).__name__}: {exc}")

    def residual(self, value, reference) -> None:
        """Record the relative residual of value against reference and check it."""
        value = np.asarray(value, dtype=float)
        reference = np.asarray(reference, dtype=float)
        scale = max(float(np.max(np.abs(reference))), 1e-300)
        res = float(np.max(np.abs(value - reference))) / scale
        self.max_rel_residual = max(self.max_rel_residual, res)
        require(res <= REL_TOL, f"relative residual {res:.3e} exceeds {REL_TOL:.0e}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_rel_residual = max(self.max_rel_residual, other.max_rel_residual)
        self.errors.extend(other.errors[: max(0, 10 - len(self.errors))])


# --- oracle points ---------------------------------------------------------

@dataclass(frozen=True)
class Point:
    kind: str  # "ea", "nea_z", "nea_off" or "direct"
    v: tuple[float, float, float]
    omega: float
    mode: st.DetectionMode
    theta_a: float


def direct_cartesian(v) -> np.ndarray:
    """Cartesian QFI of direct access to the target: I + v v^T / (1 - |v|^2)."""
    v = np.asarray(v, dtype=float)
    return np.eye(3) + np.outer(v, v) / (1.0 - float(v @ v))


def check_bounded(h: np.ndarray, v) -> None:
    """H symmetric PSD and no more informative than direct access."""
    scale = max(1.0, float(np.max(np.abs(h))))
    require(float(np.max(np.abs(h - h.T))) <= 1e-10 * scale, "QFI is not symmetric")
    require(float(np.linalg.eigvalsh(h).min()) >= -PSD_TOL * scale, "QFI is not PSD")
    gap = direct_cartesian(v) - h
    require(float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
            >= -PSD_TOL * max(scale, float(np.max(np.abs(gap)))),
            "QFI beats direct access")


def oracle_point(p: Point, tally: Tally) -> None:
    """One numerical-oracle QFI evaluation, checked against its reference."""
    v = st.BlochVector(*p.v)
    if p.kind == "direct":
        state, derivs = st.direct_branches(v)
    else:
        tally.channel_points += 1
        probe = st.ProbeConfig(theta_a=p.theta_a, entangled=p.kind == "ea")
        state = st.apply_channel(st.bloch_to_density(v), probe, p.omega, p.mode)
        derivs = st.channel_derivatives(probe, p.omega, p.mode)
    h = st.qfi_numeric(state, derivs).h
    if p.kind == "ea":
        tally.residual(h, st.ea_cartesian(v, p.omega, p.mode).h)
    elif p.kind == "nea_z":
        tally.residual(h[2, 2], st.nea_qfi(p.v[2], p.theta_a, p.omega, p.mode))
    elif p.kind == "direct":
        tally.residual(h, direct_cartesian(p.v))
    else:  # NEA off the z axis has no closed form: check invariants only
        check_bounded(h, p.v)


def checked_points(points, tally: Tally) -> int:
    for p in points:
        tally.record(oracle_point, p, tally)
    return len(points)


def rand_ball(rng: np.random.Generator, r_max: float = R_MAX) -> tuple[float, float, float]:
    """Bloch vector uniform in the ball of radius r_max."""
    v = rng.normal(size=3)
    v *= r_max * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_channel(rng: np.random.Generator) -> tuple[float, st.DetectionMode, float]:
    """(Omega, mode, theta_a) of one channel."""
    return (log_uniform(rng, *OMEGA_RANGE), MODES[int(rng.integers(3))],
            float(rng.uniform(0.0, math.pi)))


def draw_target(rng: np.random.Generator, kind: str) -> tuple[float, float, float]:
    if kind == "nea_z":
        return (0.0, 0.0, float(rng.uniform(-R_MAX, R_MAX)))
    return rand_ball(rng)


def draw_point(rng: np.random.Generator, kind: str) -> Point:
    omega, mode, theta_a = draw_channel(rng)
    return Point(kind, draw_target(rng, kind), omega, mode, theta_a)


class Workload:
    """Common shape of a workload: seeded inputs, checked runs, a warm-up."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.warm_rng = np.random.default_rng([seed, 2])
        self._block: list = []

    def _next(self, block: tuple):
        """Next entry of a block that is reshuffled each time it runs out."""
        if not self._block:
            self._block = [block[i] for i in self.rng.permutation(len(block))]
        return self._block.pop()

    def steps(self, op, tally: Tally) -> list:
        """(group, key, step) triples that run one operation.

        Each step returns the items it checked; the key names the kind of
        step, so that timings can be summarized per kind.
        """
        raise NotImplementedError

    def run(self, op, tally: Tally) -> int:
        return sum(step() for _, _, step in self.steps(op, tally))


class OracleStream(Workload):
    """Independent oracle points, each with a fresh channel."""

    def draw(self) -> Point:
        return draw_point(self.rng, self._next(STREAM_BLOCK))

    def steps(self, point: Point, tally: Tally) -> list:
        return [("point", "point", partial(checked_points, (point,), tally))]

    def warmup(self, tally: Tally) -> None:
        for kind in sorted(set(STREAM_BLOCK)):
            self.run(draw_point(self.warm_rng, kind), tally)


@dataclass(frozen=True)
class Sweep:
    kind: str
    omega: float
    mode: st.DetectionMode
    theta_a: float
    targets: tuple


class OracleSweep(Workload):
    """Dense sweeps of 256 targets at one fixed channel."""

    def _sweep(self, rng: np.random.Generator, kind: str, mode: st.DetectionMode) -> Sweep:
        omega, _, theta_a = draw_channel(rng)
        targets = tuple(draw_target(rng, kind) for _ in range(SWEEP_TARGETS))
        return Sweep(kind, omega, mode, theta_a, targets)

    def draw(self) -> Sweep:
        return self._sweep(self.rng, *self._next(SWEEP_BLOCK))

    def steps(self, sweep: Sweep, tally: Tally) -> list:
        """The sweep in chunks of SWEEP_CHUNK targets, each a step of its own.

        Chunks let the timer check the machine's speed during a sweep; a
        sweep's latency quantile is the sum of its chunks' quantiles.
        """
        points = [Point(sweep.kind, v, sweep.omega, sweep.mode, sweep.theta_a)
                  for v in sweep.targets]
        return [("sweep", f"targets {i}-{i + SWEEP_CHUNK - 1}",
                 partial(checked_points, points[i:i + SWEEP_CHUNK], tally))
                for i in range(0, len(points), SWEEP_CHUNK)]

    def warmup(self, tally: Tally) -> None:
        self.run(self._sweep(self.warm_rng, "ea", st.DetectionMode.BOTH), tally)


# --- command line ----------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    group: str                      # "grid", "opt" or "commands"
    argv: tuple[str, ...]
    columns: tuple[str, ...]
    n_rows: int
    check: Callable[[list, Tally], None]  # raises CheckError on a wrong output
    channel_points: int = 0         # oracle points with a channel it builds

    @property
    def label(self) -> str:
        """"figure N", or the command and its strategy, e.g. "qfi ea"."""
        return " ".join(self.argv[:2] if self.argv[0] == "figure" else self.argv[:3:2])


def _floats(rows) -> np.ndarray:
    data = np.array([[float(x) for x in row] for row in rows])
    require(bool(np.all(np.isfinite(data))), "non-finite value in output")
    return data


def _nonnegative(rows, tally: Tally) -> None:
    """Every column after the first (the swept or grid variable) is >= 0."""
    require(bool(np.all(_floats(rows)[:, 1:] >= 0.0)), "negative value in output")


def _figure_3(rows, tally: Tally) -> None:
    data = _floats(rows)
    omega_star = data[int(np.argmin(data[:, 2])), 0]
    require(abs(omega_star - 0.616) <= 0.005, f"figure 3 optimum at {omega_star}")


def _figure_6(rows, tally: Tally) -> None:
    data = _floats(rows)
    require(bool(np.all(data[:, 1:2] <= data[:, 2:] + 1e-12)), "figure 6 beats direct access")


def _figure_8(rows, tally: Tally) -> None:
    data = _floats(rows)
    nea, ea = data[:, 1::2], data[:, 2::2]
    require(bool(np.all(ea >= nea - 1e-9)), "figure 8 has NEA above EA")


def _qfi_rows(rows) -> tuple[np.ndarray, list[tuple[float, float]]]:
    h = np.array([float(row[1]) for row in rows]).reshape(3, 3)
    closed = [(float(row[1]), float(row[2])) for row in rows if row[2] != ""]
    return h, closed


def _qfi_agrees(rows, tally: Tally) -> None:
    _, closed = _qfi_rows(rows)
    require(len(closed) == 9, "closed-form column incomplete")
    numeric, reference = zip(*closed)
    tally.residual(numeric, reference)


def _qfi_bounded(v):
    def check(rows, tally: Tally) -> None:
        h, closed = _qfi_rows(rows)
        require(not closed, "unexpected closed form for an off-axis NEA target")
        check_bounded(h, v)
    return check


def _equals(expected: float):
    def check(rows, tally: Tally) -> None:
        got = float(rows[0][1])
        require(abs(got - expected) <= REL_TOL * abs(expected), f"{got} differs from {expected}")
    return check


def _optimum(objective, n_args: int):
    """The row reports convergence and the objective's value at its argmax."""
    def check(rows, tally: Tally) -> None:
        row = rows[0]
        require(row[-1] == "true", "optimizer did not converge")
        expected = objective(*(float(x) for x in row[:n_args]))
        got = float(row[n_args])
        require(abs(got - expected) <= REL_TOL * abs(expected),
                f"optimum {got} differs from the objective {expected}")
    return check


def _figures() -> list[Invocation]:
    surface = ("r", "omega", "rescaled_c_r")
    envelope = ("v_z",) + tuple(f"{q}_{m}" for m in ("t", "r", "both")
                                for q in ("qfi", "theta_a", "omega"))
    nea_ea = ("v_z",) + tuple(f"{kind}_{m}" for m in ("t", "r", "both")
                              for kind in ("nea", "ea"))
    return [
        Invocation("grid", ("figure", "3"), ("omega", "rescaled_qfi", "m_var_rescaled"),
                   601, _figure_3),
        Invocation("grid", ("figure", "4"), surface, 15 * 121, _nonnegative),
        Invocation("grid", ("figure", "5"), surface, 15 * 121, _nonnegative),
        Invocation("opt", ("figure", "6"), ("r", "m_var_direct", "m_var_both",
                                            "m_var_transmission", "m_var_reflection"),
                   50, _figure_6),
        Invocation("opt", ("figure", "7"), envelope, 39, _nonnegative),
        Invocation("opt", ("figure", "8"), nea_ea, 20, _figure_8),
    ]


def _commands(rng: np.random.Generator) -> list[Invocation]:
    """The eight single-shot commands, with targets and momenta drawn from rng."""
    def mode() -> st.DetectionMode:
        return MODES[int(rng.integers(3))]

    def omega() -> float:
        return log_uniform(rng, *OMEGA_RANGE)

    def radius(lo: float = 0.0) -> float:
        return float(rng.uniform(lo, R_MAX))

    f = repr
    v_ea, om_ea = rand_ball(rng), omega()
    v_nea, om_nea, ta_nea = rand_ball(rng), omega(), float(rng.uniform(0.0, math.pi))
    r_direct = radius(0.05)
    r_th, om_th, mode_th = radius(0.05), omega(), mode()
    th, ph = float(rng.uniform(0.2, math.pi - 0.2)), float(rng.uniform(0.0, 2 * math.pi))
    r_scan, mode_scan = radius(), mode()
    vz_scan, om_scan, mode_nea_scan = float(rng.uniform(-R_MAX, R_MAX)), omega(), mode()
    r_opt, mode_opt = radius(), mode()
    c_theta = st.closedform.ea_polar(r_th, om_th, mode_th).c_theta
    qfi_columns = ("entry", "numeric", "closed_form")
    bound_columns = ("param", "variance_bound")
    transmission = st.DetectionMode.TRANSMISSION
    return [
        Invocation("commands", ("qfi", "--strategy", "ea", "--mode", "both",
                                "--vx", f(v_ea[0]), "--vy", f(v_ea[1]), "--vz", f(v_ea[2]),
                                "--omega", f(om_ea)),
                   qfi_columns, 9, _qfi_agrees, 1),
        Invocation("commands", ("qfi", "--strategy", "nea", "--mode", "t",
                                "--vx", f(v_nea[0]), "--vy", f(v_nea[1]), "--vz", f(v_nea[2]),
                                "--omega", f(om_nea), "--theta-a", f(ta_nea)),
                   qfi_columns, 9, _qfi_bounded(v_nea), 1),
        Invocation("commands", ("bound", "--strategy", "direct", "--r", f(r_direct),
                                "--param", "r"),
                   bound_columns, 1, _equals(1.0 - r_direct**2)),
        Invocation("commands", ("bound", "--strategy", "ea", "--mode", MODE_FLAGS[mode_th],
                                "--r", f(r_th), "--theta", f(th), "--phi", f(ph),
                                "--omega", f(om_th), "--param", "theta"),
                   bound_columns, 1, _equals(1.0 / c_theta), 1),
        Invocation("commands", ("scan", "--strategy", "ea", "--mode", MODE_FLAGS[mode_scan],
                                "--r", f(r_scan), "--sweep", "omega"),
                   ("omega", "c_r", "c_theta"), 121, _nonnegative),
        Invocation("commands", ("scan", "--strategy", "nea", "--mode", MODE_FLAGS[mode_nea_scan],
                                "--vz", f(vz_scan), "--omega", f(om_scan), "--sweep", "theta-a"),
                   ("theta_a", "qfi_zz"), 121, _nonnegative),
        Invocation("commands", ("optimize", "--strategy", "nea", "--mode", "t", "--vz", "0.9"),
                   ("theta_a_star", "omega_star", "value", "iterations", "converged"), 1,
                   _optimum(lambda ta, om: st.closedform.nea_qfi(0.9, ta, om, transmission), 2)),
        Invocation("commands", ("optimize", "--strategy", "ea", "--mode", MODE_FLAGS[mode_opt],
                                "--r", f(r_opt)),
                   ("omega_star", "value", "iterations", "converged"), 1,
                   _optimum(lambda om: st.closedform.ea_cr(r_opt, om, mode_opt), 1)),
    ]


class Cli(Workload):
    """In-process passes of scattertomo.cli.main over figures and commands."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.out = Path(workdir) / "out.csv"

    def draw(self) -> list[Invocation]:
        """One pass: figures 3-5, figures 6-8, then the eight commands."""
        return _figures() + _commands(self.rng)

    def _invoke(self, inv: Invocation, tally: Tally) -> None:
        tally.channel_points += inv.channel_points
        self.out.unlink(missing_ok=True)
        code = st.cli.main([*inv.argv, "--output", str(self.out)])
        require(code == 0, f"exit code {code}")
        text = self.out.read_text(encoding="utf-8")
        tally.bytes_out += len(text.encode("utf-8"))
        lines = text.splitlines()
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
        tally.rows_out += len(rows)
        require(len(lines) >= 2 and lines[0].startswith("# scattertomo "), "missing header")
        require(lines[1] == "# columns: " + ",".join(inv.columns), f"columns {lines[1]!r}")
        require(len(rows) == inv.n_rows, f"{len(rows)} rows, expected {inv.n_rows}")
        require(all(len(row) == len(inv.columns) for row in rows), "ragged rows")
        inv.check(rows, tally)

    def _checked(self, inv: Invocation, tally: Tally) -> int:
        tally.record(self._invoke, inv, tally)
        return 1

    def steps(self, invocations: list[Invocation], tally: Tally) -> list:
        return [(inv.group, inv.label, partial(self._checked, inv, tally))
                for inv in invocations]

    def warmup(self, tally: Tally) -> None:
        self.run(_figures()[:1] + _commands(self.warm_rng), tally)


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "oracle_stream":
        return OracleStream(seed)
    if name == "oracle_sweep":
        return OracleSweep(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle_stream", "oracle_sweep", "cli")
