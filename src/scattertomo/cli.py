"""Command-line front end: deterministic CSV for every computation and figure.

Every command returns its (columns, rows) and does no I/O; ``main`` writes the
header and the rows once, and maps errors to exit codes, so a failing command
writes nothing. All numeric output uses 12 significant digits and fixed row
order, so identical flags produce byte-identical CSV. Exit codes: 0 success,
2 usage error, 3 domain error, 4 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from dataclasses import astuple
from typing import Optional

import numpy as np

from . import closedform, optimize, qfi, scatter, states

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4

MODES = {m.value: m for m in scatter.DetectionMode}
MODE_ORDER = tuple(MODES)


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write(lines: list[str], path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:  # an unwritable --output is a usage error
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
        with fh:
            fh.write(text)


def _header(args: argparse.Namespace, columns: list[str]) -> list[str]:
    """The flags a command read, then its column names. Of the settings, a strategy
    reads what ``scatter.READS`` names; optimize searches omega and theta_a, a scan
    does not read the flag of the variable it sweeps, and an r-sweep reads no target."""
    command, strategy, sweep = (getattr(args, k, None) for k in ("command", "strategy", "sweep"))
    skip = {"func", "output", "target", (sweep or "").replace("-", "_")}
    skip |= {"mode", "omega", "theta_a"} - set(scatter.READS.get(strategy, ()))
    if command == "optimize":
        skip |= {"omega", "theta_a"}
    if sweep == "r":
        skip |= {"vx", "vy", "vz", "theta", "phi"}
    parts = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if val is not None:
            parts.append(f"{key}={val}")
    return [f"# scattertomo {' '.join(parts)}",
            f"# columns: {','.join(columns)}"]


def _rows(data: list) -> list[str]:
    """One CSV row per index of the equal-length data columns.

    Each row is one %-format of its floats; '%.12g' prints what ``_fmt`` does.
    """
    row = ",".join(["%.12g"] * len(data))
    cells = np.column_stack(data).ravel().tolist()
    return [row % cell for cell in zip(*[iter(cells)] * len(data))]


def _resolve_target(args: argparse.Namespace) -> states.BlochVector:
    """The target of the --vx/--vy/--vz or --r/--theta/--phi flags, which must not be mixed.

    Unset components read 0. A cartesian target's unset components are set to
    0.0 for the header; a polar target leaves the cartesian flags unset.
    """
    polar = [getattr(args, k) for k in ("r", "theta", "phi")]
    unset = [k for k in ("vx", "vy", "vz") if getattr(args, k) is None]
    if any(x is not None for x in polar):
        if len(unset) < 3:
            raise UsageError("give the target by --vx/--vy/--vz or by --r/--theta/--phi, not both")
        return states.polar_to_bloch(states.PolarCoords(*(x or 0.0 for x in polar)))
    for key in unset:
        setattr(args, key, 0.0)
    return states.BlochVector(args.vx, args.vy, args.vz)


def _require_omega(args: argparse.Namespace) -> float:
    if "omega" in scatter.READS[args.strategy] and args.omega is None:
        raise UsageError(f"--omega is required for strategy {args.strategy}")
    return args.omega if args.omega is not None else 0.0


def cmd_qfi(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    v = args.target
    omega = _require_omega(args)
    qfi.check_pure_target(v, None, "the QFI matrix")
    mode = MODES[args.mode]
    h_num = qfi.qfi_numeric(*scatter.encoding(args.strategy, v, omega, mode, args.theta_a),
                            eps=args.eps)
    if args.basis == "polar":
        h_num = qfi.cartesian_to_polar(h_num, states.bloch_to_polar(v))
    closed = closedform.closed_matrix(args.strategy, v, omega, mode, args.theta_a, args.basis)

    axes = qfi.AXES if args.basis == "cartesian" else qfi.POLAR_AXES
    known = ~np.isnan(closed)
    rows = [f"{a}{b},{_fmt(num)},{_fmt(ref) if has else ''}" for (a, b), num, ref, has
            in zip(itertools.product(axes, axes), h_num.h.flat, closed.flat, known.flat)]
    if known.any():
        diff, ref = np.abs([h_num.h - closed, closed])[:, known].max(axis=1)
        rows += [f"# max_abs_diff: {_fmt(diff)}",
                 f"# max_rel_diff: {_fmt(diff / max(ref, 1e-300))}"]
    return ["entry", "numeric", "closed_form"], rows


def cmd_bound(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    v = args.target
    grad = None  # --param matrix
    if args.param in qfi.AXES:
        grad = np.eye(3)[qfi.AXES.index(args.param)]
    elif args.param != "matrix":
        grad = qfi.polar_gradient(v, args.param)
    qfi.check_pure_target(v, grad, f"--param {args.param}")
    h = qfi.qfi_numeric(*scatter.encoding(args.strategy, v, _require_omega(args),
                                          MODES[args.mode], args.theta_a), eps=args.eps)
    bound = qfi.cr_bound(h, args.m_copies, "matrix" if grad is None else grad)
    if grad is None:
        return ["row", "x", "y", "z"], [",".join([row, *map(_fmt, cells)])
                                        for row, cells in zip(qfi.AXES, bound)]
    return ["param", "variance_bound"], [f"{args.param},{_fmt(bound)}"]


def _sweep_grid(args: argparse.Namespace) -> np.ndarray:
    defaults = {
        "omega": (*optimize.DEFAULT_OMEGA_BRACKET, True),
        "theta-a": (0.0, math.pi, False),
        "vz": (-0.95, 0.95, False),
        "r": (0.0, 0.99, False),
    }
    lo_d, hi_d, log_d = defaults[args.sweep]
    lo = args.start if args.start is not None else lo_d
    hi = args.stop if args.stop is not None else hi_d
    if not (lo < hi):
        raise UsageError("--from must be below --to")
    if log_d and lo > 0:
        return np.geomspace(lo, hi, args.points)
    return np.linspace(lo, hi, args.points)


def _zz_scan(x: np.ndarray, args: argparse.Namespace, mode) -> list:
    values = {"vz": closedform.axis_vz(args.target), "omega": args.omega,
              "theta-a": args.theta_a, args.sweep: x}
    if args.strategy == "ea":  # c_r(|v_z|) is the zz entry on the z axis only
        return [closedform.ea_cr(np.abs(values["vz"]), _require_omega(args), mode)]
    if values["omega"] is None:
        raise UsageError("--omega is required for this scan")
    for theta_a in (np.min(values["theta-a"]), np.max(values["theta-a"])):
        states.ProbeConfig(float(theta_a))  # refuses a theta_a outside [0, pi]
    return [closedform.nea_qfi(values["vz"], values["theta-a"], values["omega"], mode)]


# (strategy, swept variable) -> (columns, value columns on the whole grid x)
SCANS = {
    ("ea", "omega"): (["omega", "c_r", "c_theta"],
                      lambda x, a, m: astuple(closedform.ea_polar(a.target.norm, x, m))),
    ("ea", "r"): (["r", "c_r", "c_theta"],
                  lambda x, a, m: astuple(closedform.ea_polar(x, _require_omega(a), m))),
    ("ea", "vz"): (["v_z", "qfi_zz"], _zz_scan),
    ("nea", "omega"): (["omega", "qfi_zz"], _zz_scan),
    ("nea", "theta-a"): (["theta_a", "qfi_zz"], _zz_scan),
    ("nea", "vz"): (["vz", "qfi_zz"], _zz_scan),
    ("direct", "r"): (["r", "c_r", "c_theta"], lambda x, a, m: astuple(closedform.direct_qfi(x))),
}


def cmd_scan(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    if (args.strategy, args.sweep) not in SCANS:
        raise UsageError(f"sweep {args.sweep!r} not supported for strategy {args.strategy}")
    columns, compute = SCANS[args.strategy, args.sweep]
    grid = _sweep_grid(args)
    return columns, _rows([grid, *compute(grid, args, MODES[args.mode])])


def _per_mode(strategy: str, v_z: np.ndarray, keys: tuple[str, ...], tol: float) -> list[list]:
    """The NEA or EA optima at every target in each mode of keys, from one solve;
    ConvergenceError (exit 4) unless every one converged."""
    maximize = optimize.maximize_nea if strategy == "nea" else optimize.maximize_ea
    best = maximize(np.tile(v_z, len(keys)), [MODES[key] for key in keys for _ in v_z], tol)
    if not all(res.converged for res in best):
        raise optimize.ConvergenceError(f"{strategy.upper()} optimization did not converge")
    return [best[k * v_z.size:(k + 1) * v_z.size] for k in range(len(keys))]


def cmd_optimize(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    if args.strategy not in ("nea", "ea"):
        raise UsageError("optimize supports strategies nea and ea")
    v_z = closedform.axis_vz(args.target) if args.strategy == "nea" else args.target.norm
    [[res]] = _per_mode(args.strategy, np.array([v_z]), (args.mode,), args.tol)
    return ([f"{name}_star" for name, _ in res.argmax] + ["value", "iterations", "converged"],
            [",".join([_fmt(x) for _, x in res.argmax] + [
                _fmt(res.value), str(res.iterations), str(res.converged).lower()])])


def _figure_3(args) -> tuple[list[str], list[str]]:
    omegas = np.geomspace(*optimize.DEFAULT_OMEGA_BRACKET, args.points or 601)
    qfi_both = closedform.ea_cr(0.0, omegas, scatter.DetectionMode.BOTH)
    return ["omega", "rescaled_qfi", "m_var_rescaled"], _rows([omegas, qfi_both, 1.0 / qfi_both])


def _figure_surface(args, mode: scatter.DetectionMode) -> tuple[list[str], list[str]]:
    r = np.linspace(0.0, 0.98, 15)[:, None]
    omegas = np.geomspace(*optimize.DEFAULT_OMEGA_BRACKET, args.points or 121)[None, :]
    rescaled = (1.0 - r * r) * closedform.ea_cr(r, omegas, mode)
    # the rows of _rows over the broadcast (r, omega, value) columns, each r and
    # each omega formatted once
    r_text, omega_text = (["%.12g," % x for x in a.ravel().tolist()] for a in (r, omegas))
    return ["r", "omega", "rescaled_c_r"], [
        head + key + "%.12g" % x for head, values in zip(r_text, rescaled.tolist())
        for key, x in zip(omega_text, values)]


def _figure_6(args) -> tuple[list[str], list[str]]:
    r = np.linspace(0.0, 0.98, args.points or 50)
    m_var = [[1.0 / res.value for res in best]
             for best in _per_mode("ea", r, ("both", "t", "r"), 1e-8)]
    return (["r", "m_var_direct", "m_var_both", "m_var_transmission", "m_var_reflection"],
            _rows([r, 1.0 - r * r] + m_var))


def _figure_7(args) -> tuple[list[str], list[str]]:
    v_z = np.linspace(-0.95, 0.95, args.points or 39)
    columns, data = ["v_z"], [v_z]
    for key, best in zip(MODE_ORDER, _per_mode("nea", v_z, MODE_ORDER, 1e-6)):
        columns += [f"qfi_{key}", f"theta_a_{key}", f"omega_{key}"]
        data += [[res.value for res in best], [res.param("theta_a") for res in best],
                 [res.param("omega") for res in best]]
    return columns, _rows(data)


def _figure_8(args) -> tuple[list[str], list[str]]:
    v_z = np.linspace(0.0, 0.95, args.points or 20)
    columns, data = ["v_z"], [v_z]
    for key, nea, ea in zip(MODE_ORDER, _per_mode("nea", v_z, MODE_ORDER, 1e-6),
                            _per_mode("ea", v_z, MODE_ORDER, 1e-8)):
        columns += [f"nea_{key}", f"ea_{key}"]
        data += [[res.value for res in nea], [res.value for res in ea]]
    return columns, _rows(data)


def cmd_figure(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    builders = {
        3: _figure_3,
        4: lambda a: _figure_surface(a, scatter.DetectionMode.TRANSMISSION),
        5: lambda a: _figure_surface(a, scatter.DetectionMode.REFLECTION),
        6: _figure_6,
        7: _figure_7,
        8: _figure_8,
    }
    if args.number not in builders:
        raise UsageError("figure number must be one of 3, 4, 5, 6, 7, 8")
    return builders[args.number](args)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _positive_float(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return x


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=scatter.STRATEGIES, required=True)
    p.add_argument("--mode", choices=tuple(MODES), default="both",
                   help="detection mode (ignored for direct)")
    p.add_argument("--omega", type=float, default=None,
                   help="dimensionless momentum parameter (nea/ea)")
    p.add_argument("--theta-a", dest="theta_a", type=float, default=0.0,
                   help="probe Bloch polar angle (nea)")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.add_argument("--vx", type=float, default=None, help="target Bloch x component (default 0)")
    p.add_argument("--vy", type=float, default=None, help="target Bloch y component (default 0)")
    p.add_argument("--vz", type=float, default=None, help="target Bloch z component (default 0)")
    p.add_argument("--r", type=float, default=None, help="target Bloch radius (polar)")
    p.add_argument("--theta", type=float, default=None, help="target polar angle (rad)")
    p.add_argument("--phi", type=float, default=None, help="target azimuth (rad)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scattertomo",
        description="Tomographic accuracy bounds for a qubit probed by 1D scattering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfi", help="print the QFI matrix (numeric and closed form)")
    _add_common_flags(p)
    p.add_argument("--basis", choices=("cartesian", "polar"), default="cartesian")
    p.add_argument("--eps", type=_positive_float, default=1e-12)
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("bound", help="print a Cramer-Rao bound")
    _add_common_flags(p)
    p.add_argument("--m-copies", dest="m_copies", type=_positive_int, default=1)
    p.add_argument("--param", choices=("matrix", "x", "y", "z", "r", "theta", "phi"),
                   default="matrix")
    p.add_argument("--eps", type=_positive_float, default=1e-12)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("scan", help="sweep omega / theta_a / v_z / r grids")
    _add_common_flags(p)
    p.add_argument("--sweep", choices=("omega", "theta-a", "vz", "r"), required=True)
    p.add_argument("--from", dest="start", type=float, default=None)
    p.add_argument("--to", dest="stop", type=float, default=None)
    p.add_argument("--points", type=_positive_int, default=121)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize", help="maximize QFI over probe controls")
    _add_common_flags(p)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("figure", help="emit the CSV behind a paper figure")
    p.add_argument("number", type=int)
    p.add_argument("--points", type=_positive_int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_figure)

    # argparse reads a negative number in exponent form ("-1e-05") as a flag; no
    # option here looks like a number, so take every negative number as a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "vx"):
            args.target = _resolve_target(args)
        columns, rows = args.func(args)
        _write(_header(args, columns) + rows, args.output)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except optimize.ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
