"""Write the CLI reference outputs that tests/test_reference.py replays.

Usage, from anywhere:

    python tools/refgen.py            # writes tests/data/reference/cli.json

It imports the package from this checkout's ``src`` and runs ``cli.main``
in-process on a fixed list of argvs: figures 3-8 at their default grids,
``optimize`` on NEA and EA grids in every mode, ``qfi`` and ``bound`` for every
strategy x mode x basis or param, every ``cli.SCANS`` pair at ``--points 9``,
and the checks of the CI entry-point step. Each record holds the argv, its
exit code, the first line of stderr ("" if none) and stdout, whose lines are
the CSV header and rows.

Regenerating the file is a test-data change: do it only where a change moves
an output on purpose, and record which outputs moved, and why, with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scattertomo import cli  # noqa: E402

OUT = ROOT / "tests" / "data" / "reference" / "cli.json"

MODES = ("t", "r", "both")
STRATEGIES = ("direct", "nea", "ea")
TARGET = ["--vx", "0.2", "--vy", "-0.1", "--vz", "0.4", "--omega", "0.6", "--theta-a", "0.7"]
SCAN_FLAGS = ["--vz", "0.4", "--omega", "0.6", "--theta-a", "0.7", "--points", "9"]

# the exit-2 and exit-3 checks of the CI entry-point step and the runs among them,
# without their -o (a refusal writes nothing), and the three usage refusals at the end
ENTRY_POINT_CHECKS = [
    "qfi --strategy ea --mode t --vz 0.3 --omega -1",
    "qfi --strategy nea --mode t --vz 0.3 --omega 0.6 --theta-a nan",
    "qfi --strategy ea --mode t --vz 0.3 --omega 1e200",
    "bound --strategy ea --vz 0.3 --omega 1e200 --param z",
    "scan --strategy nea --vz 0.4 --omega 1e200 --sweep theta-a",
    "qfi --strategy ea --vx 1e200 --omega 0.6",
    "qfi --strategy direct --vz 1e155",
    "figure 3 --points 2 -o no-such-directory/x.csv",
    "qfi --strategy direct --vz 1",
    "scan --strategy nea --vx 0.3 --omega 0.6 --sweep theta-a",
    "scan --strategy ea --vx 0.1 --omega 0.6 --sweep vz",
    "scan --strategy nea --vz 0.4 --omega 0.6 --sweep theta-a --to 4",
    "qfi --strategy ea --vz 0.3 --omega 0.6 --theta-a 5",
    "qfi --strategy nea --vz 0.3 --omega 0.6 --theta-a 5",
    "qfi --strategy direct --vz 0.5 --omega 0.6",
    "bound --strategy ea --vz 1 --omega 0.6 --param x",
    "scan --strategy ea --vz 0.4 --omega 0.6 --sweep r --from 2 --to 1",
    "scan --strategy nea --vz 0.4 --sweep theta-a",
    "optimize --strategy direct",
]


def argvs() -> list[list[str]]:
    out = [["figure", str(n)] for n in range(3, 9)]
    for mode in MODES:
        out += [["optimize", "--strategy", "nea", "--mode", mode,
                 "--vz", f"{round(-0.999 + k * 0.04995, 5):g}"] for k in range(41)]
        out += [["optimize", "--strategy", "ea", "--mode", mode, "--r", r]
                for r in ("0", "0.5", "0.9")]
    for strategy in STRATEGIES:
        for mode in MODES:
            common = ["--strategy", strategy, "--mode", mode, *TARGET]
            out += [["qfi", *common, "--basis", basis] for basis in ("cartesian", "polar")]
            out += [["bound", *common, "--param", param]
                    for param in ("matrix", "x", "y", "z", "r", "theta", "phi")]
    out += [["scan", "--strategy", strategy, "--sweep", sweep, *SCAN_FLAGS]
            for strategy, sweep in cli.SCANS]
    return out + [line.split() for line in ENTRY_POINT_CHECKS]


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stderr": (err.getvalue().splitlines() or [""])[0],
            "stdout": out.getvalue()}


def main() -> int:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    records = [record(argv) for argv in argvs()]
    OUT.write_text("[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
                   + "\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
