"""Every argv of data/reference/cli.json, replayed through cli.main, prints what it did.

The reference is written by ``tools/refgen.py``. Exit codes, the first stderr line,
the ``#`` lines, the row count and integer cells compare exactly; other numeric
cells to 1e-10 relative, coarser than the CSV's 12 digits, and the optimizers'
arguments (``*_star``, ``theta_a_*``, ``omega_*``) to 1e-6 (1 + |x|), the figures'
optimizer tolerance.
"""

import json
import re
from pathlib import Path

import pytest

from scattertomo.cli import main

RECORDS = json.loads((Path(__file__).parent / "data" / "reference" / "cli.json")
                     .read_text(encoding="utf-8"))
CSV_REL = 1e-10
ARG_TOL = 1e-6
INTEGER = re.compile(r"-?\d+")


def _same_cell(name, got, ref):
    if name.endswith("_star") or name.startswith(("theta_a_", "omega_")):
        return abs(float(got) - float(ref)) <= ARG_TOL * (1 + abs(float(ref)))
    if INTEGER.fullmatch(ref):
        return got == ref
    try:
        x = float(ref)
    except ValueError:  # text: an entry name, a flag, an empty closed-form cell
        return got == ref
    return abs(float(got) - x) <= CSV_REL * abs(x)


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record, capsys, monkeypatch, request):
    if "-o" in record["argv"]:  # a relative --output path resolves in an empty directory
        monkeypatch.chdir(request.getfixturevalue("tmp_path"))
    code = main(list(record["argv"]))
    out = capsys.readouterr()
    assert code == record["exit"]
    assert (out.err.splitlines() or [""])[0] == record["stderr"]
    got, ref = out.out.splitlines(), record["stdout"].splitlines()
    assert [line for line in got if line.startswith("#")] == \
        [line for line in ref if line.startswith("#")]
    columns = next((line.removeprefix("# columns: ").split(",") for line in ref
                    if line.startswith("# columns: ")), [])
    rows, ref_rows = ([line.split(",") for line in lines if not line.startswith("#")]
                      for lines in (got, ref))
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert len(row) == len(ref_row) == len(columns), (row, ref_row)
        for name, x, x_ref in zip(columns, row, ref_row):
            assert _same_cell(name, x, x_ref), (name, row, ref_row)
