import os
import subprocess
import sys
from pathlib import Path

import scattertomo


def test_every_exported_name_resolves():
    assert len(set(scattertomo.__all__)) == len(scattertomo.__all__)
    for name in scattertomo.__all__:
        assert getattr(scattertomo, name) is not None, name


def test_one_export_per_optimizer_search():
    exported = set(scattertomo.__all__)
    assert {"maximize_1d", "maximize_ea", "maximize_nea", "OptResult"} <= exported
    assert not {name for name in exported if name.endswith("_batch") or "envelope" in name.lower()}


def test_runtime_imports_numpy_only():
    # the package and its command line run on numpy alone; sympy (and scipy) are
    # for deriving coefficient tables offline, never imported at run time
    package = Path(scattertomo.__file__).resolve()
    path = [str(package.parents[1]), os.environ.get("PYTHONPATH")]
    code = ("import sys, scattertomo, scattertomo.cli; print(scattertomo.__file__); "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    imported, heavy = out.stdout.splitlines()
    assert Path(imported).resolve() == package
    assert heavy == "[]"
