"""Start-up hygiene: what importing the CLI and running a command load.

Importing ``scipy.linalg`` costs about half of a command's start-up, so
the library must not load it, nor ``numpy.polynomial`` (1.6 ms; a Horner
loop does its one job), nor ``numpy.random``, whose ten extension modules
and ``secrets`` -> ``hashlib`` -> ``_hashlib`` (OpenSSL's libcrypto) cost
about 6 MB of resident memory (``verify`` draws the seeded points of
numpy's ``default_rng`` stream itself), nor ``configparser`` (the CLI
reads its INI grammar itself); no command loads these five.
Every module a command needs must be loaded when the library is
imported, so no import lands inside a command's timed path, with one
exception: LAPACK.  scipy and its ``_flapack`` extension, which maps
scipy's bundled OpenBLAS, load on the first solve's ``?pttrf`` call, so
``check`` and a run whose rounds all skip the solve never load them.
Both are checked in a fresh interpreter, on the package this process
imports: the source tree under the tier-1 command's ``PYTHONPATH=src``,
the installed package without it (as CI runs this file).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rdcertify

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
ENV = {**os.environ,
       "PYTHONPATH": str(Path(rdcertify.__file__).resolve().parents[1])}

# the modules each command adds to those the import of the CLI loaded
SCRIPT = """
import contextlib, io, json, sys
import rdcertify.cli as cli
NEVER = ("numpy.polynomial", "numpy.random", "secrets", "_hashlib",
         "configparser")
heavy = [name for name in ("scipy", "scipy.linalg", "scipy.linalg._flapack",
                           *NEVER) if name in sys.modules]
codes, added = [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        before = set(sys.modules)
        codes.append(cli.main(argv))
        added.append(sorted(set(sys.modules) - before))
never = [name for name in NEVER if name in sys.modules]
print(json.dumps({"heavy": heavy, "codes": codes, "added": added,
                  "never": never}))
"""

# the modules scipy's package init adds to those the import of the CLI loaded
SCIPY_INIT = """
import json, sys
import rdcertify.cli
before = set(sys.modules)
import scipy
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def launch(script, *args, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=ENV,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_load_no_module_after_import(tmp_path):
    # doubleexp-poly puts DoubleExpMinusPoly's polynomial on the path
    poly = (CONFIGS / "absorption_decay.ini").read_text().replace(
        "F = exp", "F = doubleexp-poly:0.5,0.25")
    (tmp_path / "poly.ini").write_text(poly)
    argvs = [["check", str(CONFIGS / f"{name}.ini")]
             for name in ("combustion_bump", "absorption_decay", "blowup")]
    # the blow-up example's uniform data skip every solve
    argvs += [["check", "poly.ini"], ["run", str(CONFIGS / "blowup.ini")],
              ["run", str(CONFIGS / "combustion_bump.ini")]]
    out = launch(SCRIPT, json.dumps(argvs), cwd=tmp_path)
    assert out["heavy"] == []
    # nor does any command, the one that loads scipy included
    assert out["never"] == []
    assert out["codes"] == [0, 0, 3, 0, 2, 0]
    assert out["added"][:5] == [[]] * 5
    # the first ?pttrf call loads scipy's package init and _flapack alone
    scipy_init = launch(SCIPY_INIT, cwd=tmp_path)
    assert "scipy" in scipy_init and "scipy.linalg" not in scipy_init
    assert out["added"][5] == sorted(scipy_init + ["scipy.linalg._flapack"])
