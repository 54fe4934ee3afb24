"""Start-up hygiene: what importing the CLI and running a command load.

Importing ``scipy.linalg`` costs about half of a command's start-up, so
the library must not load it, nor ``numpy.polynomial`` (1.6 ms; a Horner
loop does its one job).  Every module a command needs must be loaded
when the library is imported, so no import lands inside a command's
timed path.  Both are checked in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

SCRIPT = """
import contextlib, io, json, sys
import rdcertify.cli as cli
heavy = [name for name in ("scipy.linalg", "numpy.polynomial")
         if name in sys.modules]
before = set(sys.modules)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"heavy": heavy, "codes": codes,
                  "added": sorted(set(sys.modules) - before)}))
"""


def test_commands_load_no_module_after_import(tmp_path):
    # doubleexp-poly puts DoubleExpMinusPoly's polynomial on the path
    poly = (CONFIGS / "absorption_decay.ini").read_text().replace(
        "F = exp", "F = doubleexp-poly:0.5,0.25")
    (tmp_path / "poly.ini").write_text(poly)
    argvs = [["check", str(CONFIGS / f"{name}.ini")]
             for name in ("combustion_bump", "absorption_decay", "blowup")]
    argvs += [["check", "poly.ini"],
              ["run", str(CONFIGS / "combustion_bump.ini")]]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=tmp_path,
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["heavy"] == []
    assert out["codes"] == [0, 0, 3, 0, 0]
    assert out["added"] == []
