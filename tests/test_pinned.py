"""The pinned bytes of the command line: each entry of pinned.json,
checked in process and through the installed script.  The README's
"Tests" section gives the record's fields."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import rdcertify.cli as cli
from rdcertify import integrator
from rdcertify.integrator import run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
RECORD = json.loads((ROOT / "tests" / "pinned.json").read_text())


def sha8(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def row_digest(series) -> str:
    """The sha256 prefix of the float.hex of every series row: all eight
    columns, also the rows the CSV leaves out."""
    rows = zip(*(getattr(series, key) for key in cli.CSV_HEADER.split(",")))
    text = "\n".join(",".join(float(x).hex() for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prepare(name, cwd):
    entry = RECORD[name]
    if entry["argv"][0] != "theta":
        config = entry["argv"][1]
        text = (CONFIGS / config).read_text()
        if "replace" in entry:
            old, new = entry["replace"]
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        (cwd / config).write_text(text)
    return entry


def check(entry, code, out, err, cwd):
    assert code == entry["exit"], err
    if "error" in entry:
        assert out == ""
        assert err.startswith(f"config error at {entry['error']}: ")
    else:
        assert err == ""
        assert sha8(out.encode()) == entry["stdout"]
    for name, pin in entry.get("files", {}).items():
        assert sha8((cwd / name).read_bytes()) == pin, name


@pytest.mark.parametrize("name", sorted(RECORD))
def test_in_process(name, tmp_path, monkeypatch, capsys):
    entry = prepare(name, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RD_CERTIFY_SEED", raising=False)
    runs = []

    def recording_run(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    check(entry, cli.main(entry["argv"]), *capsys.readouterr(), tmp_path)
    assert [row_digest(series) for series, _ in runs] == (
        [entry["rows"]] if "rows" in entry else [])


@pytest.mark.parametrize("name", ["check-absorption_decay", "check-blowup",
                                  "check-combustion_bump", "run-blowup",
                                  "run-combustion_bump"])
def test_without_lapack(name, tmp_path, monkeypatch, capsys):
    # scipy without its _flapack extension: only a ?gtsv call notices,
    # and the run that makes one writes nothing
    entry = prepare(name, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RD_CERTIFY_SEED", raising=False)
    integrator._load_gtsv.cache_clear()
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    if name == "run-combustion_bump":
        with pytest.raises(ImportError) as exc:
            cli.main(entry["argv"])
        assert exc.value.name == "scipy.linalg._flapack"
        assert exc.value.name in str(exc.value)
        assert [path.name for path in tmp_path.iterdir()] == [entry["argv"][1]]
        assert capsys.readouterr() == ("", "")
    else:
        check(entry, cli.main(entry["argv"]), *capsys.readouterr(), tmp_path)


def launch(command, name, cwd, **env):
    """Check entry ``name`` run by ``command`` in a fresh interpreter."""
    entry = prepare(name, cwd)
    base = {key: value for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "RD_CERTIFY_SEED")}
    proc = subprocess.run(
        command + entry["argv"], cwd=cwd, capture_output=True,
        encoding="utf-8", timeout=300,
        env={**base, "PYTHONWARNINGS": "error::RuntimeWarning", **env})
    check(entry, proc.returncode, proc.stdout, proc.stderr, cwd)


@pytest.mark.parametrize("name", sorted(RECORD))
def test_installed(name, tmp_path):
    if shutil.which("rd-certify") is None:
        pytest.skip("no rd-certify script on PATH")
    launch(["rd-certify"], name, tmp_path)


@pytest.mark.parametrize("name", ["run-absorption_decay", "run-blowup",
                                  "run-combustion_bump"])
def test_module_launch(name, tmp_path):
    launch([sys.executable, "-m", "rdcertify.cli"], name, tmp_path,
           PYTHONPATH=str(ROOT / "src"))
