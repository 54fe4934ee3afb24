"""Smoke-run every demo script and every shipped config."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("name,code,verdict", [
    ("absorption_decay", 3, "completed"),
    ("combustion_bump", 0, "completed"),
    ("blowup", 2, "blowup"),
])
def test_shipped_config_runs(name, code, verdict, tmp_path):
    config = ROOT / "demos" / "configs" / f"{name}.ini"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rdcertify.cli",
         "run", str(config)],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == f"verdict: {verdict}"
    assert (tmp_path / f"{name}.csv").is_file()
    assert (tmp_path / f"{name}_report.txt").is_file()
