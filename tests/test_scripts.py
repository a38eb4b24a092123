"""Smoke test: each script under scripts/ runs to completion at a small target."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs(script):
    proc = subprocess.run([sys.executable, str(script), "100"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "100" in proc.stdout
