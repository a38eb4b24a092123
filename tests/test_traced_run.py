"""The benchmark's traced run: every name it wraps still resolves and records spans.

`perfbench/traced_cli.py` looks up each name in `spans.TRACED` and
`PrecisionContext.log10` with getattr, so a rename or deletion in the
package shows up here as a failed child rather than as a broken benchmark.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["constant", "gamma-quarter", "--digits", "50"],
    ["elliptic", "E", "--r", "4", "--digits", "50"],
])
def test_traced_cli_records_spans(argv):
    read_fd, write_fd = os.pipe()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(write_fd), "op",
         *argv, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(write_fd,), env=env,
        cwd=ROOT)
    os.close(write_fd)
    # the JSON report at 50 digits fits the stdout pipe's buffer, so the
    # child cannot block on it while the spans are read first
    with os.fdopen(read_fd) as f:
        spans_text = f.read()
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    spans = json.loads(spans_text)
    assert json.loads(out)["oracle_agreement_digits"] >= 45
    assert spans["op"] == "op"
    names = {span[0] for span in spans["spans"]}
    assert {"series.eval_series", "moduli.eq2_residual"} <= names
