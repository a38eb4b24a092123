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


def _ancestors(spans, span):
    """Names of the spans that enclose ``span``."""
    names = []
    while span[3] >= 0:
        span = spans[span[3]]
        names.append(span[0])
    return names


def _traced(argv):
    """(exit code, stdout, stderr, spans) of one traced CLI child.

    A span is (name, start, end, parent index, failed, n), as
    `perfbench/spans.py` records it.
    """
    read_fd, write_fd = os.pipe()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(write_fd), "op",
         *argv, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(write_fd,), env=env,
        cwd=ROOT)
    os.close(write_fd)
    # the JSON reports here (at most ~8 kB) fit the stdout pipe's buffer, so
    # the child cannot block on them while the spans are read first
    with os.fdopen(read_fd) as f:
        spans_text = f.read()
    out, err = proc.communicate(timeout=60)
    spans = json.loads(spans_text)
    assert spans["op"] == "op"
    return proc.returncode, out, err, spans["spans"]


@pytest.mark.parametrize("argv", [
    ["constant", "gamma-quarter", "--digits", "50"],
    ["elliptic", "E", "--r", "4", "--digits", "50"],
])
def test_traced_cli_records_spans(argv):
    code, out, err, spans = _traced(argv)
    assert code == 0, err
    assert json.loads(out)["oracle_agreement_digits"] >= 45
    headline = argv[0] == "constant"
    # every AGM loop is oracle.agm, so the tracer sees each one: the
    # headline's oracle runs agm(1, 1/sqrt(2)), and solve_kr's gate runs
    # agm(1, k') and agm(1, k), whose runs give E its side sum
    assert [span[0] for span in spans].count("oracle.agm") == (1 if headline else 2)
    # the headline's chain runs no defining-ratio gate; solve_kr runs one
    modulus_span = "moduli.chain_to_6400" if headline else "moduli.eq2_residual"
    assert "series.eval_series" in {span[0] for span in spans}
    stages = [span for span in spans if span[0] in (modulus_span, "oracle.agm")]
    assert {span[0] for span in stages} == {modulus_span, "oracle.agm"}
    # the CLI builds the chain or solves the pair and passes it to the
    # series, and reads the AGM oracle itself, so neither the modulus stage
    # nor an AGM is ever inside a series span
    for span in stages:
        enclosing = _ancestors(spans, span)
        assert "cli.main" in enclosing
        assert not any(name.startswith("series.") for name in enclosing)


def test_traced_verify_records_run_verify_spans():
    # the tracer wraps the ellseries modules loaded once it has imported
    # ellseries.cli; a verify that cli imported lazily would record no
    # verify.run_verify span
    code, out, err, spans = _traced(["verify", "--digits", "60", "--selection", "all"])
    assert code == 0, err
    assert json.loads(out)["passed"]
    assert "verify.run_verify" in {span[0] for span in spans}
    # every one of the 75 AGM loops of a 60-digit verify is traced
    assert [span[0] for span in spans].count("oracle.agm") == 75
