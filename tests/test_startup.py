"""Start-up cost guards: what importing the CLI loads, and when it freezes the GC."""

import gc
import os
import pathlib
import subprocess
import sys

import ellseries
from ellseries import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: 7-11 ms of a
    # child's start-up, plus the decorations themselves
    probe = ("import sys, ellseries.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_gc_freeze_only_for_the_process_command_line(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1))
    argv = ["constant", "gamma-quarter", "--digits", "20"]
    assert cli.main(argv) == 0
    assert calls == []
    monkeypatch.setattr(sys, "argv", ["ellseries", *argv])
    assert cli.main() == 0
    assert calls == [1]
    capsys.readouterr()


def test_public_names_unchanged():
    assert ellseries.__all__ == [
        "BigReal", "PrecisionContext", "PrecisionError", "DomainError",
        "make_context", "to_decimal_string",
        "agm", "K_ref", "E_ref", "theta3", "b_quarter", "nome",
        "ModulusPair", "MultiplierResult", "PrintedFormComparison",
        "RootSelectionError", "solve_kr", "landen_up", "k100_closed_form",
        "chain_to_6400", "chain_printed_comparison", "eq2_residual",
        "multiplier", "k_scale_16", "k_scale_64", "k100_radical_coefficient",
        "ConvergenceReport", "SingularSeriesError",
        "SeriesConvergenceError", "legendre_P",
        "phi_and_derivative", "eval_series", "closed_form",
        "derivative_weighted_sum", "two_K_over_pi", "four_E_over_pi",
        "gamma_quarter_series",
        "CheckResult", "run_verify",
        "__version__",
    ]
