"""Start-up cost guards: what importing the package and the CLI loads, and when
the CLI freezes the GC."""

import gc
import os
import pathlib
import subprocess
import sys

import ellseries
from ellseries import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _child(probe: str) -> str:
    """Stdout of `probe` run in a fresh interpreter that imports nothing beforehand."""
    return subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: 7-11 ms of a
    # child's start-up, plus the decorations themselves
    out = _child("import sys, ellseries.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[]"


# The package namespace is lazy: a submodule is imported on the first read
# of one of its public names.
def test_package_import_loads_no_submodule():
    out = _child("import sys, ellseries; print(sorted(m for m in sys.modules "
                 "if m.startswith('ellseries.') or m.split('.')[0] == 'mpmath'))")
    assert out == "[]"


def test_make_context_loads_precision_only():
    # fractions pulls in decimal: about 3 ms that a context does not need
    out = _child("import sys, ellseries; ellseries.make_context(100); "
                 "print(sorted(m for m in sys.modules if m.startswith('ellseries.') "
                 "or m in ('fractions', 'decimal')))")
    assert out == "['ellseries.precision']"


def test_public_names_are_their_home_objects():
    out = _child(
        "import importlib, ellseries\n"
        "for name in ellseries.__all__:\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    home = importlib.import_module('ellseries.' + ellseries._HOMES[name])\n"
        "    assert getattr(ellseries, name) is getattr(home, name), name\n"
        "    assert vars(ellseries)[name] is getattr(home, name), name\n"
        "print('ok')")
    assert out == "ok"


def test_public_names_live_in_their_home_modules():
    # the identity test above also passes for a name filed under a module that
    # only re-exports it, and reading that name would import the module for
    # nothing
    out = _child(
        "import ellseries\n"
        "checked = 0\n"
        "for name, home in ellseries._HOMES.items():\n"
        "    if name == 'BigReal':  # an alias of typing.Any\n"
        "        continue\n"
        "    module = getattr(ellseries, name).__module__\n"
        "    assert module == 'ellseries.' + home, (name, module)\n"
        "    checked += 1\n"
        "print(checked)")
    assert out == str(len(ellseries.__all__) - 2)


def test_submodule_reads_import_the_submodule():
    # `import ellseries` used to bind each submodule it imported eagerly
    out = _child("import sys, ellseries; ellseries.series.eval_series; "
                 "print(ellseries.series is sys.modules['ellseries.series'], "
                 "'import_module' in dir(ellseries))")
    assert out == "True False"


def test_dir_lists_the_public_names():
    out = _child("import ellseries; "
                 "print(sorted(set(ellseries.__all__) - set(dir(ellseries))))")
    assert out == "[]"


def test_unknown_name_raises_attribute_error():
    out = _child("import ellseries\n"
                 "try:\n"
                 "    ellseries.no_such_name\n"
                 "except AttributeError as e:\n"
                 "    print(e)")
    assert out == "module 'ellseries' has no attribute 'no_such_name'"


def test_star_import_binds_every_public_name():
    out = _child("from ellseries import *\n"
                 "import ellseries\n"
                 "print(sorted(set(ellseries.__all__) - set(globals())))")
    assert out == "[]"


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
