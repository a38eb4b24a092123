"""The CLI contract over seeded random argv: exit codes, streams and the oracle gate.

Every argv either succeeds, printing reports whose oracle agreement is at
least target + 1 digits, or exits 1 (usage), 2 (domain/precision) or 3
(verification) with an empty stdout.  Every usage error (exit 1) prints
argparse's usage block and an ``error:`` line on stderr, a bad
``--selection`` or ``bench --digits`` list included; exits 2 and 3 print
exactly one ``ellseries:`` line.  No argv prints a traceback.
``constant`` has no ``--terms`` option; argv that pass one still are drawn,
and must be refused with the usage exit, not run with the option ignored.
The draws come from a fixed seed, so every run sees the same argv.  Valid
``--digits`` are capped at 300 (``verify`` at 60) only for run time; every
floor, and values past every ceiling, stay in the grammar, because those
are rejected before any work.
"""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from ellseries.cli import main
from ellseries.verify import GROUPS

N_DRAWS = 400
DIGITS_CAP = 300
VERIFY_DIGITS_CAP = 60

# floors, values past the ceilings (cli.MAX_DIGITS = 392,000 and
# cli.VERIFY_MAX_DIGITS = 64,000), and malformed values
DIGIT_EDGES = ["9", "10", "0", "-5", "abc", "1e3", "", "399999", "400000", "400001",
               "99999999999999999999"]
VERIFY_DIGIT_EDGES = ["10", "49", "50", "64001", "100000", "abc"]
BENCH_DIGIT_EDGES = ["99", "100", "", ",", "abc", "100,x", "100,,150", "399999", "400001",
                     "100,500000"]
TERMS = ["1", "1", "2", "2", "3", "4", "12", "2000000", "0", "-1", "2000001", "x"]
# r = 1/20 and 1/5e9: the series cannot converge (exit 3, "use --method agm")
R_EDGES = ["0", "-2", "abc", "1/0", "3/-4", "1e-400", "nan", "1_000", "10000000000",
           "5000000000", "1/5000000000", "1/20", "1"]
SELECTION_EDGES = ["all", "", ",", "bogus", "oracle,bogus", " oracle , chain "]
MALFORMED = [[], ["frobnicate"], ["constant"], ["elliptic", "K"], ["--digits", "50"],
             ["bench", "--digits"], ["verify", "--selection"]]


def _digits(rng, lo, cap, edges):
    return str(rng.randint(lo, cap)) if rng.random() < 0.7 else rng.choice(edges)


def _format(rng):
    fmt = rng.choice(["json"] * 6 + ["text"] * 2 + ["bogus", None])
    return [] if fmt is None else ["--format", fmt]


def _r(rng):
    u = rng.random()
    if u < 0.35:
        return str(round(10 ** rng.uniform(0, 6)))
    if u < 0.55:  # 1/3 < r < 10, where the series converges at every r
        q = rng.randint(2, 12)
        return str(Fraction(rng.randint(q // 3 + 1, 10 * q - 1), q))
    if u < 0.75:  # 1/r > 50: the series is past its term ceiling at once
        return f"1/{round(10 ** rng.uniform(1.7, 9.7))}"
    return rng.choice(R_EDGES)


def _argv(rng):
    u = rng.random()
    if u < 0.3:
        argv = ["constant", rng.choice(["gamma-quarter"] * 8 + ["bogus"]),
                "--digits", _digits(rng, 10, DIGITS_CAP, DIGIT_EDGES)]
        if rng.random() < 0.4:
            argv += ["--terms", rng.choice(TERMS)]
    elif u < 0.65:
        argv = ["elliptic", rng.choice(["K", "E"] * 4 + ["F"])]
        if rng.random() < 0.95:
            argv += ["--r", _r(rng)]
        argv += ["--digits", _digits(rng, 10, DIGITS_CAP, DIGIT_EDGES)]
        if rng.random() < 0.8:
            argv += ["--method", rng.choice(["both", "series", "agm"] * 3 + ["bogus"])]
    elif u < 0.75:
        selection = (",".join(rng.sample(GROUPS, rng.randint(1, len(GROUPS))))
                     if rng.random() < 0.6 else rng.choice(SELECTION_EDGES))
        argv = ["verify", "--digits", _digits(rng, 50, VERIFY_DIGITS_CAP, VERIFY_DIGIT_EDGES),
                "--selection", selection]
    elif u < 0.9:
        digits = (",".join(str(rng.randint(100, DIGITS_CAP)) for _ in range(rng.randint(1, 2)))
                  if rng.random() < 0.6 else rng.choice(BENCH_DIGIT_EDGES))
        argv = ["bench", "--digits", digits]
    else:
        return list(rng.choice(MALFORMED))
    return argv + _format(rng)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _opt(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _check_reports(argv, out):
    """Each report of a successful run agrees with its oracle to target + 1 digits."""
    if _opt(argv, "--format") == "json":
        doc = json.loads(out)
        if argv[0] == "verify":
            assert doc["passed"] is True
            return
        reports = doc if isinstance(doc, list) else [doc]
        pairs = [(rep["target_digits"], rep["oracle_agreement_digits"]) for rep in reports]
    elif argv[0] == "verify":
        passed, total = re.search(r"(\d+)/(\d+) checks passed", out).groups()
        assert passed == total
        return
    else:
        pairs = list(zip(map(int, re.findall(r"target digits:\s+(\d+)", out)),
                         map(int, re.findall(r"oracle agreement:\s+(\d+) digits", out))))
    assert pairs
    for target, agreement in pairs:
        assert agreement >= target + 1


def _check_exit_3(argv, err):
    """Exit 3 only where an elliptic series cannot converge."""
    assert argv[0] == "elliptic"
    assert _opt(argv, "--method") != "agm" and Fraction(_opt(argv, "--r")) < 1
    assert "use --method agm" in err


def test_cli_contract_over_seeded_argv():
    rng = random.Random(0xE115)
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    prefix_checks = 0
    for _ in range(N_DRAWS):
        argv = _argv(rng)
        code, out, err = _run(argv)
        assert code in codes, (argv, code, err)
        codes[code] += 1
        assert "Traceback" not in out + err, argv
        if "--terms" in argv:
            assert code == 1 and err.startswith("usage: "), (argv, err)
        if code:
            assert out == "", argv
            if code == 1:
                assert err.startswith("usage: "), (argv, err)
                assert re.search(r"^ellseries.*: error: ", err, re.M), (argv, err)
            else:
                assert err.count("\n") == 1 and err.startswith("ellseries: "), (argv, err)
            if code == 3:
                _check_exit_3(argv, err)
            continue
        assert err == "", argv
        _check_reports(argv, out)
        # a run at more digits prints the same digits first
        if (argv[0] in ("constant", "elliptic") and _opt(argv, "--format") == "json"
                and rng.random() < 0.3):
            wider = list(argv)
            wider[argv.index("--digits") + 1] = str(int(_opt(argv, "--digits"))
                                                    + rng.randint(1, 10))
            code_w, out_w, err_w = _run(wider)
            assert code_w == 0, (wider, err_w)
            assert json.loads(out_w)["value_digits"].startswith(json.loads(out)["value_digits"])
            prefix_checks += 1
    # the grammar reaches every outcome
    assert all(codes.values()) and prefix_checks, (codes, prefix_checks)
