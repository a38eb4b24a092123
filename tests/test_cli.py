"""CLI surface: grammar, exit codes, JSON schema, determinism, truncation."""

import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellseries.cli import main

SCHEMA_KEYS = {"command", "target_digits", "value_digits", "terms_used",
               "digits_per_term", "oracle_agreement_digits",
               "elapsed_seconds", "warnings"}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# argv -> exit code: 0 success, 1 usage, 2 precision/domain, 3 verification
EXIT_CODES = [
    pytest.param(["frobnicate"], 1, id="unknown-subcommand"),
    pytest.param(["elliptic", "K", "--r", "abc", "--digits", "50"], 1, id="malformed-r"),
    pytest.param(["elliptic", "K", "--r", "0", "--digits", "50"], 2, id="nonpositive-r"),
    pytest.param(["verify", "--digits", "5"], 2, id="verify-low-digits"),
    # past cli.VERIFY_MAX_DIGITS; 100k digits projects to about an hour
    pytest.param(["verify", "--digits", "100000"], 2, id="verify-above-ceiling"),
    pytest.param(["verify", "--digits", "60", "--selection", "bogus"], 1,
                 id="verify-bad-selection"),
    # an empty selection verifies nothing, so it must not report a pass
    pytest.param(["verify", "--digits", "60", "--selection", ","], 1,
                 id="verify-empty-selection"),
    pytest.param(["bench", "--digits", "50"], 2, id="bench-low-digits"),
    # `constant` takes no --terms: a sum ends only at its stop rule
    pytest.param(["constant", "gamma-quarter", "--digits", "30", "--terms", "100000000"], 1,
                 id="terms-above-ceiling"),
    pytest.param(["constant", "gamma-quarter", "--digits", "1000", "--terms", "2"], 1,
                 id="terms-too-few"),
    pytest.param(["elliptic", "K", "--r", "1/100", "--digits", "50", "--method", "agm"], 0,
                 id="agm-small-r"),
    pytest.param(["elliptic", "K", "--r", "1000000", "--digits", "50"], 0, id="large-r"),
    pytest.param(["elliptic", "K", "--r", "10000000000", "--digits", "50"], 2,
                 id="r-out-of-range"),
    # the series would need ~1e7 terms; it used to sum 2,000,000 of them
    # for ~40 s before failing
    pytest.param(["elliptic", "K", "--r", "1/20", "--digits", "50"], 3,
                 id="series-too-slow"),
    # k_r^2 rounds to 1 at 50 digits; it used to exit 2 from the z < 1 check
    pytest.param(["elliptic", "K", "--r", "1/5000000000", "--digits", "50"], 3,
                 id="series-z-rounds-to-1"),
    # rejected before any mpmath context is built; it used to run until killed
    pytest.param(["constant", "gamma-quarter", "--digits", "99999999999999999999"], 2,
                 id="digits-above-ceiling"),
    # checked for every target before the 50k rows run (~20 s)
    pytest.param(["bench", "--digits", "50000,500000"], 2, id="bench-above-ceiling"),
    # past cli.MAX_DIGITS, so refused on the number typed, before any
    # context is built
    pytest.param(["elliptic", "K", "--r", "100", "--digits", "399999"], 2,
                 id="elliptic-above-max-digits"),
    pytest.param(["constant", "gamma-quarter", "--digits", "399999"], 2,
                 id="constant-above-max-digits"),
]


@pytest.mark.parametrize("argv, expected", EXIT_CODES)
def test_exit_code(capsys, argv, expected):
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - t0 < 5
    assert code == expected
    assert "Traceback" not in err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
    # every usage error is argparse's block; every other failure is one line
    if code == 1:
        assert err.startswith("usage: ") and re.search(r"^ellseries.*: error: ", err, re.M)
    elif code:
        assert err.count("\n") == 1 and err.startswith("ellseries: ")


def test_constant_text(capsys):
    code, out, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "50"])
    assert code == 0
    assert "2.3606811980321924520906758811169771744674332697628" in out


def test_constant_json_schema(capsys):
    code, out, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "60",
                                 "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep.keys()) == SCHEMA_KEYS
    assert rep["target_digits"] == 60
    assert rep["oracle_agreement_digits"] >= 55
    assert len(rep["value_digits"].replace(".", "").lstrip("-")) == 60
    assert rep["warnings"]


def test_constant_deterministic(capsys):
    _, out1, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "40",
                               "--format", "json"])
    _, out2, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "40",
                               "--format", "json"])
    assert json.loads(out1)["value_digits"] == json.loads(out2)["value_digits"]


def test_constant_prefix_stability(capsys):
    _, out1, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "40",
                               "--format", "json"])
    _, out2, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "90",
                               "--format", "json"])
    v40 = json.loads(out1)["value_digits"]
    v90 = json.loads(out2)["value_digits"]
    assert v90.startswith(v40)


def test_constant_unknown_name_is_usage_error(capsys):
    code, _, err = _run(capsys, ["constant", "bogus", "--digits", "50"])
    assert code == 1
    assert "invalid choice" in err


def test_constant_low_digits_is_precision_error(capsys):
    code, _, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "5"])
    assert code == 2
    assert "precision too low" in err


def test_elliptic_both_methods_agree(capsys):
    code, out, _ = _run(capsys, ["elliptic", "K", "--r", "4", "--digits", "80",
                                 "--method", "both", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep.keys()) == SCHEMA_KEYS
    assert rep["oracle_agreement_digits"] >= 75
    assert rep["value_digits"].startswith("1.5825517272237159")


def test_elliptic_E(capsys):
    code, out, _ = _run(capsys, ["elliptic", "E", "--r", "2", "--digits", "60",
                                 "--method", "both", "--format", "json"])
    assert code == 0
    assert json.loads(out)["oracle_agreement_digits"] >= 55


def test_elliptic_rational_r(capsys):
    code, out, _ = _run(capsys, ["elliptic", "K", "--r", "1/4", "--digits", "40",
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["oracle_agreement_digits"] >= 35


def test_elliptic_agm_method_at_r1(capsys):
    code, out, _ = _run(capsys, ["elliptic", "K", "--r", "1", "--digits", "50",
                                 "--method", "agm", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value_digits"].startswith("1.854074677301371918")


def _patch_agm_loop(monkeypatch, replacement):
    """Put ``replacement(loop)`` in place of the one AGM loop, oracle._agm,
    in every ellseries module that binds it."""
    from ellseries import oracle
    loop = oracle._agm
    patched = replacement(loop)
    for name, m in list(sys.modules.items()):
        if name == "ellseries" or name.startswith("ellseries."):
            for attr, value in list(vars(m).items()):
                if value is loop:
                    monkeypatch.setattr(m, attr, patched)


def _count_agm_loops(monkeypatch):
    """Count runs of the one AGM loop, oracle._agm, and reads of a run's side
    sum (E's)."""
    from ellseries import oracle
    counts = {"_agm": 0, "side_sum": 0}
    side_sum = oracle.AGMRun.side_sum

    def counted(loop):
        def counted_loop(*args, **kwargs):
            counts["_agm"] += 1
            return loop(*args, **kwargs)
        return counted_loop

    def counted_side_sum(*args, **kwargs):
        counts["side_sum"] += 1
        return side_sum(*args, **kwargs)

    _patch_agm_loop(monkeypatch, counted)
    monkeypatch.setattr(oracle.AGMRun, "side_sum", counted_side_sum)
    return counts


# the solve_kr gate runs agm(1, k') and agm(1, k); the pair keeps the
# agm(1, k') run for K and for E, whose side sum reads that run's iterates
# without another loop; agm checks K by theta3, with no AGM, and E by
# Legendre's relation, which reads the side sum of one more agm(1, k)
@pytest.mark.parametrize("kind, method, loops, side_sums", [
    ("K", "both", 2, 0), ("E", "both", 2, 1), ("K", "agm", 2, 0), ("E", "agm", 3, 2)])
def test_elliptic_runs_each_agm_once(capsys, monkeypatch, kind, method, loops, side_sums):
    counts = _count_agm_loops(monkeypatch)
    code, _, _ = _run(capsys, ["elliptic", kind, "--r", "4", "--digits", "100",
                               "--method", method, "--format", "json"])
    assert code == 0
    assert counts == {"_agm": loops, "side_sum": side_sums}


def test_constant_runs_one_agm(capsys, monkeypatch):
    # the oracle's agm(1, 1/sqrt(2)); the closed-form k_100 pair runs no
    # defining-ratio gate
    counts = _count_agm_loops(monkeypatch)
    code, _, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "1000",
                               "--format", "json"])
    assert code == 0
    assert counts == {"_agm": 1, "side_sum": 0}


def _perturb_p_radical(monkeypatch, digits):
    """Scale the k_100 surd p of moduli._p_radical by 1 + 10^-digits."""
    from ellseries import moduli
    p_radical = moduli._p_radical
    monkeypatch.setattr(moduli, "_p_radical",
                        lambda ctx: p_radical(ctx) * (1 + ctx.tol(digits)))


def test_constant_off_its_oracle_exits_3(capsys, monkeypatch):
    _perturb_p_radical(monkeypatch, 150)
    code, out, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "300"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ellseries: verification failure: constant gamma-quarter "
                          "does not match its oracle")


def test_constant_backed_to_one_digit_short_exits_3(capsys, monkeypatch):
    # the value is right, but its oracle backs only target - 1 digits: the
    # last printed digit would be unbacked, so the report is refused
    from ellseries import cli
    headline = cli._headline

    def one_short(ctx):
        value, report, _ = headline(ctx)
        return value, report, ctx.target_digits - 1

    monkeypatch.setattr(cli, "_headline", one_short)
    code, out, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "100"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ellseries: verification failure: constant gamma-quarter "
                          "does not match its oracle")


def test_verify_reports_a_wrong_chain_as_failed_rows(capsys, monkeypatch):
    # nothing in the chain or the headline raises, so each row is built and
    # the ones that test k_100 or the constant fail
    _perturb_p_radical(monkeypatch, 30)
    code, out, err = _run(capsys, ["verify", "--digits", "60", "--selection", "chain,series",
                                   "--format", "json"])
    assert code == 3 and err == ""
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert {"stage-defining-ratios", "headline-vs-oracle", "normalization-derived"} <= failed


def test_elliptic_series_off_its_oracle_exits_3(capsys, monkeypatch):
    from ellseries import series
    eval_series = series.eval_series

    def scaled(mu, z, alpha, beta, ctx):
        value, report = eval_series(mu, z, alpha, beta, ctx)
        return value * (1 + ctx.tol(30)), report

    monkeypatch.setattr(series, "eval_series", scaled)
    code, out, err = _run(capsys, ["elliptic", "K", "--r", "4", "--digits", "60"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ellseries: verification failure: elliptic K r=4 method=both "
                          "does not match its oracle")


@pytest.mark.parametrize("kind", ["K", "E"])
def test_elliptic_agm_off_its_check_exits_3(capsys, monkeypatch, kind):
    # the agm method's check is theta3 for K and Legendre's relation for E:
    # move the pair's K or E and leave the check as it is
    from ellseries import moduli
    solve_kr = moduli.solve_kr

    def off(r, ctx):
        pair = solve_kr(r, ctx)
        pair.__dict__[kind] = getattr(pair, kind) * (1 + ctx.tol(150))
        return pair

    monkeypatch.setattr(moduli, "solve_kr", off)
    code, out, err = _run(capsys, ["elliptic", kind, "--r", "3", "--digits", "300",
                                   "--method", "agm"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"ellseries: verification failure: elliptic {kind} r=3 method=agm "
                          "does not match its oracle")


# the gate's tightest known margin: near k = 1, AGMRun.E forms K (1 - S)
# with S ~ 1, which loses log10 K(k_r) ~ 5 digits, so agreement reads
# target + 5 at 200 and 300 digits
@pytest.mark.parametrize("r", ["1/5000000000", "1/5370000000"])
@pytest.mark.parametrize("digits", [50, 100, 200, 300])
def test_agm_E_near_k_one_keeps_a_digit_past_the_target(capsys, r, digits):
    code, out, _ = _run(capsys, ["elliptic", "E", "--r", r, "--digits", str(digits),
                                 "--method", "agm", "--format", "json"])
    assert code == 0
    assert json.loads(out)["oracle_agreement_digits"] >= digits + 1


# every report refuses an AGM scaled by 1 + 10^-30: the agm method's value
# fails its theta3 (K) or Legendre (E) check, and the headline and the
# series fail the AGM oracle they are checked against
@pytest.mark.parametrize("argv", [
    *(["elliptic", kind, "--r", r, "--digits", "60", "--method", "agm"]
      for kind in "KE" for r in ("3", "1/7")),
    ["constant", "gamma-quarter", "--digits", "60"],
    ["elliptic", "K", "--r", "3", "--digits", "60", "--method", "both"]],
    ids=" ".join)
def test_agm_method_catches_a_scaled_agm(capsys, monkeypatch, argv):
    def scaled(loop):
        def scaled_loop(a, b, ctx):
            run = loop(a, b, ctx)
            run.value *= 1 + ctx.tol(30)
            return run
        return scaled_loop

    _patch_agm_loop(monkeypatch, scaled)
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ellseries: verification failure: ")


def test_bench_off_its_oracle_exits_3(capsys, monkeypatch):
    _perturb_p_radical(monkeypatch, 150)
    code, out, err = _run(capsys, ["bench", "--digits", "300"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("ellseries: verification failure: bench gamma-quarter "
                          "does not match its oracle")


# one ceiling on the --digits typed, checked before any pair is solved or
# chain built, whatever contexts above the target the command then builds
@pytest.mark.parametrize("digits, expected", [(3000, 0), (3001, 2)])
@pytest.mark.parametrize("argv", [
    pytest.param(["constant", "gamma-quarter", "--digits", "{}"], id="constant"),
    pytest.param(["elliptic", "K", "--r", "2", "--digits", "{}", "--method", "agm"],
                 id="elliptic-K-agm"),
    pytest.param(["elliptic", "E", "--r", "100", "--digits", "{}", "--method", "both"],
                 id="elliptic-E-both"),
    pytest.param(["bench", "--digits", "2000,{}", "--format", "json"], id="bench"),
])
def test_one_digits_ceiling(capsys, monkeypatch, argv, digits, expected):
    from ellseries import cli as cli_mod, moduli
    monkeypatch.setattr(cli_mod, "MAX_DIGITS", 3000)
    calls = []
    for name in ("solve_kr", "chain_to_6400"):
        def recorded(*args, _f=getattr(moduli, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(moduli, name, recorded)
    code, out, err = _run(capsys, [a.format(digits) for a in argv])
    assert code == expected
    if expected:
        assert out == "" and calls == []
        assert err == "ellseries: --digits 3001 is above the ceiling of 3000\n"
    else:
        assert out and err == "" and calls


@pytest.mark.parametrize("kind", ["K", "E"])
def test_elliptic_series_and_both_report_alike(capsys, kind):
    reports = {}
    for method in ("series", "both"):
        code, out, _ = _run(capsys, ["elliptic", kind, "--r", "4", "--digits", "100",
                                     "--method", method, "--format", "json"])
        assert code == 0
        rep = json.loads(out)
        del rep["command"], rep["elapsed_seconds"]
        reports[method] = rep
    assert reports["series"] == reports["both"]


R1_PREFIX = {"K": "1.854074677301371918433850347195", "E": "1.350643881047675502520"}


@pytest.mark.parametrize("method", ["series", "both"])
@pytest.mark.parametrize("kind", ["K", "E"])
def test_elliptic_series_at_r1(capsys, kind, method):
    # k_1^2 = 1/2: the series weights have no denominator to vanish there
    code, out, err = _run(capsys, ["elliptic", kind, "--r", "1", "--digits", "50",
                                   "--method", method, "--format", "json"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["value_digits"].startswith(R1_PREFIX[kind])
    assert rep["oracle_agreement_digits"] >= 45


def test_elliptic_series_at_small_r_hints_agm(capsys):
    code, out, err = _run(capsys, ["elliptic", "K", "--r", "1/100", "--digits", "50"])
    assert code == 3 and out == ""
    assert "--method agm" in err


def test_elliptic_zero_denominator_r_is_usage_error(capsys):
    code, _, err = _run(capsys, ["elliptic", "K", "--r", "1/0", "--digits", "50"])
    assert code == 1
    assert "--r" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_constant_nonpositive_terms_is_usage_error(capsys, terms):
    # --terms is no option of `constant`, whatever its value
    code, out, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "50",
                                   "--terms", terms])
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ") and "unrecognized arguments: --terms" in err
    assert "Traceback" not in err


def test_constant_past_the_int_str_limit(capsys):
    # 5000 digits exceed CPython's default 4300-digit int->str limit
    code, out1, err = _run(capsys, ["constant", "gamma-quarter", "--digits", "5000",
                                    "--format", "json"])
    assert code == 0, err
    _, out2, _ = _run(capsys, ["constant", "gamma-quarter", "--digits", "5100",
                               "--format", "json"])
    v5000 = json.loads(out1)["value_digits"]
    assert len(v5000) == 5001
    assert json.loads(out2)["value_digits"].startswith(v5000)


def test_verify_small_selection(capsys):
    code, out, _ = _run(capsys, ["verify", "--digits", "60",
                                 "--selection", "oracle"])
    assert code == 0
    assert "[PASS]" in out
    assert "FAIL" not in out


def test_verify_summary_times_to_the_millisecond(capsys):
    # a run under 50 ms used to read "in 0.0 s"
    code, out, _ = _run(capsys, ["verify", "--digits", "60", "--selection", "oracle"])
    assert code == 0
    assert re.search(r"checks passed at 60 digits in \d+\.\d{3} s$", out, re.M)


def test_verify_json(capsys):
    from ellseries.verify import GROUPS

    code, out, _ = _run(capsys, ["verify", "--digits", "60",
                                 "--selection", "chain,oracle", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert all({"name", "group", "passed", "residual_digits", "detail"}
               <= set(c.keys()) for c in rep["checks"])
    # rows come in report order, whatever the order of the selection
    assert GROUPS == ("oracle", "moduli", "series", "chain")
    groups = [c["group"] for c in rep["checks"]]
    n_oracle = groups.count("oracle")
    assert 0 < n_oracle < len(groups)
    assert groups == ["oracle"] * n_oracle + ["chain"] * (len(groups) - n_oracle)


def test_verify_selection_parts_are_stripped(capsys):
    code, out, _ = _run(capsys, ["verify", "--digits", "60",
                                 "--selection", " oracle , chain ", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["selection"] == ["oracle", "chain"]
    assert rep["checks"] and {c["group"] for c in rep["checks"]} <= {"oracle", "chain"}


def test_verify_failure_exit_code(capsys, monkeypatch):
    import ellseries.cli as cli_mod
    from ellseries.verify import CheckResult

    def fake_run_verify(digits, selection):
        return [CheckResult(name="forced-failure", group="oracle", passed=False,
                            detail="synthetic", residual_digits=1.5)]

    monkeypatch.setattr(cli_mod, "run_verify", fake_run_verify)
    code, out, _ = _run(capsys, ["verify", "--digits", "60"])
    assert code == 3
    assert "[FAIL]" in out
    assert "worst residual" in out


def test_bench_json(capsys):
    code, out, _ = _run(capsys, ["bench", "--digits", "150", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    for row in rows:
        assert set(row.keys()) == SCHEMA_KEYS
    assert rows[0]["command"] == "bench gamma-quarter"
    assert rows[1]["command"] == "bench two-K-over-pi(r=100)"
    assert rows[1]["digits_per_term"] == pytest.approx(12.44, abs=0.3)
    assert rows[2]["command"] == "bench four-E-over-pi(r=100)"
    assert rows[2]["digits_per_term"] == pytest.approx(12.44, abs=0.3)


def test_bench_skips_empty_digits_parts(capsys):
    code, out, _ = _run(capsys, ["bench", "--digits", "100,,150", "--format", "json"])
    assert code == 0
    assert [row["target_digits"] for row in json.loads(out)] == [100] * 3 + [150] * 3


def _mpmath_reference(kind, r, digits):
    """K or E at k_r from mpmath alone, at m = (theta2/theta3)^4, q = e^(-pi sqrt(s)).

    s = max(r, 1/r).  For r < 1, k_r = k'_s (Borwein & Borwein, ch. 1), so
    K(k_r) = sqrt(s) K(k_s), and Legendre's relation gives
    E(k_r) = pi/(2 K(k_s)) + sqrt(s) (K(k_s) - E(k_s)): m_s is small, where
    m = k_r^2 would sit within ~1e-192000 of 1 at r = 1/5e9.  The extra
    log10(s) digits cover the factor sqrt(s) on K - E's absolute error.
    """
    s = max(r, 1 / r)
    mp = mpmath.MPContext()
    mp.dps = digits + 10 + int(math.log10(s))
    sqrt_s = mp.sqrt(mp.mpf(s.numerator) / s.denominator)
    q = mp.exp(-mp.pi * sqrt_s)
    m = (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 4
    big_k, big_e = mp.ellipk(m), mp.ellipe(m)
    if r >= 1:
        return mp, big_k if kind == "K" else big_e
    if kind == "K":
        return mp, sqrt_s * big_k
    return mp, mp.pi / (2 * big_k) + sqrt_s * (big_k - big_e)


@settings(deadline=None, max_examples=40)
@given(log10_r=st.floats(min_value=-4, max_value=6),
       kind=st.sampled_from(["K", "E"]),
       digits=st.integers(min_value=10, max_value=2000),
       delta=st.integers(min_value=1, max_value=200))
@example(log10_r=-2.0, kind="K", digits=50, delta=10)
@example(log10_r=6.0, kind="K", digits=50, delta=10)
# k_r near 1: K must come from the pair's k', not from sqrt(1 - k^2)
@example(log10_r=-4.0, kind="K", digits=50, delta=10)
@example(log10_r=-math.log10(3000), kind="K", digits=1000, delta=200)
# E from the pair's exact k': 1 - sum cancels ~5 digits at r = 1/5e9, and
# at r = 1/1000 E - 1 ~ 1e-84 is under the rounding error, yet must not read 0.999...
@example(log10_r=-3.0, kind="E", digits=10, delta=1)
@example(log10_r=-math.log10(5e9), kind="E", digits=300, delta=10)
@example(log10_r=-math.log10(200), kind="E", digits=1000, delta=37)
def test_elliptic_digits_are_prefixes_and_match_mpmath(log10_r, kind, digits, delta):
    # denominators to 1e10 hold 1/5e9 exactly
    r = Fraction(10 ** log10_r).limit_denominator(10 ** 10)
    mp, ref = _mpmath_reference(kind, r, digits + delta)
    for method in ["agm", "both"] if r >= 2 else ["agm"]:
        values = []
        for d in (digits, digits + delta):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["elliptic", kind, "--r", str(r), "--digits", str(d),
                             "--method", method, "--format", "json"])
            assert code == 0, err.getvalue()
            value = json.loads(out.getvalue())["value_digits"]
            assert abs(mp.mpf(value) - ref) <= abs(ref) * mp.mpf(10) ** (5 - d)
            values.append(value)
        assert values[1].startswith(values[0])


def _json_report(capsys, cmd):
    code, out, err = _run(capsys, cmd.split() + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


# argv -> terms_used: every reported digit and the term count are pinned, so
# a change that moves a last digit or a stopping point fails here
EXACT_ROWS = [
    ("elliptic K --r 82 --digits 1500", 138),
    ("elliptic E --r 82 --digits 1500", 138),
    ("elliptic K --r 19/3 --digits 500", 229),
    ("elliptic E --r 19/3 --digits 300", 140),
    ("elliptic K --r 5701 --digits 1000", 11),
    ("elliptic K --r 500000 --digits 100", 1),
    ("elliptic K --r 1/7 --method agm --digits 300", 0),
    ("elliptic K --r 1/150 --method agm --digits 300", 0),
    ("elliptic E --r 1/3 --method agm --digits 300", 0),
    ("elliptic E --r 1 --digits 300", 1030),
    ("constant gamma-quarter --digits 1000", 10),
    ("constant gamma-quarter --digits 3000", 29),
]


@pytest.mark.parametrize("cmd, terms", EXACT_ROWS)
def test_exact_digits_and_term_count(capsys, cmd, terms):
    rep = _json_report(capsys, cmd)
    argv = cmd.split()
    digits = int(argv[argv.index("--digits") + 1])
    if argv[0] == "constant":
        # Gamma(1/4)^2/pi^(3/2) = 2/agm(1, 1/sqrt(2))
        mp = mpmath.MPContext()
        mp.dps = digits + 30
        ref = 2 / mp.agm(1, 1 / mp.sqrt(2))
    else:
        mp, ref = _mpmath_reference(argv[1], Fraction(argv[3]), digits + 20)
    # every value is above 1, so the point falls inside the first digits + 1 characters
    assert rep["value_digits"] == mp.nstr(ref, digits + 20, strip_zeros=False)[:digits + 1]
    assert rep["terms_used"] == terms


@pytest.mark.parametrize("cmd, digits", [
    ("constant gamma-quarter", 5000),
    ("constant gamma-quarter", 12000),
    ("constant gamma-quarter", 20000),
    ("elliptic K --r 100", 5000),
    ("elliptic K --r 100", 12000),
    ("elliptic K --r 100", 20000),
    ("elliptic E --r 4", 5000),
])
def test_digits_are_prefixes_to_20k(capsys, cmd, digits):
    short = _json_report(capsys, f"{cmd} --digits {digits}")["value_digits"]
    long = _json_report(capsys, f"{cmd} --digits {digits + 37}")["value_digits"]
    assert len(short) == digits + 1
    assert long.startswith(short)


def test_closed_stdout_pipe_exits_without_traceback():
    # ~90 kB of JSON overfills the pipe, so the child is still writing when
    # the reader closes it (the `ellseries bench | head -1` case)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ellseries", "bench", "--digits", ",".join(["100"] * 100),
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
