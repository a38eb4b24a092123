"""Outputs pinned to values recorded before a refactor: a change that should
keep every digit, term count and report byte-identical is checked here.

The fixtures under tests/data were written by an earlier commit, not by the
code under test, so regenerating them from this tree proves nothing.
"""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from ellseries import eval_series, make_context
from ellseries.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"


def eval_series_draws():
    """Seeded (mu, z, alpha, beta, digits, n_terms) for :func:`eval_series`.

    mu is a small rational, a float (as verify draws it) or a nonnegative
    integer, whose series terminates; the weights take either sign or 0.
    The fixture was recorded when eval_series could force a term count, and
    24 draws did; their rows are kept, so that the rng stream and the
    recorded rows stay as they were, and only the draws with n_terms None
    are compared.
    """
    rng = random.Random(0x60D)
    draws = []
    for i in range(60):
        shape = i % 4
        if shape == 0:
            mu = Fraction(rng.randint(-40, -1), rng.randint(1, 12))
        elif shape == 1:
            mu = Fraction(rng.uniform(-2.5, -0.05))
        elif shape == 2:
            mu = Fraction(rng.choice((-3, -1)), 2)
        else:
            mu = Fraction(rng.randint(0, 3)) if rng.random() < 0.3 else Fraction(
                rng.randint(-9, 9), rng.randint(1, 5))
        z = rng.uniform(0.005, 0.6)
        alpha = rng.choice((0, round(rng.uniform(-4, 4), 6)))
        beta = rng.choice((0, 1, round(rng.uniform(-3, 3), 6)))
        digits = rng.randint(20, 300)
        n_terms = rng.choice((None, None, None, rng.randint(1, 40), rng.randint(200, 3000)))
        draws.append((mu, z, alpha, beta, digits, n_terms))
    return draws


def eval_series_output(mu, z, alpha, beta, digits):
    """terms_used, the value's binary (mantissa, exponent), a digest of the
    error trace, and digits_per_term."""
    ctx = make_context(digits)
    value, report = eval_series(mu, z, ctx.mpf(alpha), ctx.mpf(beta), ctx)
    _, man, exp, _ = value._mpf_
    sign = -1 if value < 0 else 1
    trace = hashlib.sha256(repr(report.error_trace).encode()).hexdigest()
    return [report.terms_used, str(sign * int(man)), int(exp), trace,
            report.digits_per_term]


def test_eval_series_matches_recorded_outputs():
    recorded = json.loads((DATA / "eval_series_draws.json").read_text())
    draws = eval_series_draws()
    assert len(recorded) == len(draws)
    pairs = [(draw[:5], row) for draw, row in zip(draws, recorded) if draw[5] is None]
    assert len(pairs) == 36
    for draw, row in pairs:
        assert eval_series_output(*draw) == row, draw


def test_verify_json_matches_recorded_report(capsys):
    code = main(["verify", "--digits", "60", "--selection", "all", "--format", "json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    del got["elapsed_seconds"]
    assert got == json.loads((DATA / "verify_60.json").read_text())


def _strip_elapsed(report):
    if isinstance(report, list):
        return [_strip_elapsed(r) for r in report]
    return {k: v for k, v in report.items() if k != "elapsed_seconds"}


CLI_REPORTS = json.loads((DATA / "cli_reports.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_REPORTS))
def test_cli_json_matches_recorded_report(command, capsys):
    assert main([*command.split(), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert _strip_elapsed(got) == CLI_REPORTS[command]


PERFBENCH_OUTPUTS = json.loads((DATA / "perfbench_outputs.json").read_text())


def test_perfbench_argv_match_recorded_outputs(capsys):
    # every distinct argv of the benchmark's seeds 1 and 2: the exit code and
    # a digest of the JSON report with its elapsed_seconds left out
    assert len(PERFBENCH_OUTPUTS) == 67
    for argv, recorded in PERFBENCH_OUTPUTS.items():
        code = main(argv.split())
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert {"exit_code": code, "sha256": digest} == recorded, argv


def test_headline_at_50k_digits_matches_recorded_digest(capsys):
    # the AGM's square roots switch kernels at about 17,750 digits, past
    # every other recorded output; recorded before any kernel work
    assert main(["constant", "gamma-quarter", "--digits", "50000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["terms_used"], doc["oracle_agreement_digits"]) == (473, 51000)
    assert hashlib.sha256(doc["value_digits"].encode()).hexdigest() == (
        "9a52eb1ea75c5ab1fbf0358d2c964b7a033f374668d8025039852727ffb0374a")
