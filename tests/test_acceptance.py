"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ellseries import (E_ref, K_ref, b_quarter,
                       chain_to_6400, closed_form, derivative_weighted_sum,
                       eq2_residual, four_E_over_pi, gamma_quarter_series,
                       k100_closed_form, k100_radical_coefficient,
                       k_scale_16, k_scale_64, landen_up,
                       make_context, multiplier, nome, phi_and_derivative,
                       solve_kr, theta3, two_K_over_pi)
from ellseries.cli import main
from ellseries.verify import run_verify


@pytest.fixture(scope="module")
def ctx500():
    return make_context(500)


@pytest.fixture(scope="module")
def ctx250():
    return make_context(250)


@pytest.fixture(scope="module")
def pairs500(ctx500):
    return {r: solve_kr(r, ctx500) for r in (2, 3, 4, 100)}


def test_criterion_1_headline_constant(capsys):
    t0 = time.perf_counter()
    code = main(["constant", "gamma-quarter", "--digits", "1000",
                 "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0
    assert rep["oracle_agreement_digits"] >= 1000
    assert rep["terms_used"] <= 11
    assert 100 <= rep["digits_per_term"] <= 130
    assert elapsed < 10
    with capsys.disabled():
        print(f"\nACCEPTANCE 1: PASS - 1000 digits in {rep['terms_used']} terms, "
              f"{rep['digits_per_term']:.1f} digits/term, "
              f"agreement {rep['oracle_agreement_digits']}, {elapsed:.2f} s")


def test_criterion_2_first_kind_triple_equality(ctx500, pairs500, capsys):
    t0 = time.perf_counter()
    tol = ctx500.tol(495)
    worst = 0.0
    for r in (2, 3, 4, 100):
        pair = pairs500[r]
        series_val, _ = two_K_over_pi(pair)
        agm_val = 2 * K_ref(pair.k, ctx500) / ctx500.pi
        theta_val = theta3(nome(r, ctx500), ctx500) ** 2
        for a, b in ((series_val, agm_val), (series_val, theta_val),
                     (agm_val, theta_val)):
            assert abs(a - b) < tol
            worst = max(worst, float(abs(a - b)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    with capsys.disabled():
        print(f"ACCEPTANCE 2: PASS - triple equality at r in {{2,3,4,100}}, "
              f"500 digits, worst |diff| {worst:.1e}, {elapsed:.2f} s")


def test_criterion_3_second_kind(ctx500, pairs500, capsys):
    tol = ctx500.tol(495)
    worst = 0.0
    for r in (2, 3, 4):
        pair = pairs500[r]
        series_val, _ = four_E_over_pi(pair)
        agm_val = 4 * E_ref(pair.k, ctx500) / ctx500.pi
        assert abs(series_val - agm_val) < tol
        worst = max(worst, float(abs(series_val - agm_val)))
    with capsys.disabled():
        print(f"ACCEPTANCE 3: PASS - second-kind series at r in {{2,3,4}}, "
              f"500 digits, worst |diff| {worst:.1e}")


def test_criterion_4_scaling_maps(ctx250, capsys):
    tol = ctx250.tol(240)
    p1 = solve_kr(1, ctx250)
    res16 = abs(k_scale_16(p1) * K_ref(p1.k, ctx250)
                - K_ref(solve_kr(16, ctx250).k, ctx250))
    assert res16 < tol
    chain = chain_to_6400(ctx250)
    res64 = abs(k_scale_64(chain[0]) * K_ref(chain[0].k, ctx250)
                - K_ref(chain[3].k, ctx250))
    assert res64 < tol
    with capsys.disabled():
        print(f"ACCEPTANCE 4: PASS - 16x map residual {float(res16):.1e}, "
              f"64x map residual {float(res64):.1e} at 250 digits")


def test_criterion_5_multipliers(ctx250, capsys):
    tol_poly = ctx250.tol(240)
    worst_poly = 0.0
    worst_ratio = 0.0
    for n in (2, 3, 5):
        for m in (1, 2):
            pair_m, pair_big = solve_kr(m, ctx250), solve_kr(n * n * m, ctx250)
            res = multiplier(n, pair_m, pair_big)
            assert abs(res.residual) < tol_poly
            km = K_ref(pair_m.k, ctx250)
            knm = K_ref(pair_big.k, ctx250)
            assert abs(knm - res.value * km) < ctx250.tol(235) * km
            worst_poly = max(worst_poly, float(abs(res.residual)))
            worst_ratio = max(worst_ratio, float(abs(knm - res.value * km) / km))
    with capsys.disabled():
        print(f"ACCEPTANCE 5: PASS - multipliers n in {{2,3,5}}, m in {{1,2}}: "
              f"worst polynomial residual {worst_poly:.1e}, "
              f"worst K-ratio residual {worst_ratio:.1e}")


def test_criterion_6_moduli_consistency(ctx250, capsys):
    tol = ctx250.tol(240)
    closed = k100_closed_form(ctx250)
    d1 = abs(closed.k - solve_kr(100, ctx250).k)
    assert d1 < tol
    worst_landen = 0.0
    for r in (1, 2, 3, 5):
        up = landen_up(solve_kr(r, ctx250))
        diff = abs(up.k - solve_kr(4 * Fraction(r), ctx250).k)
        assert diff < tol
        worst_landen = max(worst_landen, float(diff))
    d3 = abs(k100_radical_coefficient(ctx250) * b_quarter(ctx250)
             - K_ref(closed.k, ctx250))
    assert d3 < tol
    with capsys.disabled():
        print(f"ACCEPTANCE 6: PASS - k100 closed vs solve {float(d1):.1e}, "
              f"landen vs solve worst {worst_landen:.1e}, "
              f"K[100] radical vs agm {float(d3):.1e}")


def test_criterion_7_collapse_identity_suite(capsys):
    ctx = make_context(50)
    tol = ctx.tol(40)
    rng = random.Random(0xACCE97)
    count = 0
    worst = 0.0
    while count < 50:
        mu = rng.uniform(-2.0, -0.1)
        z = rng.uniform(0.01, 0.4)
        if abs((1 + mu) * (2 * z - 1)) < 0.05:
            continue
        value, _ = derivative_weighted_sum(mu, z, ctx)
        rhs = closed_form(mu, z, ctx)
        assert abs(value - rhs) < tol
        worst = max(worst, float(abs(value - rhs)))
        count += 1
    ctx60 = make_context(60)
    h = ctx60.tol(20)
    z = ctx60.mpf("0.2")
    _, dphi = phi_and_derivative(Fraction(-3, 2), z, ctx60)
    fd = (phi_and_derivative(Fraction(-3, 2), z + h, ctx60)[0]
          - phi_and_derivative(Fraction(-3, 2), z - h, ctx60)[0]) / (2 * h)
    fd_digits = ctx60.agreement_digits(dphi, fd)
    assert fd_digits >= 25
    with capsys.disabled():
        print(f"ACCEPTANCE 7: PASS - 50 random samples worst |diff| {worst:.1e} "
              f"(tol 1e-40); derivative vs finite difference {fd_digits:.1f} digits")


def test_criterion_8_typo_resolution_gates(ctx250, capsys):
    chain = chain_to_6400(ctx250)
    pair400 = chain[1]
    assert abs(pair400.k ** 2 + pair400.k_prime ** 2 - 1) \
        < ctx250.tol(ctx250.working_digits - 8)
    assert eq2_residual(pair400) < ctx250.tol(ctx250.working_digits - 5)

    checks = {c.name: c for c in run_verify(250, ["chain"])}
    audit = checks["kprime400-coefficient-audit"]
    assert audit.passed
    assert "2^(7/3)" in audit.detail and "2^(7/4)" in audit.detail
    derived = checks["normalization-derived"]
    assert derived.passed and derived.residual_digits >= 245
    published = checks["normalization-published-mismatch"]
    assert published.passed
    assert "5120" in published.detail
    with capsys.disabled():
        print("ACCEPTANCE 8: PASS - chain k'_400 satisfies both defining "
              "identities; published 2^(7/3) coefficient reported as mismatch; "
              "derived series prefactor reproduces the oracle "
              f"({derived.residual_digits:.0f} digits) while the published 1/8 "
              "prefactor does not")
