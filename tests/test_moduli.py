"""Singular moduli: theta quotients, Landen ascent, closed forms, multipliers, scalings."""

import math
from fractions import Fraction

import mpmath
import pytest

from ellseries import (DomainError, K_ref, ModulusPair,
                       b_quarter, chain_printed_comparison,
                       chain_to_6400, eq2_residual, k100_closed_form,
                       k100_radical_coefficient, k_scale_16, k_scale_64,
                       landen_up, make_context, multiplier, solve_kr)
from ellseries.moduli import _multiplier_polynomials, _newton_polish
from ellseries.precision import PrecisionContext

K4_EXACT = "0.171572875253809902396622551580603842860656249246103853646641"
K100_COEFF = "0.211803271198514012717044518877575870181432102329188841311477"
M2_1 = "0.85355339059327376220042218105242451964241796884423701829417"


def test_solve_r1_symmetry(ctx50):
    pair = solve_kr(1, ctx50)
    assert abs(pair.k - ctx50.sqrt(2) / 2) <= ctx50.tol(50)
    assert abs(pair.k - pair.k_prime) <= ctx50.tol(50)


def test_solve_r4(ctx50):
    pair = solve_kr(4, ctx50)
    assert abs(pair.k - ctx50.mpf(K4_EXACT)) <= ctx50.tol(50)


def test_solve_residuals(ctx50):
    for r in (2, 3, 5, Fraction(1, 2)):
        pair = solve_kr(r, ctx50)
        assert eq2_residual(pair) <= ctx50.tol(ctx50.working_digits - 5)


def test_solve_inverse_parameter(ctx50):
    # k_{1/r} is the complementary modulus of k_r, to full working precision
    full = ctx50.working_digits - 1
    p4 = solve_kr(4, ctx50)
    pq = solve_kr(Fraction(1, 4), ctx50)
    assert ctx50.agreement_digits(pq.k, p4.k_prime) >= full
    assert ctx50.agreement_digits(pq.k_prime, p4.k) >= full
    assert ctx50.agreement_digits(pq.k_prime_gap, 1 - p4.k) >= full


@pytest.mark.parametrize("digits", [50, 1000])
def test_solve_matches_landen_chain(digits):
    ctx = make_context(digits)
    full = ctx.working_digits - 1
    for link in chain_to_6400(ctx):
        pair = solve_kr(link.r, ctx)
        assert ctx.agreement_digits(pair.k, link.k) >= full
        assert ctx.agreement_digits(pair.k_prime_gap, link.k_prime_gap) >= full


@pytest.mark.parametrize("build, elevated", [
    # k100_closed_form's 10 digits above the target, then three Landen ascents
    (chain_to_6400, lambda t: [t + 10]),
    # _theta_modulus adds log10(pi sqrt(r)) + 10 digits to the target
    (lambda ctx: solve_kr(100, ctx), lambda t: [t + int(math.log10(math.pi * 10)) + 10]),
    (lambda ctx: solve_kr(Fraction(1, 100), ctx),
     lambda t: [t + int(math.log10(math.pi * 10)) + 10]),
])
def test_pairs_build_only_their_elevated_contexts(ctx50, monkeypatch, build, elevated):
    # a context costs ~1 ms to build; beyond the elevated contexts of the
    # closed form or the theta sum, forming a pair must build none
    built = []
    init = PrecisionContext.__init__

    def counting(self, target_digits):
        built.append(target_digits)
        init(self, target_digits)

    monkeypatch.setattr(PrecisionContext, "__init__", counting)
    build(ctx50)
    assert built == elevated(ctx50.target_digits)


@pytest.mark.parametrize("digits", [50, 1000])
def test_k_prime_plus_gap_is_exactly_one(digits):
    ctx = make_context(digits)
    pairs = [solve_kr(r, ctx) for r in (1, 100, 6400, Fraction(1, 100),
                                        Fraction(1, 5_000_000_000))]
    for pair in pairs + chain_to_6400(ctx):
        assert mpmath.fadd(pair.k_prime, pair.k_prime_gap, exact=True) == 1, pair.r


def test_solve_domain(ctx50):
    with pytest.raises(DomainError):
        solve_kr(0, ctx50)
    with pytest.raises(DomainError):
        solve_kr(-4, ctx50)


def test_pair_rejects_endpoints(ctx50):
    with pytest.raises(DomainError):
        ModulusPair(Fraction(1), ctx50.zero, ctx50.zero, ctx50)
    with pytest.raises(DomainError):
        ModulusPair(Fraction(1), ctx50.one, ctx50.one, ctx50)


def test_pair_rejects_a_k_and_gap_that_break_the_identity(ctx50):
    # both lie in (0, 1), but k_4 and the gap of k_2 miss k^2 + k'^2 = 1
    with pytest.raises(DomainError, match="identity"):
        ModulusPair(Fraction(4), solve_kr(4, ctx50).k, solve_kr(2, ctx50).k_prime_gap, ctx50)


def test_gated_pair_reruns_no_agm(ctx50, monkeypatch):
    # solve_kr's defining-ratio gate runs agm(1, k') and agm(1, k) on the
    # pair; the residual and K read them at the pair's own context
    from ellseries import oracle
    runs = []
    agm_loop = oracle._agm

    def counted(*args, **kwargs):
        runs.append(args)
        return agm_loop(*args, **kwargs)

    monkeypatch.setattr(oracle, "_agm", counted)
    for pair in (solve_kr(Fraction(1, 3), ctx50), solve_kr(4, ctx50)):
        assert pair.ctx is ctx50
        gate_runs = len(runs)
        assert eq2_residual(pair) <= ctx50.tol(ctx50.working_digits - 5)
        assert pair.K is pair.K
        assert len(runs) == gate_runs
    assert landen_up(pair).ctx is ctx50


def test_landen_from_r1(ctx50):
    up = landen_up(solve_kr(1, ctx50))
    assert up.r == Fraction(4)
    assert abs(up.k - ctx50.mpf(K4_EXACT)) <= ctx50.tol(45)


def test_landen_matches_solver(ctx50):
    for r in (1, 2, 3):
        up = landen_up(solve_kr(r, ctx50))
        direct = solve_kr(4 * Fraction(r), ctx50)
        assert abs(up.k - direct.k) <= ctx50.tol(45)


def test_landen_keeps_k_prime_near_one(ctx50):
    # ascending from a tiny-k pair: k' stays pinned at 1
    pair = chain_to_6400(ctx50)[3]
    up = landen_up(pair)
    assert up.k_prime_gap < ctx50.tol(100)
    assert 0 < up.k_prime < 1


def test_k100_closed_form(ctx50):
    pair = k100_closed_form(ctx50)
    # k_100 ~ 6.03e-7; 2 - sqrt(p) ~ 2.4e-6 (p just below 4)
    assert -6.3 < float(ctx50.log10(pair.k)) < -6.1
    assert abs(pair.k ** 2 + pair.k_prime ** 2 - 1) <= ctx50.tol(ctx50.working_digits - 8)
    assert abs(pair.k - solve_kr(100, ctx50).k) <= ctx50.tol(45)


def test_chain_stages(ctx50):
    pairs = chain_to_6400(ctx50)
    assert [p.r for p in pairs] == [Fraction(100), Fraction(400),
                                    Fraction(1600), Fraction(6400)]
    for p in pairs:
        assert eq2_residual(p) <= ctx50.tol(ctx50.working_digits - 5)
    assert -54.1 < float(ctx50.log10(pairs[3].k)) < -53.9


def test_chain_printed_forms(ctx50):
    comps = {c.label: c for c in chain_printed_comparison(chain_to_6400(ctx50))}
    assert comps["k_400"].agreement_digits >= 45
    assert comps["k_1600"].agreement_digits >= 45
    assert comps["k_6400"].agreement_digits >= 45
    typo = comps["k'_400 (published coefficient 2^(7/3))"]
    assert typo.agreement_digits < 2
    ratio = typo.printed / typo.derived
    assert abs(ratio - ctx50.root(2 ** 7, 12)) <= ctx50.tol(40)
    fixed = comps["k'_400 (corrected coefficient 2^(7/4))"]
    assert fixed.agreement_digits >= 45


def test_multiplier_degree2(ctx50):
    res = multiplier(2, solve_kr(1, ctx50), None)
    assert abs(res.value - ctx50.mpf(M2_1)) <= ctx50.tol(50)
    assert res.residual == 0
    # closed form against the AGM ratio
    assert abs(res.value - K_ref(solve_kr(4, ctx50).k, ctx50)
               / K_ref(solve_kr(1, ctx50).k, ctx50)) <= ctx50.tol(45)


def test_multiplier_degree5_m1_is_tangent_root(ctx50):
    # M_5(1) = (2 + sqrt(5))/5, a double root of the degree-6 equation:
    # the polynomial touches zero there without changing sign
    res = multiplier(5, solve_kr(1, ctx50), solve_kr(25, ctx50))
    assert abs(res.value - (2 + ctx50.sqrt(5)) / 5) <= ctx50.tol(45)
    assert abs(res.residual) <= ctx50.tol(ctx50.target_digits)


def test_multiplier_ratios(ctx50):
    for n in (2, 3, 5):
        for m in (1, 2):
            pair_m, pair_big = solve_kr(m, ctx50), solve_kr(n * n * m, ctx50)
            res = multiplier(n, pair_m, pair_big)
            assert 0 < res.value < 1
            km = K_ref(pair_m.k, ctx50)
            kn = K_ref(pair_big.k, ctx50)
            assert abs(kn - res.value * km) <= ctx50.tol(42) * km
            assert abs(res.residual) <= ctx50.tol(ctx50.target_digits)


def test_multiplier_rejected_is_a_critical_point(ctx50):
    # the polish on f' from the K-ratio lands, at m = 2, on a critical point
    # of the degree-6 equation that is no root: it is recorded, not selected
    pair2 = solve_kr(2, ctx50)
    res = multiplier(5, pair2, solve_kr(50, ctx50))
    k2 = pair2.k ** 2
    c = 256 * k2 * (1 - k2)
    (crit,) = res.rejected
    u = 5 * crit - 1
    assert abs(25 * u ** 4 * (1 - crit) - u ** 5 - c) <= ctx50.tol(45)
    assert abs(abs(u ** 5 * (1 - crit) - c * crit) - 23.52) < 0.01


def test_multiplier_tangent_root_to_working_precision(ctx250):
    # at the double root M_5(1) a Newton polish on f alone stalls ~37 digits
    # from the root; the polish on f' reaches working precision
    res = multiplier(5, solve_kr(1, ctx250), solve_kr(25, ctx250))
    expect = (2 + ctx250.sqrt(5)) / 5
    assert ctx250.agreement_digits(res.value, expect) >= ctx250.working_digits - 5
    assert res.rejected == ()


def test_tangent_root_polish_stops_when_f_stops_falling(ctx250):
    # from the K-ratio, f at M_5(1) is rounding noise at once; the polish on
    # f used to take all 120 Newton steps there
    k = solve_kr(1, ctx250).k
    f, fp, _ = _multiplier_polynomials(5, k)
    evals = []

    def counted(m):
        evals.append(m)
        return f(m)

    start = K_ref(solve_kr(25, ctx250).k, ctx250) / K_ref(k, ctx250)
    x = _newton_polish(counted, fp, start, ctx250)
    assert len(evals) <= 5
    assert abs(f(x)) <= abs(f(start))


def test_multiplier_bad_inputs(ctx50):
    # m <= 0 has no pair to pass: solve_kr raises DomainError (test_solve_domain)
    with pytest.raises(ValueError):
        multiplier(4, solve_kr(1, ctx50), solve_kr(16, ctx50))


def test_scale16(ctx50):
    p1 = solve_kr(1, ctx50)
    factor = k_scale_16(p1)
    assert abs(factor * K_ref(p1.k, ctx50)
               - K_ref(solve_kr(16, ctx50).k, ctx50)) <= ctx50.tol(45)
    # degenerate limit k -> 0: factor -> 1
    tiny = chain_to_6400(ctx50)[3]
    assert abs(k_scale_16(tiny) - 1) <= ctx50.tol(50)


def test_scale16_twice_gives_256(ctx50):
    p1 = solve_kr(1, ctx50)
    p16 = solve_kr(16, ctx50)
    factor = k_scale_16(p1) * k_scale_16(p16)
    assert abs(factor * K_ref(p1.k, ctx50)
               - K_ref(solve_kr(256, ctx50).k, ctx50)) <= ctx50.tol(44)


def test_scale64(ctx50):
    p1 = solve_kr(1, ctx50)
    assert abs(k_scale_64(p1) * K_ref(p1.k, ctx50)
               - K_ref(solve_kr(64, ctx50).k, ctx50)) <= ctx50.tol(45)
    pairs = chain_to_6400(ctx50)
    assert abs(k_scale_64(pairs[0]) * K_ref(pairs[0].k, ctx50)
               - K_ref(pairs[3].k, ctx50)) <= ctx50.tol(44)


def test_scale64_composes_with_scale16(ctx50):
    for pair in (solve_kr(1, ctx50), k100_closed_form(ctx50)):
        m2_16r = (1 + landen_up(landen_up(pair)).k_prime) / 2
        assert abs(k_scale_64(pair)
                   - k_scale_16(pair) * m2_16r) <= ctx50.tol(45)


def test_K100_radical_value(ctx50):
    coeff = k100_radical_coefficient(ctx50)
    assert abs(coeff - ctx50.mpf(K100_COEFF)) <= ctx50.tol(48)
    value = coeff * b_quarter(ctx50)
    assert abs(value - K_ref(k100_closed_form(ctx50).k, ctx50)) <= ctx50.tol(45)
