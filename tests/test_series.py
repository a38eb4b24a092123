"""Series engine: coefficients, the collapse identity, K/E series, the constant."""

import gc
import inspect
import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellseries import (DomainError, E_ref, K_ref, SeriesConvergenceError,
                       SingularSeriesError, chain_to_6400,
                       closed_form, derivative_weighted_sum, eval_series,
                       four_E_over_pi, gamma_quarter_series, legendre_P,
                       make_context, nome, phi_and_derivative,
                       solve_kr, theta3, two_K_over_pi)
from ellseries import series
from ellseries.series import _slope, _weight_denominator

B_QUARTER_OVER_PI = "2.36068119803219245209067588111697717446743326976289459903173"


def _poch(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


@pytest.mark.parametrize("mu", [Fraction(-3, 2), Fraction(-1, 2), Fraction(-7, 10)])
def test_coefficients_match_pochhammer_products(mu, ctx50):
    z = Fraction(1, 8)
    value, report = eval_series(mu, ctx50.mpf(1) / 8, 0, 1, ctx50)
    exact = sum(_poch(-mu, n) * _poch(1 + mu, n) / math.factorial(n) ** 2 * z ** n
                for n in range(report.terms_used))
    assert abs(value - ctx50.mpf(exact.numerator) / exact.denominator) <= ctx50.tol(50)


def test_nonnegative_integer_mu_terminates(ctx50):
    # mu = 2: the coefficients are 1, -6, 6, then 0 from n = 3 on
    z = ctx50.mpf(1) / 8
    value, report = eval_series(2, z, 0, 1, ctx50)
    assert report.terms_used == 3
    assert value == 1 - 6 * z + 6 * z * z


def test_alpha_of(ctx50):
    z = ctx50.mpf("0.1")
    alpha = 2 * (z - 1) / _weight_denominator(Fraction(-3, 2), z, ctx50)
    assert abs(alpha - 4 * (z - 1) / (1 - 2 * z)) <= ctx50.tol(52)
    # the 2K/pi parameters are singular at z = 1/2 (r = 1)
    with pytest.raises(SingularSeriesError):
        derivative_weighted_sum(Fraction(-3, 2), ctx50.mpf("0.5"), ctx50)


def test_series_spec_validation(ctx50):
    for z in ("1.5", "0", "-0.25"):
        with pytest.raises(DomainError):
            eval_series(Fraction(-3, 2), ctx50.mpf(z), 1, 1, ctx50)
    # a plain weighted sum has no denominator to vanish at z = 1/2
    z = ctx50.mpf("0.5")
    value, _ = eval_series(Fraction(-3, 2), z, 1, 1, ctx50)
    phi, dphi = phi_and_derivative(Fraction(-3, 2), z, ctx50)
    assert abs(value - (phi + z * dphi)) <= ctx50.tol(45)


def test_legendre_P_first_kind_identity(ctx50):
    z = ctx50.mpf("0.3")
    lhs = legendre_P(Fraction(-1, 2), 1 - 2 * z, ctx50)
    rhs = 2 * K_ref(ctx50.sqrt(z), ctx50) / ctx50.pi
    assert abs(lhs - rhs) <= ctx50.tol(45)


def test_legendre_P_at_one(ctx50):
    assert abs(legendre_P(Fraction(-3, 2), 1, ctx50) - 1) <= ctx50.tol(55)
    assert abs(legendre_P(Fraction(1, 2), 1, ctx50) - 1) <= ctx50.tol(55)


def test_legendre_P_second_kind_identity(ctx50):
    z = ctx50.mpf("0.25")
    lhs = legendre_P(Fraction(1, 2), 1 - 2 * z, ctx50)
    k = ctx50.sqrt(z)
    rhs = (2 / ctx50.pi) * (2 * E_ref(k, ctx50) - K_ref(k, ctx50))
    assert abs(lhs - rhs) <= ctx50.tol(45)


def test_legendre_P_domain(ctx50):
    with pytest.raises(DomainError):
        legendre_P(Fraction(-1, 2), -1.5, ctx50)


def test_phi_at_small_z(ctx50):
    phi, _ = phi_and_derivative(Fraction(-3, 2), ctx50.tol(25), ctx50)
    assert abs(phi - 1) <= ctx50.tol(22)


def test_phi_derivative_vs_finite_difference():
    ctx = make_context(60)
    h = ctx.tol(20)
    z = ctx.mpf("0.2")
    _, dphi = phi_and_derivative(Fraction(-3, 2), z, ctx)
    fd = (phi_and_derivative(Fraction(-3, 2), z + h, ctx)[0]
          - phi_and_derivative(Fraction(-3, 2), z - h, ctx)[0]) / (2 * h)
    assert ctx.agreement_digits(dphi, fd) >= 25


def test_weighted_sum_equals_phi_combination(ctx50):
    # the mechanism: sum c_n z^n (alpha n + beta) = beta phi + alpha z phi'
    mu = Fraction(-3, 2)
    z = ctx50.mpf("0.1")
    alpha = 2 * (z - 1) / _weight_denominator(mu, z, ctx50)
    total, _ = eval_series(mu, z, alpha, 1, ctx50)
    phi, dphi = phi_and_derivative(mu, z, ctx50)
    assert abs(total - (phi + alpha * z * dphi)) <= ctx50.tol(45)


def test_collapse_identity(ctx50):
    value, report = derivative_weighted_sum(Fraction(-3, 2), ctx50.mpf("0.09"), ctx50)
    assert report.final_error_vs_oracle >= 45
    rhs = closed_form(Fraction(-3, 2), ctx50.mpf("0.09"), ctx50)
    assert abs(value - rhs) <= ctx50.tol(45)


def test_collapse_identity_small_z(ctx50):
    value, _ = derivative_weighted_sum(Fraction(-3, 2), ctx50.tol(30), ctx50)
    assert abs(value - 1) <= ctx50.tol(25)


def test_collapse_reproduces_first_kind_series(ctx50):
    # at z = k_4^2 the normalized sum times (1 - 2z) is the 2K/pi series
    pair = solve_kr(4, ctx50)
    z = pair.k ** 2
    value, _ = derivative_weighted_sum(Fraction(-3, 2), z, ctx50)
    expect = (2 * K_ref(pair.k, ctx50) / ctx50.pi) / (1 - 2 * z)
    assert abs(value - expect) <= ctx50.tol(45)


def test_eval_series_error_trace_improves(ctx50):
    pair = solve_kr(4, ctx50)
    _, report = two_K_over_pi(pair)
    digits = [d for _, d in report.error_trace]
    assert all(b > a for a, b in zip(digits[2:], digits[3:]))


def test_eval_series_runaway_guard(monkeypatch):
    ctx = make_context(10)
    monkeypatch.setattr(series, "_max_terms", lambda predicted: 8)
    with pytest.raises(SeriesConvergenceError):
        eval_series(Fraction(-3, 2), ctx.mpf("0.4"), 1, 1, ctx)


def test_held_report_keeps_no_full_width_terms():
    # 5,330 terms at 4000 digits: the report keeps each coefficient's leading
    # 128 bits, not its ~13k-bit full width (over 5 MB if it did)
    ctx = make_context(4000)
    tracemalloc.start()
    try:
        pair = solve_kr(2, ctx)
        _, report = two_K_over_pi(pair)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.terms_used > 5000
    assert kept < 2_000_000
    expect = float(-2 * ctx.log10(pair.k))
    assert abs(report.digits_per_term - expect) <= 0.1 * expect


def test_eval_series_slow_z_converges(ctx50):
    # z near 1 just means many terms, not failure
    mu = Fraction(-3, 2)
    z = ctx50.mpf("0.9")
    value, report = derivative_weighted_sum(mu, z, ctx50)
    assert report.final_error_vs_oracle >= 45
    assert report.terms_used > 400


def test_first_kind_series(ctx50):
    for r in (2, 3, 4):
        pair = solve_kr(r, ctx50)
        value, report = two_K_over_pi(pair)
        assert abs(value - 2 * K_ref(pair.k, ctx50) / ctx50.pi) <= ctx50.tol(45)
        assert report.final_error_vs_oracle >= 45
        assert ctx50.agreement_digits(value, theta3(nome(pair.r, ctx50), ctx50) ** 2) >= 45


@pytest.mark.parametrize("digits", [50, 1500])
def test_first_kind_at_r1(digits):
    # z = k_1^2 = 1/2, where the weight -4(1-z) n + (1-2z) has no denominator
    ctx = make_context(digits)
    pair = solve_kr(1, ctx)
    value, report = two_K_over_pi(pair)
    assert ctx.agreement_digits(value, 2 * pair.K / ctx.pi) >= digits - 5
    assert report.final_error_vs_oracle >= digits - 5


def test_first_kind_slope(ctx50):
    pair = solve_kr(100, ctx50)
    _, report = two_K_over_pi(pair)
    expect = float(-2 * ctx50.log10(pair.k))
    assert report.digits_per_term == pytest.approx(expect, rel=0.10)
    assert expect == pytest.approx(12.44, abs=0.02)


def test_second_kind_series(ctx50):
    for r in (2, 3, 4):
        pair = solve_kr(r, ctx50)
        value, report = four_E_over_pi(pair)
        assert abs(value - 4 * E_ref(pair.k, ctx50) / ctx50.pi) <= ctx50.tol(45)
        assert report.final_error_vs_oracle >= 45


@pytest.mark.parametrize("digits", [50, 1500])
def test_second_kind_at_r1(digits):
    ctx = make_context(digits)
    pair = solve_kr(1, ctx)
    value, report = four_E_over_pi(pair)
    assert ctx.agreement_digits(value, 4 * E_ref(pair.k, ctx) / ctx.pi) >= digits - 5
    assert report.final_error_vs_oracle >= digits - 5


def test_second_kind_is_one_sum(ctx50, monkeypatch):
    sums = []

    def counting(*args, **kwargs):
        sums.append(args[0])
        return eval_series(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("4E/pi summed the 2K/pi series")

    monkeypatch.setattr(series, "eval_series", counting)
    monkeypatch.setattr(series, "two_K_over_pi", refuse)
    pair = solve_kr(4, ctx50)
    _, report = four_E_over_pi(pair)
    assert sums == [Fraction(-1, 2)]
    assert report.final_error_vs_oracle >= 45


@pytest.mark.parametrize("digits,r", [(50, 1), (300, Fraction(19, 3)), (1500, 100),
                                      (50, Fraction(1, 2))])
def test_second_kind_matches_paper_two_sum_form(digits, r):
    # the paper's form: 2K/pi plus the mu = -1/2 sum with weight
    # 4(1-z) n + (1-2z); at r = 1/2, z > 1/2 and that weight's 1-2z is negative
    ctx = make_context(digits)
    pair = solve_kr(r, ctx)
    z = pair.k * pair.k
    two_k, _ = two_K_over_pi(pair)
    sigma, _ = eval_series(Fraction(-1, 2), z, 4 * (1 - z), 1 - 2 * z, ctx)
    value, _ = four_E_over_pi(pair)
    assert ctx.agreement_digits(value, two_k + sigma) >= ctx.working_digits - 2


def test_second_kind_tiny_k_limit(ctx50):
    # k -> 0: 2K/pi -> 1 and 4E/pi -> 2
    pair = chain_to_6400(ctx50)[3]
    value, _ = four_E_over_pi(pair)
    assert abs(value - 2) <= ctx50.tol(50)


def test_gamma_quarter_value(ctx50):
    value, report = gamma_quarter_series(chain_to_6400(ctx50))
    assert abs(value - ctx50.mpf(B_QUARTER_OVER_PI)) <= ctx50.tol(55)
    assert report.final_error_vs_oracle >= ctx50.target_digits - 5
    assert report.notes


def test_gamma_quarter_single_term():
    # the error after one term: w^2 ~ 1e-108 bounds the first omitted correction
    ctx = make_context(200)
    _, report = gamma_quarter_series(chain_to_6400(ctx))
    n, digits = report.error_trace[0]
    assert n == 0
    assert 100 <= digits <= 115


def test_gamma_quarter_term_insensitivity():
    # the stop rule is compared with a run ~108 digits (one term) wider
    ctx = make_context(300)
    v1, r1 = gamma_quarter_series(chain_to_6400(ctx))
    v2, r2 = gamma_quarter_series(chain_to_6400(make_context(ctx.target_digits + 110)))
    assert r2.terms_used > r1.terms_used
    assert abs(v1 - v2) <= ctx.tol(ctx.target_digits - 5)


def test_gamma_quarter_slope():
    ctx = make_context(500)
    _, report = gamma_quarter_series(chain_to_6400(ctx))
    assert 100 <= report.digits_per_term <= 130
    assert report.terms_used <= 6
    assert report.final_error_vs_oracle >= ctx.target_digits - 5


def test_pair_and_chain_series_take_no_context():
    # each sums at the context its pair or chain was built at, so no caller
    # can sum at one precision over moduli built at another
    for fn in (two_K_over_pi, four_E_over_pi, gamma_quarter_series):
        assert "ctx" not in inspect.signature(fn).parameters
    assert list(inspect.signature(gamma_quarter_series).parameters) == ["chain"]


# ---------------------------------------------------------------------
# the fixed-point kernel against the mpf loop it replaced
# ---------------------------------------------------------------------

def _reference_eval_series(params, ctx):
    """The mpf summation loop eval_series used before its fixed-point kernel.

    Returns (sum, terms used, error trace, largest |partial sum|).
    """
    mu, z, alpha, beta = params
    mu_f = ctx.mpf(mu)
    eps = ctx.tol(ctx.working_digits)
    s = ctx.zero
    c = ctx.one
    zp = ctx.one
    partials = []
    n = 0
    while True:
        s += c * zp * (alpha * n + beta)
        partials.append(s)
        n += 1
        c = c * (-mu_f + (n - 1)) * (1 + mu_f + (n - 1)) / (n * n)
        zp = zp * z
        bound = abs(c * zp) * (abs(alpha) * (n + 2) + abs(beta))
        if bound < eps:
            break
    trace = []
    for i, p in enumerate(partials[:-1]):
        diff = abs(p - s)
        if diff > 0:
            trace.append((i, float(-ctx.log10(diff))))
    return s, len(partials), trace, max(abs(p) for p in partials)


_small_rational = st.builds(Fraction, st.integers(-13, 13), st.integers(1, 4))


@st.composite
def _series_params(draw):
    """(mu, z, alpha, beta): z in (0, 0.95), weights of either sign, or
    z near 1/2 with the small 2K/pi-type beta = 1 - 2z."""
    mu = draw(_small_rational)
    if draw(st.booleans()):
        z = Fraction(draw(st.integers(1, 949)), 1000)
        alpha = draw(_small_rational)
        beta = draw(_small_rational)
    else:
        z = Fraction(1, 2) + draw(st.sampled_from([-1, 1])) * Fraction(1, 10 ** draw(st.integers(2, 7)))
        alpha = -4 * (1 - z)
        beta = 1 - 2 * z
    return mu, z, alpha, beta


def _at_precision(params, ctx):
    mu, z, alpha, beta = params
    return mu, ctx.mpf(z), ctx.mpf(alpha), ctx.mpf(beta)


@settings(max_examples=30, deadline=None)
@given(_series_params(), st.integers(50, 600))
def test_fixed_point_kernel_matches_mpf_loop(params, digits):
    ctx = make_context(digits)
    params = _at_precision(params, ctx)
    value, report = eval_series(*params, ctx)
    ref, ref_terms, ref_trace, scale = _reference_eval_series(params, ctx)
    assert report.terms_used == ref_terms
    # both sums carry absolute rounding error ~ 2^-prec times the largest partial
    scale = max(ctx.one, scale)
    assert abs(value - ref) <= ctx.tol(ctx.working_digits - 3) * scale
    # trace points the mpf loop itself resolves to 1e-6 digits
    resolved = ctx.working_digits - 10 - ctx.log10_abs(scale)
    got = {n: d for n, d in report.error_trace if d <= resolved}
    want = {n: d for n, d in ref_trace if d <= resolved}
    assert got.keys() == want.keys()
    for n in want:
        assert got[n] == pytest.approx(want[n], abs=1e-6)


@pytest.mark.parametrize("params, digits", [
    # P_6 near z = 1/2: the tail after n = 0 cancels to 1e-9 of its terms
    ((Fraction(6), Fraction(4999999, 10000000), Fraction(-5000001, 2500000),
      Fraction(1, 5000000)), 50),
    # coefficients up to ~1e6 with z^u ~ 1e-15: z^u needs its relative precision
    ((Fraction(11), Fraction(1, 1000), Fraction(2), Fraction(0)), 85),
    # the weight n/3 - 1 cancels at n = 3 to its fixed-point rounding, so
    # P_2 is S past the resolved digits; a weight cut to the leading bits of
    # max(|alpha|, |beta|) kept 2^-128 of it and put a point at 45.6 digits
    ((Fraction(3), Fraction(1, 1000), Fraction(1, 3), Fraction(-1)), 50),
])
def test_kernel_rows(params, digits):
    test_fixed_point_kernel_matches_mpf_loop.hypothesis.inner_test(params, digits)


def _exact_trace(params, n_terms, dps):
    """-log10 |S - P_n| for the first n_terms terms, summed by mpmath at dps digits."""
    mp = mpmath.MPContext()
    mp.dps = dps
    mu, z, alpha, beta = params
    z, alpha, beta = (mp.mpf(x) for x in (z, alpha, beta))
    mu = mp.mpf(mu.numerator) / mu.denominator
    c, terms = mp.mpf(1), []
    for n in range(n_terms):
        terms.append(c * z ** n * (alpha * n + beta))
        c *= (n - mu) * (1 + mu + n) / (n + 1) ** 2
    trace, tail = [], mp.mpf(0)
    for n in range(n_terms - 1, 0, -1):
        tail += terms[n]
        trace.append((n - 1, float(-mp.log10(abs(tail)))))
    return trace[::-1]


@pytest.mark.parametrize("r, digits, mu, sign", [
    (Fraction(5701), 1000, Fraction(-3, 2), -1),  # 2K/pi, 11 terms
    (Fraction(19, 3), 300, Fraction(-1, 2), 1),  # 4E/pi - 2K/pi, 140 terms
])
def test_error_trace_is_exact(r, digits, mu, sign):
    # the trace's last points lie a few units above the fixed-point floor;
    # the rounding of chained fixed-point partial sums moved them by up to
    # 8e-6 digits and the slope by 3e-8
    ctx = make_context(digits)
    z = solve_kr(r, ctx).k ** 2
    params = (mu, z, sign * 4 * (1 - z), 1 - 2 * z)
    _, report = eval_series(*params, ctx)
    exact = _exact_trace(params, report.terms_used, 2 * ctx.working_digits)
    assert [n for n, _ in report.error_trace] == [n for n, _ in exact]
    for (_, got), (_, want) in zip(report.error_trace, exact):
        assert got == pytest.approx(want, abs=1e-9)
    assert report.digits_per_term == pytest.approx(_slope(exact), abs=1e-10)


# ---------------------------------------------------------------------
# mpmath's hyp2f1 against the mpf loop it replaced
# ---------------------------------------------------------------------

def _reference_hyp2f1(mu, y, ctx):
    """2F1(-mu, mu+1; 1; y) by the direct mpf summation series.py used before."""
    eps = ctx.tol(ctx.working_digits)
    mu = ctx.mpf(mu)
    a, b = -mu, mu + 1
    s, t, n = ctx.zero, ctx.one, 0
    while abs(t) >= eps:
        s += t
        t = t * (a + n) * (b + n) / (n + 1) ** 2 * y
        n += 1
    return s


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, -0.1, exclude_min=True, exclude_max=True),
       st.floats(0.01, 0.9, exclude_min=True, exclude_max=True))
def test_legendre_and_closed_form_match_mpf_loop(ctx50, mu, z):
    mu, z = ctx50.mpf(mu), ctx50.mpf(z)
    assert abs(legendre_P(mu, 1 - 2 * z, ctx50)
               - _reference_hyp2f1(mu, z, ctx50)) <= ctx50.tol(45)
    # verify's filter: the closed form divides by D = (1 + mu)(2z - 1)
    assume(abs((1 + mu) * (2 * z - 1)) >= 0.05)
    expect = ((-1 - mu) * _reference_hyp2f1(mu + 1, z, ctx50)
              / _weight_denominator(mu, z, ctx50))
    assert abs(closed_form(mu, z, ctx50) - expect) <= ctx50.tol(45)


def test_legendre_P_at_a_polynomial_zero(ctx50):
    # P_(-2) = P_1(x) = x vanishes exactly at x = 0, where mpmath cannot
    # reach relative accuracy
    assert legendre_P(-2, 0, ctx50) == 0
    phi, _ = phi_and_derivative(0, ctx50.mpf("0.5"), ctx50)
    assert phi == 1
