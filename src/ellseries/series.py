"""Legendre-series engine for K, E and the constant Gamma(1/4)^2/pi^(3/2).

The family summed here is

    sum_{n>=0} [(-mu)_n (1+mu)_n / (n!)^2] z^n (alpha*n + beta),

a weighted 2F1(-mu, mu+1; 1; z) = P_mu(1-2z), the Legendre function of
order 0, with Pochhammer coefficients updated incrementally.  With
phi(z) = P_mu(1-2z) the sum is beta*phi + alpha*z*phi'.  The weights of
the 2K/pi and 4E/pi series have no denominator: for 2K/pi (mu = -3/2)
the sum is (1-2z)phi - 4z(1-z)phi' = P_(-1/2)(1-2z), at every 0 < z < 1,
and 4E/pi (mu = -1/2) is the single sum with weight 2(1-z)(2n+1).
The normalized weights alpha = 2(z-1)/D, beta = 1, with
D = -1 - mu + 2z(1+mu), collapse the sum to a single Legendre closed
form; that identity is checked against mpmath's hyp2f1, code this
package did not write.

At a singular modulus the sum converges geometrically in z = k_r^2, i.e.
-2*log10(k_r) decimal digits per term: ~12.4 at r = 100 and ~108 at
r = 6400, where a handful of terms give a thousand digits.  Every series
report records its value's agreement with an AGM oracle, which shares no
code with this module beyond the arithmetic substrate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Any, Callable, List, Optional, Tuple

from . import moduli
from .oracle import _lemniscatic_agm
from .precision import LOG10_2, BigReal, DomainError, PrecisionContext


class SingularSeriesError(ValueError):
    """The normalized collapse weight's denominator D vanishes for these parameters."""


class SeriesConvergenceError(RuntimeError):
    """Runaway-term guard tripped before the tail fell under tolerance."""


class ConvergenceReport:
    """Measured convergence of one summation.

    ``error_trace`` holds (n, -log10 |partial_n - final|); the slope of
    that trace (excluding n = 0, whose error reflects the constant's own
    magnitude) is ``digits_per_term``.  Both are computed from ``_trace``
    when first read: a sum whose caller reads only its value pays nothing
    for them.  ``final_error_vs_oracle`` is the decimal agreement with the
    designated independent oracle, and ``oracle`` is that oracle's value;
    :func:`eval_series` leaves both unset and :func:`_with_oracle` fills them.
    """

    def __init__(self, terms_used: int,
                 _trace: Callable[[], List[Tuple[int, float]]]) -> None:
        self.terms_used = terms_used
        self._trace = _trace
        self.final_error_vs_oracle: Optional[float] = None
        self.oracle: Optional[BigReal] = None
        self.notes: List[str] = []

    @cached_property
    def error_trace(self) -> List[Tuple[int, float]]:
        return self._trace()

    @cached_property
    def digits_per_term(self) -> Optional[float]:
        return _slope(self.error_trace)


def _weight_denominator(mu: Any, z: BigReal, ctx: PrecisionContext) -> BigReal:
    """D = -1 - mu + 2z(1+mu); the collapsing weight slope is alpha = 2(z-1)/D.

    Raises when D is numerically zero (for mu = -3/2 that happens exactly
    at z = 1/2).
    """
    d = -1 - ctx.mpf(mu) + 2 * z * (1 + ctx.mpf(mu))
    if abs(d) <= ctx.tol(ctx.working_digits // 2):
        raise SingularSeriesError(
            f"singular series configuration: weight denominator "
            f"-1 - mu + 2z(1+mu) = {d} is numerically zero (mu={mu}, z={z})"
        )
    return d


# absolute ceiling on summed terms; a convergent run at sane parameters
# stays orders of magnitude below it
RUNAWAY_TERM_CEILING = 2_000_000


def _max_terms(predicted: float) -> int:
    """Runaway guard: ~10x the predicted term count, at most the ceiling."""
    return min(max(math.ceil(10 * predicted) + 16, 64), RUNAWAY_TERM_CEILING)


def _lead(m: int, keep: int) -> Tuple[int, int]:
    """(m >> s, s): the leading `keep` bits of m and the shift s >= 0."""
    s = max(m.bit_length() - keep, 0)
    return m >> s, s


def _pow_lead(m: int, e: int, k: int, keep: int) -> Tuple[int, int]:
    """(m 2^e)^k as (m', e'), m' cut to its leading `keep` bits after each
    product of the binary powering, so a power far below 1 keeps its
    relative precision."""
    rm, re = 1, 0
    while k:
        if k & 1:
            rm, s = _lead(rm * m, keep)
            re += e + s
        k >>= 1
        if k:
            m, s = _lead(m * m, keep)
            e = 2 * e + s
    return rm, re


# digits by which eval_series' bit-length bound must clear a stop threshold
# before it skips the test's float logarithms: far above their rounding
# error, which stays under 1e-10 below 10^15 digits
_STOP_MARGIN = 1e-6

# leading bits kept of each factor of a term in the error trace: a tail
# that cancels to 10^-c of its largest term keeps ~(0.3 _TRACE_BITS - c)
# digits
_TRACE_BITS = 128


def eval_series(mu: Any, z: Any, alpha: Any, beta: Any,
                ctx: PrecisionContext) -> Tuple[BigReal, ConvergenceReport]:
    """Sum the weighted series for rational mu and 0 < z < 1, and instrument it.

    Stops when the next term bound (including the (alpha*n + beta) growth
    factor) falls below 10^(-working_digits); a term under one fixed-point
    unit ends the sum at once, as does a zero coefficient.  The report's
    ``terms_used`` counts the terms summed.  A z whose predicted term count
    working_digits/|log10 z| exceeds RUNAWAY_TERM_CEILING raises
    SeriesConvergenceError before the first term, and before z is checked,
    so a z that rounded to 1 gets the same error; summing past ~10x the
    predicted count raises it too.

    The sum runs in binary fixed point, with z, alpha, beta and the terms
    as integers in units of 2^-wp (the working precision plus guard bits
    that grow with log2 of the term cap), by Smith's concurrent sums
    (D. M. Smith, Math. Comp. 52 (1989) 131-134; the rectangular
    splitting of F. Johansson, arXiv:1310.2346).  With u ~ sqrt of the
    predicted term count, term n is t_n = a_n z^(n mod u): the running
    coefficient a_n steps by the exact ratio c_{n+1}/c_n =
    (nq - p)(q + p + nq) / (q^2 (n+1)^2) for mu = p/q, unreduced (the
    floor ignores a common factor), a linear-cost multiply and divide,
    and takes the full-width z^u once per u terms.  Class n mod u keeps
    sum(a_n) and sum(n a_n); at the end Horner's rule in z combines the
    classes and the weight alpha*n + beta is applied twice.  That is about
    4 sqrt(N) full-width multiplies for N terms instead of 2N.

    The sum never forms partial sums.  The stop rule reads the float
    magnitude log10|t_n| = log10|a_n| + (n mod u) log10 z, so N is fixed
    in the same pass.  A term whose magnitude, bounded below by the bit
    length of a_n and the least weight, is clear of both thresholds takes
    no logarithm; only the last few terms, near a threshold, take the two
    float logarithms, so every decision is the one they give.  Of each
    term the loop keeps only a_n's leading _TRACE_BITS bits, from which
    :func:`_tail_trace` forms the error trace -log10|P_n - S| and its
    least-squares digits-per-term slope when the report is first read.
    """
    z = ctx.mpf(z)
    log10_z = ctx.log10_abs(z)
    # working_digits/|log10 z|, the term count the geometric ratio z predicts;
    # inf means z is within 1e-16 of 1
    predicted = ctx.working_digits / abs(log10_z) if log10_z else math.inf
    if predicted > RUNAWAY_TERM_CEILING:
        need = f"about {predicted:.3g}" if predicted < math.inf else "over 1e16"
        raise SeriesConvergenceError(
            f"series would need {need} terms for {ctx.working_digits} digits, "
            f"more than the {RUNAWAY_TERM_CEILING}-term ceiling; use --method agm")
    if not (0 < z < 1):
        raise DomainError(f"series variable must satisfy 0 < z < 1, got {z}")
    cap = _max_terms(predicted)
    wp = ctx.prec + 2 * cap.bit_length()
    one = 1 << wp
    alpha = ctx.to_fixed(alpha, wp)
    beta = ctx.to_fixed(beta, wp)
    u = max(1, math.isqrt(math.ceil(predicted)))
    # z = z_m 2^z_e and z^u = zu_m 2^zu_e to wp significant bits: a product
    # with a_n or a class sum then errs by a unit of that product, not of z
    z_e = ctx.mag(z) - wp
    z_m = ctx.to_fixed(z, -z_e)
    zu_m, zu_e = _pow_lead(z_m, z_e, u, wp)

    # stop rule |t_n| (|alpha| (n+2) + |beta|) < 10^-w in log10 of units,
    # with the weight a float scaled by 2^-w_bits
    w_bits = max(abs(alpha), abs(beta), 1).bit_length()
    a_w, b_w = abs(alpha) / (1 << w_bits), abs(beta) / (1 << w_bits)
    stop_digits = (2 * wp - w_bits) * LOG10_2 - ctx.working_digits
    # log10 |t_n| >= (bits - 1) log10 2 + j log10 z for an a_n of `bits` bits,
    # and the weight is least at n = 1, so a term with bits > clear[j] is
    # clear of both stop tests, by more than their logarithms' rounding
    w_min = 3 * a_w + b_w
    clear_digits = max(0.0, stop_digits - math.log10(w_min)) if w_min else math.inf
    clear = [(clear_digits + _STOP_MARGIN - j * log10_z) / LOG10_2 + 1 for j in range(u)]

    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    # the factors of the ratio c_n/c_(n-1) = f1 f2 / (q^2 n^2), stepped by q per term
    f1, f2, qq = -p, q + p, q * q
    s0 = [0] * u  # sum of a_n over n = j mod u
    s1 = [0] * u  # sum of n a_n
    coeffs = []  # signed a_n cut to its leading _TRACE_BITS bits, as (a, shift)
    a, positive = one, True  # |a_n| and its sign
    bits = a.bit_length()
    n = j = 0
    while True:
        term = a if positive else -a
        s0[j] += term
        s1[j] += n * term
        s = bits - _TRACE_BITS
        coeffs.append((term >> s, s) if s > 0 else (term, 0))
        n += 1
        num, den = f1 * f2, qq * n * n
        f1 += q
        f2 += q
        j += 1
        if j == u:
            j = 0
            a = (a * zu_m) >> -zu_e
        if num < 0:
            positive = not positive
            num = -num
        a = a * num // den
        if not a:
            break
        bits = a.bit_length()
        if bits <= clear[j]:
            mag = math.log10(a) + j * log10_z  # log10 |t_n| in units
            if mag < 0:  # under one unit: the term rounds to 0
                break
            weight = a_w * (n + 2) + b_w
            if not weight or mag + math.log10(weight) < stop_digits:
                break
        if n >= cap:
            raise SeriesConvergenceError(
                f"series did not converge within {cap} terms (z={z})"
            )

    acc0, acc1 = s0[-1], s1[-1]
    for j in range(u - 2, -1, -1):
        acc0 = ((acc0 * z_m) >> -z_e) + s0[j]
        acc1 = ((acc1 * z_m) >> -z_e) + s1[j]
    final = ctx.from_fixed((alpha * acc1 + beta * acc0) >> wp, wp)

    report = ConvergenceReport(
        terms_used=len(coeffs),
        _trace=partial(_tail_trace, coeffs, u, z_m, z_e, alpha, beta, wp))
    return final, report


def _with_oracle(value: BigReal, report: ConvergenceReport, oracle: BigReal,
                 ctx: PrecisionContext) -> Tuple[BigReal, ConvergenceReport]:
    """(value, report) with ``oracle`` and the value's agreement with it recorded."""
    report.oracle = oracle
    report.final_error_vs_oracle = ctx.agreement_digits(value, oracle)
    return value, report


def _tail_trace(coeffs: List[Tuple[int, int]], u: int, z_m: int, z_e: int,
                alpha: int, beta: int, wp: int) -> List[Tuple[int, float]]:
    """(n, -log10 |S - P_n|) for n < N - 1, from the terms' leading bits.

    Term n is a_n z^(n mod u) (alpha*n + beta), with ``coeffs[n]`` = (a, s)
    the leading _TRACE_BITS bits of a_n, a_n ~ a 2^s, alpha and beta in
    units of 2^-wp and z = z_m 2^z_e.  The weight is formed exactly, so
    one that cancels at some n keeps only its fixed-point rounding there;
    the term is the product of its three factors' leading _TRACE_BITS
    bits, and the tails S - P_n are summed exactly from the end in units
    of 2^E, E the exponent of the largest term so far.
    """
    z_top, shift = _lead(z_m, _TRACE_BITS)
    z_top_e = z_e + shift
    powers = []  # z^j ~ m 2^e, m its leading _TRACE_BITS bits
    m, e = 1, 0
    for _ in range(min(u, len(coeffs))):
        powers.append((m, e))
        m, shift = _lead(m * z_top, _TRACE_BITS)
        e += z_top_e + shift
    # term n is a_top z_pow w_top 2^(a_shift + z_pow_e + w_shift - 2 wp); the
    # tail is kept in units of 2^(big - 2 wp)
    offset = 2 * wp * LOG10_2
    log10 = math.log10
    trace = []
    # no term lies below the last power of z, since a_shift, w_shift >= 0
    tail, big = 0, powers[-1][1]
    n = len(coeffs) - 1
    w = alpha * n + beta
    for a, a_shift in reversed(coeffs[1:]):
        if w:
            w_top, w_shift = _lead(w, _TRACE_BITS)
            z_pow, z_pow_e = powers[n % u]
            exp = a_shift + z_pow_e + w_shift
            if exp > big:
                tail >>= exp - big
                big = exp
            tail += (a * z_pow * w_top) >> (big - exp)
        n -= 1
        w -= alpha
        if tail:
            trace.append((n, offset - log10(abs(tail)) - big * LOG10_2))
    trace.reverse()
    return trace


def _slope(trace: List[Tuple[int, float]]) -> Optional[float]:
    """Least-squares slope of digits vs term index, n = 0 excluded."""
    pts = [(n, d) for n, d in trace if n >= 1]
    if len(pts) < 2:
        return None
    m = len(pts)
    sx = sum(n for n, _ in pts)
    sy = sum(d for _, d in pts)
    sxx = sum(n * n for n, _ in pts)
    sxy = sum(n * d for n, d in pts)
    denom = m * sxx - sx * sx
    return (m * sxy - sx * sy) / denom if denom else None


# ---------------------------------------------------------------------
# order-0 Legendre functions P_mu, from mpmath's hyp2f1
# ---------------------------------------------------------------------

def legendre_P(mu: Any, x: Any, ctx: PrecisionContext) -> BigReal:
    """P_mu(x) = 2F1(-mu, mu+1; 1; (1-x)/2) by mpmath's hyp2f1; |1-x|/2 < 1."""
    y = (1 - ctx.mpf(x)) / 2
    if abs(y) >= 1:
        raise DomainError(f"argument outside the convergence disc: (1-x)/2 = {y}")
    mu = ctx.mpf(mu)
    return ctx.hyp2f1(-mu, mu + 1, 1, y)


def phi_and_derivative(mu: Any, z: Any,
                       ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """(phi(z), phi'(z)) for phi(z) = 2F1(-mu, mu+1; 1; z) = P_mu(1-2z).

    phi and P_(1+mu) come from mpmath's hyp2f1.  The derivative uses the
    closed form

        phi'(z) = [(D0 + 2(1+mu)z) phi(z) + (1+mu) P_(1+mu)(1-2z)] / (2 z (1-z))

    with D0 = -1 - mu, rather than a term-by-term derivative; the two are
    compared against finite differences in the test suite.
    """
    mu_f = ctx.mpf(mu)
    z = ctx.mpf(z)
    if z == 0 or z == 1:
        raise DomainError(f"derivative prefactor 1/(2 z (1-z)) singular at z={z}")
    phi = ctx.hyp2f1(-mu_f, mu_f + 1, 1, z)
    bracket = ((-1 - mu_f + 2 * (1 + mu_f) * z) * phi
               + (1 + mu_f) * legendre_P(mu_f + 1, 1 - 2 * z, ctx))
    return phi, bracket / (2 * (1 - z) * z)


def closed_form(mu: Any, z: Any, ctx: PrecisionContext) -> BigReal:
    """Right side of the collapse identity: a single shifted Legendre term.

    (-1 - mu) P_(1+mu)(1-2z) / (-1 - mu + 2(mu+1) z), with P from
    mpmath's hyp2f1 (:func:`legendre_P`).
    """
    mu_f = ctx.mpf(mu)
    z = ctx.mpf(z)
    d = _weight_denominator(mu, z, ctx)
    return (-1 - mu_f) * legendre_P(mu_f + 1, 1 - 2 * z, ctx) / d


def derivative_weighted_sum(mu: Any, z: Any,
                            ctx: PrecisionContext) -> Tuple[BigReal, ConvergenceReport]:
    """Sum c_n z^n (alpha n + 1) with the collapsing alpha; oracle is the closed form.

    The left side is summed term by term in fixed point; the right side,
    kept as the report's ``oracle``, is :func:`closed_form`, whose Legendre
    function comes from mpmath's hyp2f1.
    """
    z = ctx.mpf(z)
    alpha = 2 * (z - 1) / _weight_denominator(mu, z, ctx)
    value, report = eval_series(mu, z, alpha, 1, ctx)
    return _with_oracle(value, report, closed_form(mu, z, ctx), ctx)


# ---------------------------------------------------------------------
# specializations at singular moduli
# ---------------------------------------------------------------------

def two_K_over_pi(pair: moduli.ModulusPair) -> Tuple[BigReal, ConvergenceReport]:
    """2 K(k_r)/pi as the weighted series in z = k_r^2 with mu = -3/2.

    Term weight: -4(1-z) n + (1 - 2z), with no denominator, so r = 1
    (z = 1/2) sums like any other r.  At small r, where the series cannot
    converge within the runaway ceiling, :func:`eval_series` raises
    SeriesConvergenceError, checked before z can round to 1.  The report's
    oracle is 2/pi times the pair's K, pi/(2 agm(1, k'_r)) from the stored
    k', whose AGM the defining-ratio gate of `solve_kr` already ran.
    """
    z = pair.k * pair.k
    value, report = eval_series(Fraction(-3, 2), z, -4 * (1 - z), 1 - 2 * z, pair.ctx)
    return _with_oracle(value, report, 2 * pair.K / pair.ctx.pi, pair.ctx)


def four_E_over_pi(pair: moduli.ModulusPair) -> Tuple[BigReal, ConvergenceReport]:
    """4 E(k_r)/pi as one series in z = k_r^2: mu = -1/2, weight 4(1-z) n + 2(1-z).

    With c_n = ((1/2)_n/n!)^2, the coefficients of 2K/pi = sum c_n z^n,
    E = (1-m)(K + 2m dK/dm) (Borwein & Borwein, "Pi and the AGM", ch. 1)
    gives 4E/pi = 2(1-z) sum c_n z^n (2n+1).  This is the paper's 2K/pi
    plus its mu = -1/2 sum with weight 4(1-z) n + (1 - 2z), folded into
    one sum; ``verify`` checks the two forms agree.  The weight has no
    denominator, so r = 1 is an ordinary point.  The report's oracle is
    4/pi times the pair's E, from the AGM side sum.
    """
    z = pair.k * pair.k
    value, report = eval_series(Fraction(-1, 2), z, 4 * (1 - z), 2 * (1 - z), pair.ctx)
    return _with_oracle(value, report, 4 * pair.E / pair.ctx.pi, pair.ctx)


def gamma_quarter_series(chain: List[moduli.ModulusPair]) -> Tuple[BigReal, ConvergenceReport]:
    """Gamma(1/4)^2/pi^(3/2) from the w = k_6400 series, ~108 digits per term.

    ``chain`` is :func:`moduli.chain_to_6400`'s r = 100, 400, 1600, 6400
    pairs; the sum runs at the last pair's context, as :func:`two_K_over_pi`
    sums at its pair's.  The sum in w^2 with weight -2(1-w^2) n + (1/2 - w^2)
    equals K(k_6400)/pi.  Unwinding K[6400] -> K[100] through the r -> 64r
    scaling factor and the radical K[100] = coeff * Gamma(1/4)^2/sqrt(pi)
    gives the constant.  The normalization is carried exactly from that
    chain (overall scalar 640 against the bracketed radical); a published
    1/8 prefactor variant is inconsistent with the AGM oracle and is only
    reported by the verification suite, never used.  The report's oracle is
    2/agm(1, 1/sqrt(2)); the caller reads the agreement with it from
    ``final_error_vs_oracle``, which the CLI gates at target - 5.
    """
    pair100, pair6400 = chain[0], chain[3]
    ctx = pair6400.ctx
    w = pair6400.k
    z = w * w
    sigma, report = eval_series(Fraction(-3, 2), z, -2 * (1 - z), ctx.mpf(1) / 2 - z, ctx)
    scale = moduli.k_scale_64(pair100)
    coeff = moduli.k100_radical_coefficient(ctx)
    value, report = _with_oracle(sigma / (coeff * scale), report,
                                 2 / _lemniscatic_agm(ctx), ctx)
    report.notes.append(
        "normalization derived from the modulus chain (scalar 640 = 8*80 against "
        "the bracketed radical); the published 1/8 prefactor fails the AGM oracle "
        "and is reported by `verify --selection chain`"
    )
    return value, report
