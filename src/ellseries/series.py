"""Legendre-series engine for K, E and the constant Gamma(1/4)^2/pi^(3/2).

The family summed here is

    sum_{n>=0} [(-mu)_n (1+mu)_n / (n!)^2] z^n (alpha*n + beta),

a weighted 2F1(-mu, mu+1; 1; z) = P_mu(1-2z), the Legendre function of
order 0, with Pochhammer coefficients updated incrementally.  Choosing

    alpha = 2(z-1) / (-1 - mu + 2z(1+mu)),  beta = 1

makes the derivative contribution collapse against the base
hypergeometric term, leaving a single Legendre closed form; that
identity is the engine behind the fast series for 2K/pi, 4E/pi and the
headline constant.  It is checked by comparing the fixed-point sum with a
right side evaluated by mpmath's hyp2f1, code this package did not write.

At a singular modulus the sum converges geometrically in z = k_r^2, i.e.
-2*log10(k_r) decimal digits per term: ~12.4 at r = 100 and ~108 at
r = 6400, where a handful of terms give a thousand digits.  Every series
value is checked against the AGM oracles, which share no code with this
module beyond the arithmetic substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Any, Callable, List, Optional, Tuple

from . import moduli
from .oracle import E_ref, b_quarter
from .precision import LOG10_2, BigReal, DomainError, PrecisionContext


class SingularSeriesError(ValueError):
    """Series weight is singular for these parameters (e.g. r = 1)."""


class SeriesConvergenceError(RuntimeError):
    """Runaway-term guard tripped before the tail fell under tolerance."""


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one weighted hypergeometric sum.

    ``alpha``/``beta`` weight each term as (alpha*n + beta); beta = 1 is
    the normalized form whose value is a single Legendre-type term.
    The coefficients are [(-mu)_n (1+mu)_n / (n!)^2] z^n.  Construct
    through :func:`make_series_spec`, which checks that 0 < z < 1 and that
    the weight denominator D = -1 - mu + 2z(1+mu) is bounded away from zero.
    """

    mu: Fraction
    z: BigReal
    alpha: BigReal
    beta: BigReal


@dataclass
class ConvergenceReport:
    """Measured convergence of one summation.

    ``error_trace`` holds (n, -log10 |partial_n - final|); the slope of
    that trace (excluding n = 0, whose error reflects the constant's own
    magnitude) is ``digits_per_term``.  Both are computed from ``_trace``
    when first read: a sum whose caller reads only its value pays nothing
    for them.  ``final_error_vs_oracle`` is the decimal agreement with the
    designated independent oracle, and ``oracle`` is that oracle's value
    when it was passed to :func:`eval_series`.
    """

    terms_used: int
    _trace: Callable[[], List[Tuple[int, float]]] = field(repr=False, compare=False)
    final_error_vs_oracle: Optional[float] = None
    oracle: Optional[BigReal] = None
    notes: List[str] = field(default_factory=list)

    @cached_property
    def error_trace(self) -> List[Tuple[int, float]]:
        return self._trace()

    @cached_property
    def digits_per_term(self) -> Optional[float]:
        return _slope(self.error_trace)


def _as_fraction(x: Any) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"expected a rational parameter, got {type(x).__name__}")


def make_series_spec(mu: Any, z: Any, alpha: Any, beta: Any,
                     ctx: PrecisionContext) -> SeriesSpec:
    mu = _as_fraction(mu)
    z = ctx.mpf(z)
    if not (0 < z < 1):
        raise DomainError(f"series variable must satisfy 0 < z < 1, got {z}")
    _weight_denominator(mu, z, ctx)
    return SeriesSpec(mu=mu, z=z, alpha=ctx.mpf(alpha), beta=ctx.mpf(beta))


def _term_ratio(n: int, p: int, q: int) -> Tuple[int, int]:
    """c_{n+1}/c_n = (-mu+n)(1+mu+n) / (n+1)^2 for mu = p/q as exact (num, den).

    That is (nq - p)(q + p + nq) / (q^2 (n+1)^2) with den > 0, unreduced,
    since the kernel's floor of num/den ignores a common factor and a gcd
    is costly.  It takes p and q, not a Fraction, whose property reads
    would cost the per-term loop more than the arithmetic does.
    """
    return (n * q - p) * (q + p + n * q), q * q * (n + 1) ** 2


def _weight_denominator(mu: Any, z: BigReal, ctx: PrecisionContext) -> BigReal:
    """D = -1 - mu + 2z(1+mu); the collapsing weight slope is alpha = 2(z-1)/D.

    Raises when D is numerically zero (for the 2K/pi parameter mu = -3/2
    that happens exactly at z = 1/2, i.e. r = 1).
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


def _predicted_terms(z: BigReal, ctx: PrecisionContext) -> float:
    """working_digits/|log10 z|, the term count the geometric ratio z predicts."""
    log10z = abs(ctx.log10_abs(z))
    return ctx.working_digits / log10z if log10z > 0 else math.inf


def _require_convergent(z: BigReal, ctx: PrecisionContext) -> None:
    """Raise before summing past the ceiling; inf means z is within 1e-16 of 1."""
    predicted = _predicted_terms(z, ctx)
    if predicted > RUNAWAY_TERM_CEILING:
        need = f"about {predicted:.3g}" if predicted < math.inf else "over 1e16"
        raise SeriesConvergenceError(
            f"series would need {need} terms for {ctx.working_digits} digits, "
            f"more than the {RUNAWAY_TERM_CEILING}-term ceiling; use --method agm")


def _max_terms(z: BigReal, ctx: PrecisionContext) -> int:
    """Runaway guard: ~10x the predicted term count, at most the ceiling."""
    predicted = min(_predicted_terms(z, ctx), RUNAWAY_TERM_CEILING)
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


def eval_series(spec: SeriesSpec, ctx: PrecisionContext,
                n_terms: Optional[int] = None,
                oracle: Optional[BigReal] = None,
                term_cap: Optional[int] = None) -> Tuple[BigReal, ConvergenceReport]:
    """Sum the weighted series and instrument its convergence.

    Stops when the next term bound (including the (alpha*n + beta) growth
    factor) falls below 10^(-working_digits), or after exactly ``n_terms``
    terms when given; a term under one fixed-point unit ends the sum at
    once, as does a zero coefficient.  ``term_cap`` overrides the runaway
    guard (exceeding it raises, signalling a bug or a pathologically slow
    z).  Without ``n_terms``, a z whose predicted term count
    working_digits/|log10 z| exceeds RUNAWAY_TERM_CEILING raises before
    the first term.

    The sum runs in binary fixed point, with z, alpha, beta and the terms
    as integers in units of 2^-wp (the working precision plus guard bits
    that grow with log2 of the term cap), by Smith's concurrent sums
    (D. M. Smith, Math. Comp. 52 (1989) 131-134; the rectangular
    splitting of F. Johansson, arXiv:1310.2346).  With u ~ sqrt of the
    predicted term count, term n is t_n = a_n z^(n mod u): the running
    coefficient a_n steps by the exact integer ratio of
    :func:`_term_ratio`, a linear-cost multiply and divide, and takes the
    full-width z^u once per u terms.  Class n mod u keeps sum(a_n) and
    sum(n a_n); at the end Horner's rule in z combines the classes and the
    weight alpha*n + beta is applied twice.  That is about 4 sqrt(N)
    full-width multiplies for N terms instead of 2N.

    The sum never forms partial sums.  The stop rule reads the float
    magnitude log10|t_n| = log10|a_n| + (n mod u) log10 z, so N is fixed
    in the same pass.  The error trace -log10|P_n - S| and its
    least-squares digits-per-term slope come from :func:`_tail_trace`
    when the report is first read.
    """
    if n_terms is None:
        _require_convergent(spec.z, ctx)
    cap = term_cap if term_cap is not None else _max_terms(spec.z, ctx)
    wp = ctx.prec + 2 * (n_terms or cap).bit_length()
    one = 1 << wp
    alpha = ctx.to_fixed(spec.alpha, wp)
    beta = ctx.to_fixed(spec.beta, wp)
    u = max(1, math.isqrt(math.ceil(min(_predicted_terms(spec.z, ctx), n_terms or cap))))
    # z = z_m 2^z_e and z^u = zu_m 2^zu_e to wp significant bits: a product
    # with a_n or a class sum then errs by a unit of that product, not of z
    z_e = ctx.mag(spec.z) - wp
    z_m = ctx.to_fixed(spec.z, -z_e)
    zu_m, zu_e = _pow_lead(z_m, z_e, u, wp)

    log10_z = ctx.log10_abs(spec.z)
    log2_z = log10_z / LOG10_2
    # stop rule |t_n| (|alpha| (n+2) + |beta|) < 10^-w in log10 of units,
    # with the weight a float scaled by 2^-w_bits.  Neither it nor the
    # one-unit floor can hold while log2 |t_n| >= near, so a bit length
    # screens each term.
    w_bits = max(abs(alpha), abs(beta), 1).bit_length()
    a_w, b_w = abs(alpha) / (1 << w_bits), abs(beta) / (1 << w_bits)
    stop_digits = (2 * wp - w_bits) * LOG10_2 - ctx.working_digits
    w_min = 2 * a_w + b_w
    near = 0.0
    if n_terms is None:
        near = (max(0.0, (stop_digits - math.log10(w_min)) / LOG10_2) if w_min
                else math.inf)

    p, q = spec.mu.numerator, spec.mu.denominator
    s0 = [0] * u  # sum of a_n over n = j mod u
    s1 = [0] * u  # sum of n a_n
    coeffs = []  # signed a_n, for the error trace
    a, positive = one, True  # |a_n| and its sign
    n = j = 0
    while True:
        term = a if positive else -a
        s0[j] += term
        s1[j] += n * term
        coeffs.append(term)
        n += 1
        if n == n_terms:
            break
        num, den = _term_ratio(n - 1, p, q)
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
        if a.bit_length() - 1 + j * log2_z < near:
            mag = math.log10(a) + j * log10_z  # log10 |t_n| in units
            if mag < 0:  # under one unit: the term rounds to 0
                break
            if n_terms is None and (not w_min or mag + math.log10(a_w * (n + 2) + b_w)
                                    < stop_digits):
                break
        if n >= cap and n_terms is None:
            raise SeriesConvergenceError(
                f"series did not converge within {cap} terms "
                f"(z={spec.z}, alpha={spec.alpha}, beta={spec.beta})"
            )

    acc0, acc1 = s0[-1], s1[-1]
    for j in range(u - 2, -1, -1):
        acc0 = ((acc0 * z_m) >> -z_e) + s0[j]
        acc1 = ((acc1 * z_m) >> -z_e) + s1[j]
    final = ctx.from_fixed((alpha * acc1 + beta * acc0) >> wp, wp)

    report = ConvergenceReport(
        terms_used=n_terms or len(coeffs),
        _trace=partial(_tail_trace, coeffs, u, z_m, z_e, alpha, beta, wp),
        final_error_vs_oracle=(
            ctx.agreement_digits(final, oracle) if oracle is not None else None
        ),
        oracle=oracle,
    )
    return final, report


# leading bits kept of each factor of a term in the error trace: a tail
# that cancels to 10^-c of its largest term keeps ~(0.3 _TRACE_BITS - c)
# digits
_TRACE_BITS = 128


def _tail_trace(coeffs: List[int], u: int, z_m: int, z_e: int, alpha: int,
                beta: int, wp: int) -> List[Tuple[int, float]]:
    """(n, -log10 |S - P_n|) for n < N - 1, from the terms' leading bits.

    Term n is a_n z^(n mod u) (alpha*n + beta), with a_n = ``coeffs[n]``,
    alpha and beta in units of 2^-wp and z = z_m 2^z_e.  It is formed as
    the product of its factors' leading _TRACE_BITS bits, and the tails
    S - P_n are summed exactly from the end in units of 2^E, E the
    exponent of the largest term so far.
    """
    z_top, shift = _lead(z_m, _TRACE_BITS)
    z_top_e = z_e + shift
    powers = []  # z^j ~ m 2^e, m its leading _TRACE_BITS bits
    m, e = 1, 0
    for _ in range(min(u, len(coeffs))):
        powers.append((m, e))
        m, shift = _lead(m * z_top, _TRACE_BITS)
        e += z_top_e + shift
    w_shift = max(max(abs(alpha), abs(beta)).bit_length() - _TRACE_BITS, 0)
    alpha_top, beta_top = alpha >> w_shift, beta >> w_shift

    # term n is a_top z_pow w_top 2^(a_shift + z_pow_e + w_shift - 2 wp); the
    # tail is kept in units of 2^(big + w_shift - 2 wp)
    offset = (2 * wp - w_shift) * LOG10_2
    log10 = math.log10
    trace = []
    # no term lies below the last power of z, since a_shift >= 0
    tail, big = 0, powers[-1][1]
    n = len(coeffs) - 1
    w_top = alpha_top * n + beta_top
    for a in reversed(coeffs[1:]):
        a_shift = a.bit_length() - _TRACE_BITS
        if a_shift > 0:
            a >>= a_shift
        else:
            a_shift = 0
        z_pow, z_pow_e = powers[n % u]
        exp = a_shift + z_pow_e
        if exp > big:
            tail >>= exp - big
            big = exp
        tail += (a * z_pow * w_top) >> (big - exp)
        n -= 1
        w_top -= alpha_top
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
    spec = make_series_spec(mu, z, alpha, 1, ctx)
    rhs = closed_form(mu, z, ctx)
    return eval_series(spec, ctx, oracle=rhs)


# ---------------------------------------------------------------------
# specializations at singular moduli
# ---------------------------------------------------------------------

def two_K_over_pi(pair: moduli.ModulusPair,
                  ctx: PrecisionContext) -> Tuple[BigReal, ConvergenceReport]:
    """2 K(k_r)/pi as the weighted series in z = k_r^2 with mu = -3/2.

    Term weight: -4(1-z) n + (1 - 2z).  At r = 1 (z = 1/2) the weight
    denominator 1/2 - z vanishes and :func:`make_series_spec` raises
    SingularSeriesError; use the AGM oracle there.  At small r, where the
    series cannot converge within the runaway ceiling, it raises
    SeriesConvergenceError, checked before z can round to 1.  The report's
    oracle is 2/pi times the pair's K, pi/(2 agm(1, k'_r)) from the stored
    k', whose AGM the defining-ratio gate already ran.
    """
    z = pair.k * pair.k
    _require_convergent(z, ctx)
    spec = make_series_spec(Fraction(-3, 2), z, -4 * (1 - z), 1 - 2 * z, ctx)
    return eval_series(spec, ctx, oracle=2 * pair.K(ctx) / ctx.pi)


def four_E_over_pi(pair: moduli.ModulusPair,
                   ctx: PrecisionContext) -> Tuple[BigReal, ConvergenceReport]:
    """4 E(k_r)/pi = 2 K(k_r)/pi + sum with mu = -1/2 and weight 4(1-z) n + (1 - 2z).

    The 2K/pi addend comes from its own series; the r = 1 singularity
    propagates.  The report's oracle is 4 E_ref/pi from the AGM side sum.
    """
    z = pair.k * pair.k
    two_k, _ = two_K_over_pi(pair, ctx)
    spec = make_series_spec(Fraction(-1, 2), z, 4 * (1 - z), 1 - 2 * z, ctx)
    sigma, report = eval_series(spec, ctx)
    value = two_k + sigma
    report.oracle = 4 * E_ref(pair.k, ctx) / ctx.pi
    report.final_error_vs_oracle = ctx.agreement_digits(value, report.oracle)
    return value, report


def gamma_quarter_series(ctx: PrecisionContext,
                         n_terms: Optional[int] = None) -> Tuple[BigReal, ConvergenceReport]:
    """Gamma(1/4)^2/pi^(3/2) from the w = k_6400 series, ~108 digits per term.

    The sum in w^2 with weight -2(1-w^2) n + (1/2 - w^2) equals
    K(k_6400)/pi.  Unwinding K[6400] -> K[100] through the r -> 64r
    scaling factor and the radical K[100] = coeff * Gamma(1/4)^2/sqrt(pi)
    gives the constant.  The normalization is carried exactly from that
    chain (overall scalar 640 against the bracketed radical); a published
    1/8 prefactor variant is inconsistent with the AGM oracle and is only
    reported by the verification suite, never used.  The result must match
    b_quarter/pi to working tolerance or this function raises.
    """
    chain = moduli.chain_to_6400(ctx)
    pair100, pair6400 = chain[0], chain[3]
    w = pair6400.k
    z = w * w
    spec = make_series_spec(Fraction(-3, 2), z, -2 * (1 - z), ctx.mpf(1) / 2 - z, ctx)
    sigma, report = eval_series(spec, ctx, n_terms=n_terms)
    scale = moduli.k_scale_64(pair100, ctx)
    coeff = moduli.k100_radical_coefficient(ctx)
    value = sigma / (coeff * scale)
    oracle = b_quarter(ctx) / ctx.pi
    report.final_error_vs_oracle = ctx.agreement_digits(value, oracle)
    report.notes.append(
        "normalization derived from the modulus chain (scalar 640 = 8*80 against "
        "the bracketed radical); the published 1/8 prefactor fails the AGM oracle "
        "and is reported by `verify --selection chain`"
    )
    if n_terms is None and report.final_error_vs_oracle < ctx.target_digits - 5:
        raise RuntimeError(
            f"headline constant disagrees with the AGM oracle: "
            f"{report.final_error_vs_oracle:.1f} digits at target {ctx.target_digits}"
        )
    return value, report
