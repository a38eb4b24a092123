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
from typing import Any, List, Optional, Tuple

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
    magnitude) is ``digits_per_term``.  ``final_error_vs_oracle`` is the
    decimal agreement with the designated independent oracle, and
    ``oracle`` is that oracle's value when it was passed to
    :func:`eval_series`.
    """

    terms_used: int
    error_trace: List[Tuple[int, float]]
    digits_per_term: Optional[float]
    final_error_vs_oracle: Optional[float] = None
    oracle: Optional[BigReal] = None
    notes: List[str] = field(default_factory=list)


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


def _term_ratio(n: int, mu: Fraction) -> Tuple[int, int]:
    """c_{n+1}/c_n = (-mu+n)(1+mu+n) / (n+1)^2 as exact (num, den), den > 0.

    For mu = p/q: (nq - p)(q + p + nq) / (q^2 (n+1)^2), unreduced, since the
    kernel's floor of num/den ignores a common factor and a gcd is costly.
    """
    p, q = mu.numerator, mu.denominator
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


def eval_series(spec: SeriesSpec, ctx: PrecisionContext,
                n_terms: Optional[int] = None,
                oracle: Optional[BigReal] = None,
                term_cap: Optional[int] = None) -> Tuple[BigReal, ConvergenceReport]:
    """Sum the weighted series and instrument its convergence.

    Stops when the next term bound (including the (alpha*n + beta) growth
    factor) falls below 10^(-working_digits), or after exactly ``n_terms``
    terms when given; a term that rounds to exactly 0 ends the sum at once,
    since every later term is 0 too.  ``term_cap`` overrides the runaway
    guard (exceeding it raises, signalling a bug or a pathologically slow
    z).  Without
    ``n_terms``, a z whose predicted term count working_digits/|log10 z|
    exceeds RUNAWAY_TERM_CEILING raises before the first term.

    The sum runs in binary fixed point: z, alpha, beta and each term are
    integers in units of 2^-wp, where wp is the working precision plus
    guard bits that grow with log2 of the term cap, and each term
    follows from the last through the exact integer ratio of
    :func:`_term_ratio`.  Partial sums are kept as those integers; the
    error trace and the least-squares digits-per-term slope are read from
    them with float logarithms of exact integer differences.
    """
    if n_terms is None:
        _require_convergent(spec.z, ctx)
    cap = term_cap if term_cap is not None else _max_terms(spec.z, ctx)
    wp = ctx.prec + 2 * (n_terms or cap).bit_length()
    one = 1 << wp
    z = ctx.to_fixed(spec.z, wp)
    alpha = ctx.to_fixed(spec.alpha, wp)
    beta = ctx.to_fixed(spec.beta, wp)
    eps = one // 10 ** ctx.working_digits

    t = one  # c_n z^n
    s = 0
    partials: List[int] = []
    n = 0
    while True:
        s += (t * (alpha * n + beta)) >> wp
        partials.append(s)
        n += 1
        if n_terms is not None and n >= n_terms:
            break
        num, den = _term_ratio(n - 1, spec.mu)
        prod = ((t * z) >> wp) * num
        # round toward zero: terms may be negative
        t = prod // den if prod >= 0 else -(-prod // den)
        if t == 0:
            break
        if n_terms is None:
            bound = (abs(t) * (abs(alpha) * (n + 2) + abs(beta))) >> wp
            if bound < eps:
                break
            if n >= cap:
                raise SeriesConvergenceError(
                    f"series did not converge within {cap} terms "
                    f"(z={spec.z}, alpha={spec.alpha}, beta={spec.beta})"
                )

    final = ctx.from_fixed(s, wp)
    # -log10 |P_n - S| with P_n - S in units of 2^-wp
    unit_digits = wp * LOG10_2
    trace = [(i, unit_digits - math.log10(abs(p - s)))
             for i, p in enumerate(partials[:-1]) if p != s]
    report = ConvergenceReport(
        terms_used=n_terms or len(partials),
        error_trace=trace,
        digits_per_term=_slope(trace),
        final_error_vs_oracle=(
            ctx.agreement_digits(final, oracle) if oracle is not None else None
        ),
        oracle=oracle,
    )
    return final, report


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
