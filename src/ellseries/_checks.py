"""The check bodies behind `verify.run_verify`, one generator per group.

Each check pits two independently computed quantities against each other
(series vs AGM, closed radical vs theta quotient, Landen ascent vs theta
quotient, derivative closed form vs finite differences) and records the
agreement in decimal digits.  The theta checks share their mathematics
with the moduli.py theta quotient that supplies k_r, so the independent
gate on k_r is the AGM defining ratio (solve-defining-ratio).  The
published-radical audits (the k'_400 coefficient and the headline-series
prefactor) are report-style checks: they pass when the expected mismatch
is observed and the corrected form verifies.

`verify.run_verify` imports this module on its first call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from . import moduli, series
from .oracle import (E_ref, K_E_ref, K_ref, agm, b_quarter, gamma_quarter_ref, nome,
                     theta3)
from .precision import BigReal, PrecisionContext, make_context

# detail suffix of the checks that compare k_r with oracle.theta3
_THETA_SHARED = ("k_r from the moduli.py theta quotient: separate code, same "
                 "mathematics as theta3; independent gate: solve-defining-ratio")

# a check function's row, which run_verify labels with the check's group:
# (name, passed, detail, residual_digits)
_Row = Tuple[str, bool, str, Optional[float]]


class _SolveCache:
    """Per-run memo of every value two checks read (all pure in ctx):
    theta-quotient pairs, their 2K/pi series, theta3 at their nomes, the
    r = 100..6400 chain, b(1/4), and the headline constant, summed over the
    cached chain, with its agreement with gamma_quarter_ref.  K(k_r) and
    E(k_r) are each pair's own."""

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        self._pairs: Dict[Fraction, moduli.ModulusPair] = {}
        self._two_K: Dict[Fraction, tuple] = {}
        self._theta3: Dict[Fraction, BigReal] = {}

    def pair(self, r) -> moduli.ModulusPair:
        r = Fraction(r)
        if r not in self._pairs:
            self._pairs[r] = moduli.solve_kr(r, self.ctx)
        return self._pairs[r]

    def two_K_over_pi(self, r) -> tuple:
        r = Fraction(r)
        if r not in self._two_K:
            self._two_K[r] = series.two_K_over_pi(self.pair(r))
        return self._two_K[r]

    def theta3(self, r):
        """theta3(q_r) at the nome q_r = exp(-pi sqrt(r))."""
        r = Fraction(r)
        if r not in self._theta3:
            self._theta3[r] = theta3(nome(r, self.ctx), self.ctx)
        return self._theta3[r]

    @cached_property
    def chain(self) -> List[moduli.ModulusPair]:
        return moduli.chain_to_6400(self.ctx)

    @cached_property
    def b_quarter(self):
        return b_quarter(self.ctx)

    @cached_property
    def headline(self):
        return series.gamma_quarter_series(self.chain)

    @cached_property
    def headline_agreement(self) -> float:
        return self.ctx.agreement_digits(self.headline[0], gamma_quarter_ref(self.ctx))


def _residual_check(name: str, ctx: PrecisionContext, worst_abs, threshold_digits: int,
                    detail: str = "", ok: bool = True) -> _Row:
    """Passes when |worst_abs| <= 10^-threshold_digits and ``ok`` holds."""
    digits = ctx.abs_residual_digits(worst_abs)
    passed = ok and abs(ctx.mpf(worst_abs)) <= ctx.tol(threshold_digits)
    # signed exponent: a residual of 1 or more has negative digits
    msg = f"residual 1e{-digits:+.1f} (needs 1e-{threshold_digits})"
    if detail:
        msg = f"{detail}; {msg}"
    return name, passed, msg, digits


def _oracle_checks(ctx: PrecisionContext, cache: _SolveCache) -> Iterator[_Row]:
    t5 = ctx.target_digits - 5

    yield _residual_check("agm-fixed-point", ctx, agm(ctx.one, ctx.one, ctx) - 1, t5)

    # agm(1, sqrt(2)), which the homogeneity row reads too
    agm_sqrt2 = agm(ctx.one, ctx.sqrt(2), ctx)
    worst = abs(agm_sqrt2 - agm(ctx.sqrt(2), ctx.one, ctx))
    for a, b in ((ctx.mpf("0.25"), ctx.mpf(3)), (ctx.mpf("1e-6"), ctx.mpf(7))):
        worst = max(worst, abs(agm(a, b, ctx) - agm(b, a, ctx)))
    yield _residual_check("agm-symmetry", ctx, worst, t5)

    worst = ctx.zero
    for lam in (ctx.mpf(3), ctx.mpf("0.125"), ctx.pi):
        worst = max(worst, abs(agm(lam, lam * ctx.sqrt(2), ctx) - lam * agm_sqrt2))
    yield _residual_check("agm-homogeneity", ctx, worst, t5)

    yield _residual_check("K-at-zero", ctx, K_ref(0, ctx) - ctx.pi / 2, t5)

    # (K, E) at each grid k and at its complement k', one AGM run each
    grid = [ctx.mpf(i) / 10 for i in range(1, 10)]
    ke = [(K_E_ref(k, ctx), K_E_ref(ctx.sqrt(1 - k * k), ctx)) for k in grid]
    ks = [K_k for (K_k, _), _ in ke]
    monotone = all(ks[i] < ks[i + 1] for i in range(len(ks) - 1))
    yield "K-strictly-increasing", monotone, "grid k=0.1..0.9", None

    worst = max(abs(E_ref(0, ctx) - ctx.pi / 2), abs(E_ref(1, ctx) - 1))
    yield _residual_check("E-endpoints", ctx, worst, t5)

    worst = ctx.zero
    for (K_k, E_k), (K_kp, E_kp) in ke:
        lhs = E_k * K_kp + E_kp * K_k - K_k * K_kp
        worst = max(worst, abs(lhs - ctx.pi / 2))
    yield _residual_check("legendre-relation", ctx, worst, t5,
                          detail="E(k)K(k')+E(k')K(k)-K(k)K(k') = pi/2 on grid")

    yield _residual_check(
        "K-lemniscatic", ctx,
        K_ref(ctx.sqrt(2) / 2, ctx) - cache.b_quarter / 4, t5,
        detail="K(1/sqrt2) = Gamma(1/4)^2/(4 sqrt(pi))")

    worst = ctx.zero
    for r in (1, 2, 3, 4):
        pair = cache.pair(r)
        th = cache.theta3(r)
        worst = max(worst, abs(2 * pair.K / ctx.pi - th * th))
    yield _residual_check("theta-K-identity", ctx, worst, t5,
                          detail=f"2K(k_r)/pi = theta3(q)^2, r in {{1,2,3,4}}; "
                                 f"{_THETA_SHARED}")

    worst = ctx.zero
    for r in (1, 2, 4):
        pair = cache.pair(r)
        th = cache.theta3(r)
        worst = max(worst, abs(th * th * ctx.pi / 2 - pair.K))
    yield _residual_check("theta-nome-K", ctx, worst, t5,
                          detail=f"theta3(q)^2 pi/2 = K(k_r), r in {{1,2,4}}; "
                                 f"{_THETA_SHARED}")


def _moduli_checks(ctx: PrecisionContext, cache: _SolveCache) -> Iterator[_Row]:
    t5 = ctx.target_digits - 5
    t10 = ctx.target_digits - 10
    w5 = ctx.working_digits - 5

    worst = max(moduli.eq2_residual(cache.pair(r)) for r in (2, 3, 5, 10))
    yield _residual_check("solve-defining-ratio", ctx, worst, w5,
                          detail="|K(k')/K(k) - sqrt(r)| for solved pairs")

    worst = ctx.zero
    for r in (1, 2, 3, 5):
        up = moduli.landen_up(cache.pair(r))
        worst = max(worst, abs(up.k - cache.pair(4 * Fraction(r)).k))
    yield _residual_check("landen-vs-solve", ctx, worst, t10,
                          detail="ascent of k_r matches solve at 4r, r in {1,2,3,5}")

    closed = cache.chain[0]
    yield _residual_check("k100-closed-vs-solve", ctx, closed.k - cache.pair(100).k, t10)

    yield _residual_check(
        "K100-radical-vs-agm", ctx,
        moduli.k100_radical_coefficient(ctx) * cache.b_quarter - closed.K, t10)

    worst_poly = ctx.zero
    worst_ratio = ctx.zero
    in_range = True
    for n in (2, 3, 5):
        for m in (1, 2):
            res = moduli.multiplier(n, cache.pair(m), cache.pair(n * n * m))
            in_range = in_range and (0 < res.value < 1)
            worst_poly = max(worst_poly, abs(res.residual))
            km = cache.pair(m).K
            kn2m = cache.pair(n * n * m).K
            worst_ratio = max(worst_ratio, abs(kn2m - res.value * km) / km)
    yield _residual_check("multiplier-polynomials", ctx, worst_poly, t10,
                          detail="defining-equation residual, n in {2,3,5}, m in {1,2}",
                          ok=in_range)
    yield _residual_check("multiplier-K-ratios", ctx, worst_ratio, ctx.target_digits - 15,
                          detail="|K[n^2 m] - M K[m]|/K[m]")

    p1 = cache.pair(1)
    K1 = p1.K
    yield _residual_check(
        "scale16-at-r1", ctx,
        moduli.k_scale_16(p1) * K1 - cache.pair(16).K, t10,
        detail="((1+sqrt(k'))/2)^2 maps K[1] to K[16]")
    yield _residual_check(
        "scale64-at-r1", ctx,
        moduli.k_scale_64(p1) * K1 - cache.pair(64).K, t10,
        detail="(sqrt(1+k')+sqrt(2 sqrt(k')))^2/8 maps K[1] to K[64]")

    f16_twice = moduli.k_scale_16(p1) * moduli.k_scale_16(cache.pair(16))
    yield _residual_check(
        "scale16-twice-to-256", ctx,
        f16_twice * K1 - cache.pair(256).K, t10,
        detail="two 16x scalings map K[1] to K[256]")

    worst = ctx.zero
    for pair in (p1, closed):
        m2_16r = (1 + moduli.landen_up(moduli.landen_up(pair)).k_prime) / 2
        lhs = moduli.k_scale_64(pair)
        rhs = moduli.k_scale_16(pair) * m2_16r
        worst = max(worst, abs(lhs - rhs))
    yield _residual_check(
        "scale64-composition", ctx, worst, t5,
        detail="64x factor = 16x factor times (1+k'_{16r})/2, r in {1,100}")


def _series_checks(ctx: PrecisionContext, cache: _SolveCache) -> Iterator[_Row]:
    t5 = ctx.target_digits - 5

    ctx50 = make_context(50)
    rng = random.Random(0x5EED)
    worst50 = ctx50.zero
    count = 0
    while count < 50:
        mu = rng.uniform(-2.0, -0.1)
        z = rng.uniform(0.01, 0.4)
        if abs((1 + mu) * (2 * z - 1)) < 0.05:
            continue
        value, _ = series.derivative_weighted_sum(mu, z, ctx50)
        worst50 = max(worst50, abs(value - series.closed_form(mu, z, ctx50)))
        count += 1
    yield _residual_check("collapse-identity-random", ctx50, worst50, 40,
                          detail="50 samples mu in (-2,-0.1), z in (0.01,0.4)")

    ctx60 = make_context(60)
    h = ctx60.tol(20)
    worst_fd = 0.0
    for mu, z in ((Fraction(-3, 2), ctx60.mpf("0.2")), (Fraction(-7, 10), ctx60.mpf("0.35"))):
        mu = ctx60.mpf(mu)
        _, dphi = series.phi_and_derivative(mu, z, ctx60)
        # phi(z +- h) = 2F1(-mu, mu+1; 1; z +- h), as phi_and_derivative forms phi
        fd = (ctx60.hyp2f1(-mu, mu + 1, 1, z + h)
              - ctx60.hyp2f1(-mu, mu + 1, 1, z - h)) / (2 * h)
        agree = ctx60.agreement_digits(dphi, fd)
        worst_fd = agree if worst_fd == 0.0 else min(worst_fd, agree)
    yield ("derivative-vs-finite-difference", worst_fd >= 25,
           f"closed form vs central difference: {worst_fd:.1f} digits (needs >= 25)",
           worst_fd)

    worst = ctx.zero
    for r in (2, 3, 4, 100):
        pair = cache.pair(r)
        val, _ = cache.two_K_over_pi(r)
        agm_side = 2 * pair.K / ctx.pi
        th = cache.theta3(r) ** 2
        worst = max(worst, abs(val - agm_side), abs(val - th), abs(agm_side - th))
    yield _residual_check("first-kind-triple", ctx, worst, t5,
                          detail=f"series = 2K/pi = theta3^2 pairwise, r in "
                                 f"{{2,3,4,100}}; {_THETA_SHARED}")

    worst = ctx.zero
    for r in (2, 3, 4):
        pair = cache.pair(r)
        val, _ = series.four_E_over_pi(pair)
        # the paper's form: 2K/pi plus the mu = -1/2 sum with weight 4(1-z) n + (1-2z)
        z = pair.k * pair.k
        sigma, _ = series.eval_series(Fraction(-1, 2), z, 4 * (1 - z), 1 - 2 * z, ctx)
        paper = cache.two_K_over_pi(r)[0] + sigma
        worst = max(worst, abs(val - 4 * pair.E / ctx.pi), abs(paper - val))
    yield _residual_check("second-kind-vs-agm", ctx, worst, t5,
                          detail="series = 4E/pi from the AGM side sum, and "
                                 "series = 2K/pi + mu = -1/2 sum (the paper's "
                                 "two-sum form), r in {2,3,4}")

    ok = True
    details = []
    for r in (4, 100):
        pair = cache.pair(r)
        _, report = cache.two_K_over_pi(r)
        expect = -2 * ctx.log10_abs(pair.k)
        slope = report.digits_per_term
        details.append(f"r={r}: slope {slope:.2f} vs -2log10(k) = {expect:.2f}")
        ok = ok and slope is not None and abs(slope - expect) <= 0.1 * expect
    yield "digits-per-term-slope", ok, "; ".join(details) + " (within 10%)", None

    # a run 110 digits (about one term) wider sums one more term past the
    # stop rule and must agree to the target
    value, report = cache.headline
    wide = make_context(ctx.target_digits + 110)
    v_wide, wide_report = series.gamma_quarter_series(moduli.chain_to_6400(wide))
    yield _residual_check("headline-termination-insensitive", ctx, value - v_wide, t5,
                          detail=f"{report.terms_used} terms (stop rule) vs "
                                 f"{wide_report.terms_used} at {wide.target_digits} digits")

    agreement = cache.headline_agreement
    yield ("headline-vs-oracle", agreement >= t5,
           f"agreement {agreement:.1f} digits at target {ctx.target_digits} "
           f"({report.terms_used} terms)", agreement)


def _chain_checks(ctx: PrecisionContext, cache: _SolveCache) -> Iterator[_Row]:
    t5 = ctx.target_digits - 5
    t10 = ctx.target_digits - 10
    w5 = ctx.working_digits - 5

    pairs = cache.chain
    worst = max(moduli.eq2_residual(pair) for pair in pairs)
    yield _residual_check("stage-defining-ratios", ctx, worst, w5,
                          detail="r = 100, 400, 1600, 6400")

    comps = {c.label: c for c in moduli.chain_printed_comparison(ctx)}
    for label, key in (("published-k400", "k_400"),
                       ("published-k1600", "k_1600"),
                       ("published-k6400", "k_6400")):
        c = comps[key]
        yield (label, c.agreement_digits >= t10,
               f"published radical vs chain: {c.agreement_digits:.1f} digits",
               c.agreement_digits)

    typo = comps["k'_400 (published coefficient 2^(7/3))"]
    fixed = comps["k'_400 (corrected coefficient 2^(7/4))"]
    pair400 = pairs[1]
    identity_ok = abs(pair400.k ** 2 + pair400.k_prime ** 2 - 1) <= ctx.tol(w5)
    ratio_ok = moduli.eq2_residual(pair400) <= ctx.tol(w5)
    yield ("kprime400-coefficient-audit",
           typo.agreement_digits < 2 and fixed.agreement_digits >= t10
           and identity_ok and ratio_ok,
           f"published 2^(7/3) form matches to only {typo.agreement_digits:.1f} digits "
           f"(published/derived = 2^(7/12) ~ 1.4983); corrected 2^(7/4) form matches to "
           f"{fixed.agreement_digits:.1f} digits; chain k'_400 satisfies the modulus "
           f"identity and the defining ratio at r = 400",
           fixed.agreement_digits)

    yield _residual_check(
        "K6400-scaling-map", ctx,
        moduli.k_scale_64(pairs[0]) * pairs[0].K - pairs[3].K, t10,
        detail="64x factor maps K[100] to K[6400]")

    yield _residual_check(
        "K100-radical", ctx,
        moduli.k100_radical_coefficient(ctx) * cache.b_quarter - pairs[0].K, t10)

    agreement = cache.headline_agreement
    yield ("normalization-derived", agreement >= t5,
           f"chain-derived prefactor reproduces Gamma(1/4)^2/pi^(3/2) to "
           f"{agreement:.1f} digits", agreement)

    agree_pub = ctx.agreement_digits(cache.headline[0] / 5120, cache.b_quarter / ctx.pi)
    yield ("normalization-published-mismatch", agree_pub < 1,
           f"published 1/8 prefactor is off by the exact factor 5120 "
           f"(= 640*8): agreement {agree_pub:.1f} digits; not used anywhere", None)
