"""Singular moduli: theta quotients, Landen ascent, closed forms.

The singular modulus k_r is the unique k in (0,1) with
K(k')/K(k) = sqrt(r), where k' = sqrt(1 - k^2).  This module evaluates it
in closed form as the theta quotient k_r = theta2(q)^2/theta3(q)^2 at
q = e^(-pi sqrt(r)), ascends r -> 4r with the Landen transformation,
carries the closed form for k_100 up the chain to k_6400, evaluates the
multipliers M_n = K[n^2 m]/K[m] for n = 2, 3, 5 from their algebraic
equations, and provides the K-scaling factors for r -> 16r and r -> 64r.

The theta sums here are written apart from oracle.theta3, sharing only the
arithmetic substrate; every pair satisfies the modulus identity, every
solved pair is validated numerically at working precision against the AGM
defining ratio, and no symbolic radical manipulation is attempted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple

from .oracle import AGMRun, _agm, agm
from .precision import BigReal, DomainError, PrecisionContext, Rational, make_context


# A pair keeps k'_r strictly below 1, which takes -log10(1 - k'_r) ~
# pi sqrt(r)/ln(10) digits: 100k of them at r = R_MAX (and r = 1/R_MAX).
R_MAX = (100_000 * math.log(10) / math.pi) ** 2


class RootSelectionError(RuntimeError):
    """No multiplier-polynomial root reproduces the AGM K-ratio (a bug)."""


class ModulusPair:
    """(r, k_r, k'_r) with the complementary gap 1 - k'_r, built from k and the gap.

    ``k_prime_gap`` is 1 - k'_r carried as its own value: for large r the
    complementary modulus hugs 1 so closely (k'_6400 is ~1e-109 below it)
    that a bare float at moderate precision cannot hold the difference,
    while the gap is perfectly representable.  The constructor forms
    ``k_prime`` from it by exact subtraction, so k' + gap = 1 exactly and
    k' stays strictly below 1.  k' is then wider than the context that
    built the pair, and for r < 1 so are k and the gap; round them with
    ``ctx.mpf`` before multiplying them.

    The constructor rejects a k or a gap outside (0, 1): the endpoints are
    not singular moduli.  It also checks the modulus identity
    k^2 + k'^2 = 1 in gap form, k^2 = gap (2 - gap), on values rounded to
    ``ctx``: squaring an exact k of 319 kbit (r = 1/5e9) would cost 18 ms.

    The pair keeps ``ctx``: agm(1, k), agm(1, k'), K and E are computed at
    it once, on first read, so the AGMs that :func:`solve_kr`'s
    defining-ratio gate runs serve every later reader.  E reads the side
    sum from the iterates of that agm(1, k') run, so no AGM runs twice.
    """

    def __init__(self, r: Fraction, k: BigReal, gap: BigReal,
                 ctx: PrecisionContext) -> None:
        if not (0 < k < 1) or not (0 < gap < 1):
            raise DomainError(
                f"degenerate modulus pair at r={r}: k={k}, "
                f"1 - k'={gap} (both must lie strictly inside (0,1))"
            )
        k_w, gap_w = ctx.mpf(k), ctx.mpf(gap)
        if abs(k_w * k_w - gap_w * (2 - gap_w)) > ctx.tol(ctx.working_digits - 8):
            raise DomainError(f"modulus identity k^2 + k'^2 = 1 violated at r={r}")
        self.r, self.k, self.k_prime_gap, self.ctx = r, k, gap, ctx
        self.k_prime = ctx.exact_sub(1, gap)

    @cached_property
    def agm_k(self) -> BigReal:
        """agm(1, k_r) from the stored k."""
        return agm(self.ctx.one, self.k, self.ctx)

    @cached_property
    def _agm_k_prime_run(self) -> AGMRun:
        return _agm(self.ctx.one, self.k_prime, self.ctx)

    @cached_property
    def K(self) -> BigReal:
        """K(k_r) from the agm(1, k'_r) run; k' is never re-derived as sqrt(1 - k^2)."""
        return self._agm_k_prime_run.K

    @cached_property
    def E(self) -> BigReal:
        """E(k_r) by the side sum of the agm(1, k'_r) run (:meth:`AGMRun.E`)."""
        return self._agm_k_prime_run.E(self.k)


class MultiplierResult(NamedTuple):
    """Multiplier M_n(m) = K[n^2 m]/K[m] with its defining-polynomial residual.

    ``rejected`` holds the Newton-polished candidates in (0, 1) that were
    not selected, less those within 10^-10 of the value, kept for
    debuggability.
    """

    n: int
    m: Fraction
    value: BigReal
    residual: BigReal
    rejected: Tuple[BigReal, ...] = ()


def eq2_residual(pair: ModulusPair) -> BigReal:
    """|K(k')/K(k) - sqrt(r)| = |agm(1, k')/agm(1, k) - sqrt(r)| at the pair's context.

    Both AGMs are the pair's own, run once on its stored moduli: re-deriving
    k' from sqrt(1 - k^2) would cancel away ~ -2 log10(k) digits when k is
    tiny (k_6400 ~ 1e-54 would cost ~108).
    """
    ctx = pair.ctx
    return abs(pair._agm_k_prime_run.value / pair.agm_k - ctx.sqrt(ctx.mpf(pair.r)))


def _theta_modulus(r: Fraction, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """(k_r, 1 - k'_r) for r >= 1 from theta constants at q = e^(-pi sqrt(r)).

    k_r = theta2^2/theta3^2 and 1 - k'_r = (theta3 - theta4)(theta3 + theta4)
    /theta3^2 (Borwein & Borwein, "Pi and the AGM", ch. 2).  With p = q^(1/4),
    the terms p^(m^2) of one sum give theta2 = 2 sum_{odd m}, theta3 =
    1 + 2 sum_{even m} and theta3 - theta4 = 4 sum_{m = 2 mod 4}, so the gap
    takes no cancellation.  The sum stops relative to the smallest leading
    term, p^4 = q (~1e-109 at r = 6400).  It runs at the caller's target plus
    10 + log10(pi sqrt(r)) digits, the second part for the relative error
    exp(-x) inherits from x = pi sqrt(r).
    """
    hi = make_context(ctx.target_digits + int(math.log10(math.pi * math.sqrt(r))) + 10)
    p = hi.exp(-hi.pi * hi.sqrt(hi.mpf(r)) / 4)
    stop = p ** 4 * hi.tol(hi.working_digits)
    sums = [hi.zero] * 4  # by m mod 4
    t, step, p2, m = p, p, p * p, 1
    while t >= stop:
        sums[m % 4] += t
        step *= p2  # p^((m+1)^2) = p^(m^2) p^(2m+1)
        t *= step
        m += 1
    theta2 = 2 * (sums[1] + sums[3])
    theta3 = 1 + 2 * (sums[0] + sums[2])
    diff = 4 * sums[2]
    k = (theta2 / theta3) ** 2
    gap = diff * (2 * theta3 - diff) / theta3 ** 2
    return ctx.mpf(k), ctx.mpf(gap)


def solve_kr(r: Rational, ctx: PrecisionContext) -> ModulusPair:
    """The singular modulus pair at r from the theta quotient of :func:`_theta_modulus`.

    For r < 1 it is the pair at 1/r with k and k' swapped: k = 1 - gap and
    gap = 1 - k, both exact, so the k' that :class:`ModulusPair` forms as
    1 - gap is exactly k_{1/r}, tiny or not.  Every pair must pass the
    modulus identity and the AGM defining ratio K(k')/K(k) = sqrt(r) of
    :func:`eq2_residual` to 10^-(working - 5), else RuntimeError.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"singular modulus requires r > 0, got {r}")
    if max(r, 1 / r) > R_MAX:
        raise DomainError(f"r={r} is outside {1 / R_MAX:.3g} <= r <= {R_MAX:.3g}, "
                          f"where k'_r < 1 takes at most 100k digits")
    k, gap = _theta_modulus(max(r, 1 / r), ctx)
    if r < 1:
        k, gap = ctx.exact_sub(1, gap), ctx.exact_sub(1, k)
    pair = ModulusPair(r, k, gap, ctx)
    res = eq2_residual(pair)
    if res > ctx.tol(ctx.working_digits - 5):
        raise RuntimeError(f"theta-quotient modulus fails the defining ratio at r={r}: "
                           f"residual {res}")
    return pair


def landen_up(pair: ModulusPair) -> ModulusPair:
    """Landen ascent r -> 4r of a modulus pair, in the complementary gap delta = 1 - k'_r.

    k_{4r} = (1 - k'_r)/(1 + k'_r)        = delta / (2 - delta)
    1 - k'_{4r} = (1 - sqrt(k'_r))^2/(1 + k'_r)
                = delta^2 / ((1 + sqrt(k'_r))^2 (1 + k'_r))

    Carrying delta instead of k' keeps every stage cancellation-free: the
    gap squares per ascent (k_6400's is ~1e-108), so forming 1 - k' by
    subtraction would forfeit -log10(delta) digits per stage.  The
    complementary modulus never passes through sqrt(1 - k^2), and the
    modulus identity is asserted on the result.
    """
    delta = pair.k_prime_gap
    kp = 1 - delta
    k4 = delta / (2 - delta)
    delta4 = delta * delta / ((1 + pair.ctx.sqrt(kp)) ** 2 * (1 + kp))
    return ModulusPair(4 * pair.r, k4, delta4, pair.ctx)


def _p_radical(ctx: PrecisionContext) -> BigReal:
    """p = 2 + 216*5^(1/4) - 96*5^(3/4); just below 4 (2 - sqrt(p) ~ 2.4e-6)."""
    f4 = ctx.root(5, 4)
    return 2 + 216 * f4 - 96 * f4 ** 3


def k100_closed_form(ctx: PrecisionContext) -> ModulusPair:
    """Closed form for the r = 100 pair.

    k_100 = (2 - sqrt(p))/(2 + sqrt(p)) and
    k'_100 = 2 sqrt(2) p^(1/4)/(2 + sqrt(p)) with the quartic surd p from
    :func:`_p_radical`.  The gap uses 1 - k'_100 = (sqrt(2) - p^(1/4))^2
    /(2 + sqrt(p)), avoiding subtraction of nearly equal rounded
    quantities.  The radicals cancel ~9 digits (2 - sqrt(p) is ~2.4e-6 and
    the p surd itself loses two more), so k and the gap are formed at the
    caller's target plus 10 digits, fully accurate at its working precision.
    The modulus identity holds algebraically for any p.  The pair is not
    gated on its defining ratio: the headline constant built from it is
    checked against its own AGM oracle, and ``verify`` checks the ratio.
    """
    hi = make_context(ctx.target_digits + 10)
    p = _p_radical(hi)
    sp = hi.sqrt(p)
    p4 = hi.root(p, 4)
    k = (2 - sp) / (2 + sp)
    gap = (hi.sqrt(2) - p4) ** 2 / (2 + sp)
    return ModulusPair(Fraction(100), k, gap, ctx)


def chain_to_6400(ctx: PrecisionContext) -> List[ModulusPair]:
    """Pairs for r = 100, 400, 1600, 6400 by Landen ascent from k_100.

    The gap recurrence keeps every stage fully accurate in the relative
    sense (k_6400 ~ 1e-54, its gap ~ 1e-109); each stage passes the modulus
    identity, and ``verify`` checks each against the defining ratio at its
    own r.
    """
    pairs = [k100_closed_form(ctx)]
    for _ in range(3):
        pairs.append(landen_up(pairs[-1]))
    return pairs


class PrintedFormComparison(NamedTuple):
    """A chain value recomputed from a published radical, vs the derived one."""

    label: str
    derived: BigReal
    printed: BigReal
    agreement_digits: float


def chain_printed_comparison(pairs: List[ModulusPair]) -> List[PrintedFormComparison]:
    """Audit the published nested radicals for k_400, k'_400, k_1600, k_6400.

    Each published form is evaluated verbatim and compared with ``pairs``,
    the chain of :func:`chain_to_6400`.  All agree except the k'_400
    coefficient, published as 2^(7/3): the ascent yields 2^(7/4) (the
    published value is high by exactly 2^(7/12) ~ 1.4983).  Both variants
    are reported; nothing downstream uses the published k'_400.

    The k_1600 and k_6400 radicals cancel ~28 and ~61 leading digits when
    evaluated verbatim, so they are evaluated at the chain's target plus 80
    digits; agreements are reported at the chain's working precision.
    """
    ctx = pairs[0].ctx
    aud = make_context(ctx.target_digits + 80)
    p = _p_radical(aud)
    sp = aud.sqrt(p)
    p4 = aud.root(p, 4)
    p8 = aud.root(p, 8)
    p16 = aud.root(p, 16)
    s2 = aud.sqrt(2)

    a16 = (s2 + p4) ** 2
    b16 = 2 * aud.root(8, 4) * p8 * aud.sqrt(2 + sp)
    aw = 2 + 2 * aud.root(8, 4) * aud.sqrt(2 + sp) * p8 + 2 * s2 * p4 + sp
    bw = (2 * aud.root(2 ** 5, 8) * aud.root(2 + sp, 4)
          * aud.sqrt(2 * s2 + 4 * p4 + s2 * sp) * p16)
    rows = [  # (label, derived, printed)
        ("k_400", pairs[1].k, ((s2 - p4) / (s2 + p4)) ** 2),
        ("k'_400 (published coefficient 2^(7/3))", pairs[1].k_prime,
         aud.root(2 ** 7, 3) * p8 * aud.sqrt(2 + sp) / (s2 + p4) ** 2),
        ("k'_400 (corrected coefficient 2^(7/4))", pairs[1].k_prime,
         aud.root(2 ** 7, 4) * p8 * aud.sqrt(2 + sp) / (s2 + p4) ** 2),
        ("k_1600", pairs[2].k, (a16 - b16) / (a16 + b16)),
        ("k_6400", pairs[3].k, (aw - bw) / (aw + bw)),
    ]
    return [PrintedFormComparison(label, derived, printed,
                                  ctx.agreement_digits(derived, printed))
            for label, derived, printed in rows]


# ---------------------------------------------------------------------
# multipliers M_n(m) = K[n^2 m]/K[m]
# ---------------------------------------------------------------------

def _multiplier_polynomials(n: int, k: BigReal):
    """(f, f', f'') for the algebraic equation of M_n, n = 3 or 5, at modulus k."""
    if n == 3:
        c = 8 * (1 - 2 * k * k)

        def f(m):
            return 27 * m ** 4 - 18 * m * m - c * m - 1

        def fp(m):
            return 108 * m ** 3 - 36 * m - c

        def fpp(m):
            return 324 * m * m - 36

        return f, fp, fpp
    c = 256 * k * k * (1 - k * k)

    def f(m):
        u = 5 * m - 1
        return u ** 5 * (1 - m) - c * m

    def fp(m):
        u = 5 * m - 1
        return 25 * u ** 4 * (1 - m) - u ** 5 - c

    def fpp(m):
        u = 5 * m - 1
        return 500 * u ** 3 * (1 - m) - 50 * u ** 4

    return f, fp, fpp


def _newton_polish(f: Callable, fp: Callable, x: BigReal,
                   ctx: PrecisionContext) -> BigReal:
    """Newton on f from x until the step is negligible or |f| stops falling.

    At a tangent root f turns to rounding noise first; keep the better iterate.
    """
    fx = f(x)
    for _ in range(120):
        d = fp(x)
        if d == 0:
            break
        step = fx / d
        x_new = x - step
        if x_new == x or abs(step) <= abs(x) * ctx.tol(ctx.working_digits - 2):
            return x_new
        f_new = f(x_new)
        if abs(f_new) >= abs(fx):
            break
        x, fx = x_new, f_new
    return x


def multiplier(n: int, pair_m: ModulusPair,
               pair_big: Optional[ModulusPair]) -> MultiplierResult:
    """M_n(m) such that K[n^2 m] = M_n(m) * K[m], for n in {2, 3, 5}.

    ``pair_m`` and ``pair_big`` are the solved pairs at m and n^2 m, and the
    result is at ``pair_m``'s context.  n = 2 reads only ``pair_m``: M_2 is
    the closed form (1 + k'_m)/2.  For n = 3 and 5 the value is a root in
    (0, 1) of the known algebraic equation f, found by Newton from the AGM
    ratio K[n^2 m]/K[m], which already holds it to working precision.  Two
    polishes start there: one on f for a simple root, and one on f' for a
    tangent (double) root, a simple root of f'.  Tangent roots do occur:
    at m = 1 the degree-6 equation for n = 5 touches zero at
    M = (2 + sqrt(5))/5 without crossing, where f is only rounding noise
    and the polish on f stalls ~37 digits short.  Of the candidates in
    (0, 1) with |f| <= 10^-target, the one nearest the K-ratio is
    selected; it must lie within 10^-(target - 10) of it.
    """
    if n not in (2, 3, 5):
        raise ValueError(f"multiplier defined for n in (2, 3, 5), got {n}")
    ctx = pair_m.ctx
    if n == 2:
        value = (1 + pair_m.k_prime) / 2
        return MultiplierResult(n=2, m=pair_m.r, value=value, residual=ctx.zero)
    f, fp, fpp = _multiplier_polynomials(n, pair_m.k)
    k_ratio = pair_big.K / pair_m.K

    candidates = [c for c in (_newton_polish(f, fp, k_ratio, ctx),
                              _newton_polish(fp, fpp, k_ratio, ctx)) if 0 < c < 1]
    roots = [c for c in candidates if abs(f(c)) <= ctx.tol(ctx.target_digits)]
    if not roots:
        raise RootSelectionError(f"no root of the M_{n}({pair_m.r}) equation in (0,1) "
                                 f"polishes from the K-ratio {k_ratio}")
    best = min(roots, key=lambda c: abs(c - k_ratio))
    if abs(best - k_ratio) > ctx.tol(ctx.target_digits - 10):
        raise RootSelectionError(
            f"root selection failed for M_{n}({pair_m.r}): best candidate {best} "
            f"vs K-ratio {k_ratio} (candidates: {roots})"
        )
    rejected = tuple(c for c in candidates if abs(c - best) > ctx.tol(10))
    return MultiplierResult(n=n, m=pair_m.r, value=best, residual=f(best),
                            rejected=rejected)


def k_scale_16(pair: ModulusPair) -> BigReal:
    """Factor ((1 + sqrt(k'_r))/2)^2 mapping K[r] to K[16r]."""
    return ((1 + pair.ctx.sqrt(pair.k_prime)) / 2) ** 2


def k_scale_64(pair: ModulusPair) -> BigReal:
    """Factor (sqrt(1 + k'_r) + sqrt(2 sqrt(k'_r)))^2 / 8 mapping K[r] to K[64r]."""
    kp, sqrt = pair.k_prime, pair.ctx.sqrt
    s = sqrt(1 + kp) + sqrt(2 * sqrt(kp))
    return s * s / 8


def k100_radical_coefficient(ctx: PrecisionContext) -> BigReal:
    """(4 + 2 sqrt(5) + sqrt(2)(3 + 2*5^(1/4)))/80 ~ 0.211803; K[100] over b(1/4)."""
    return (4 + 2 * ctx.sqrt(5) + ctx.sqrt(2) * (3 + 2 * ctx.root(5, 4))) / 80
