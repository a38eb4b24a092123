"""Singular moduli: theta quotients, Landen ascent, closed forms.

The singular modulus k_r is the unique k in (0,1) with
K(k')/K(k) = sqrt(r), where k' = sqrt(1 - k^2).  This module evaluates it
in closed form as the theta quotient k_r = theta2(q)^2/theta3(q)^2 at
q = e^(-pi sqrt(r)), ascends r -> 4r with the Landen transformation,
carries the closed form for k_100 up the chain to k_6400, evaluates the
multipliers M_n = K[n^2 m]/K[m] for n = 2, 3, 5 from their algebraic
equations, and provides the K-scaling factors for r -> 16r and r -> 64r.

The theta sums here are written apart from oracle.theta3, sharing only the
arithmetic substrate; every pair is validated numerically at working
precision against the AGM defining ratio, and no symbolic radical
manipulation is attempted.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .oracle import agm, b_quarter
from .precision import (BigReal, DomainError, PrecisionContext, Rational,
                        guard_digits_for, make_context)


class Provenance(enum.Enum):
    CLOSED_FORM = "closed_form"
    LANDEN_CHAIN = "landen_chain"
    THETA_QUOTIENT = "theta_quotient"


# A pair keeps k'_r strictly below 1, which takes -log10(1 - k'_r) ~
# pi sqrt(r)/ln(10) digits: 100k of them at r = R_MAX (and r = 1/R_MAX).
R_MAX = (100_000 * math.log(10) / math.pi) ** 2


class RootSelectionError(RuntimeError):
    """No multiplier-polynomial root reproduces the AGM K-ratio (a bug)."""


@dataclass(frozen=True)
class ModulusPair:
    """(r, k_r, k'_r) with the provenance of how the pair was obtained.

    ``k_prime_gap`` is 1 - k'_r carried as its own value: for large r the
    complementary modulus hugs 1 so closely (k'_6400 is ~1e-109 below it)
    that a bare float at moderate precision cannot hold the difference,
    while the gap is perfectly representable.  ``k_prime`` itself is
    stored with enough digits to stay strictly below 1.

    :meth:`K` keeps agm(1, k'_r) on the pair, so the AGM the defining-ratio
    gate of :func:`eq2_residual` runs serves every later reader of K(k_r).
    A pair's values carry the precision of the context that built it.

    The endpoints k = 0 and k = 1 are not singular moduli and are
    rejected at construction.
    """

    r: Fraction
    k: BigReal
    k_prime: BigReal
    provenance: Provenance
    k_prime_gap: BigReal = None
    _agm_k_prime: BigReal = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 < self.k < 1) or not (0 < self.k_prime < 1):
            raise DomainError(
                f"degenerate modulus pair at r={self.r}: k={self.k}, "
                f"k'={self.k_prime} (both must lie strictly inside (0,1))"
            )
        if self.k_prime_gap is None:
            object.__setattr__(self, "k_prime_gap", 1 - self.k_prime)
        if not (0 < self.k_prime_gap < 1):
            raise DomainError(
                f"complementary gap out of range at r={self.r}: {self.k_prime_gap}"
            )

    def K(self, ctx: PrecisionContext) -> BigReal:
        """K(k_r) = pi/(2 agm(1, k'_r)); k' is never re-derived as sqrt(1 - k^2)."""
        if self._agm_k_prime is None:
            object.__setattr__(self, "_agm_k_prime", agm(ctx.one, self.k_prime, ctx))
        return ctx.pi / (2 * self._agm_k_prime)


@dataclass(frozen=True)
class MultiplierResult:
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


def _one_minus(gap: BigReal, ctx: PrecisionContext) -> BigReal:
    """1 - gap, rounded as make_context(need) would: strictly below 1."""
    need = ctx.working_digits + 10
    if gap < 1:
        mag = int(-ctx.log10_abs(gap)) + 30
        need = max(need, mag)
    return ctx.fsub(1, gap, need + guard_digits_for(need))


def _pair_from_gap(r: Fraction, k: BigReal, gap: BigReal,
                   provenance: Provenance, ctx: PrecisionContext) -> ModulusPair:
    k_prime = _one_minus(gap, ctx)
    pair = ModulusPair(r=r, k=k, k_prime=k_prime, provenance=provenance,
                       k_prime_gap=gap)
    # identity k^2 + k'^2 = 1 in gap form: k^2 = gap*(2 - gap)
    if abs(k * k - gap * (2 - gap)) > ctx.tol(ctx.working_digits - 8):
        raise DomainError(f"modulus identity k^2 + k'^2 = 1 violated at r={r}")
    return pair


def eq2_residual(pair: ModulusPair, ctx: PrecisionContext) -> BigReal:
    """|K(k')/K(k) - sqrt(r)| for the pair, in cancellation-free form.

    K(k) is the pair's own :meth:`ModulusPair.K`, pi/(2 agm(1, k')), and
    K(k') = pi/(2 agm(1, k)).  Both AGMs take the stored moduli directly;
    re-deriving k' from sqrt(1 - k^2) inside K would cancel away
    ~ -2 log10(k) digits when k is tiny (k_6400 ~ 1e-54 would cost ~108).
    """
    K_comp = ctx.pi / (2 * agm(ctx.one, pair.k, ctx))
    return abs(K_comp / pair.K(ctx) - ctx.sqrt(ctx.mpf(pair.r)))


def _theta_modulus(r: Fraction, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """(k_r, 1 - k'_r) for r >= 1 from theta constants at q = e^(-pi sqrt(r)).

    k_r = theta2^2/theta3^2 and 1 - k'_r = (theta3 - theta4)(theta3 + theta4)
    /theta3^2 (Borwein & Borwein, "Pi and the AGM", ch. 2).  With p = q^(1/4),
    the terms p^(m^2) of one sum give theta2 = 2 sum_{odd m}, theta3 =
    1 + 2 sum_{even m} and theta3 - theta4 = 4 sum_{m = 2 mod 4}, so the gap
    takes no cancellation.  The sum stops relative to the smallest leading
    term, p^4 = q (~1e-109 at r = 6400); p carries log10(pi sqrt(r)) extra
    digits, the relative error exp(-x) inherits from x.
    """
    x = math.pi * math.sqrt(r)
    hi = make_context(ctx.working_digits + int(math.log10(x)) + 10)
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

    For r < 1 it is the pair at 1/r with k and k' swapped, built directly:
    :func:`_pair_from_gap` would form k' as 1 - (1 - k'), losing the digits
    of a tiny k'.  Every pair must pass the AGM defining ratio
    K(k')/K(k) = sqrt(r) of :func:`eq2_residual`.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"singular modulus requires r > 0, got {r}")
    if max(r, 1 / r) > R_MAX:
        raise DomainError(f"r={r} is outside {1 / R_MAX:.3g} <= r <= {R_MAX:.3g}, "
                          f"where k'_r < 1 takes at most 100k digits")
    if r >= 1:
        k, gap = _theta_modulus(r, ctx)
        pair = _pair_from_gap(r, k, gap, Provenance.THETA_QUOTIENT, ctx)
    else:
        k, gap = _theta_modulus(1 / r, ctx)
        pair = ModulusPair(r=r, k=_one_minus(gap, ctx), k_prime=k,
                           provenance=Provenance.THETA_QUOTIENT,
                           k_prime_gap=_one_minus(k, ctx))
    res = eq2_residual(pair, ctx)
    if res > ctx.tol(ctx.working_digits - 5):
        raise RuntimeError(
            f"theta-quotient modulus fails the defining ratio at r={r}: "
            f"residual {res}"
        )
    return pair


def _landen_step(delta: BigReal, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """One ascent r -> 4r expressed in the complementary gap delta = 1 - k'_r.

    k_{4r} = (1 - k'_r)/(1 + k'_r)        = delta / (2 - delta)
    1 - k'_{4r} = (1 - sqrt(k'_r))^2/(1 + k'_r)
                = delta^2 / ((1 + sqrt(k'_r))^2 (1 + k'_r))

    Carrying delta instead of k' keeps every stage cancellation-free: the
    gap squares per ascent (k_6400's is ~1e-108), so forming 1 - k' by
    subtraction would forfeit -log10(delta) digits per stage.
    """
    kp = 1 - delta
    k4 = delta / (2 - delta)
    delta4 = delta * delta / ((1 + ctx.sqrt(kp)) ** 2 * (1 + kp))
    return k4, delta4


def landen_up(pair: ModulusPair, ctx: PrecisionContext) -> ModulusPair:
    """Landen ascent r -> 4r of a modulus pair.

    Equivalent to k_{4r} = (1 - k'_r)/(1 + k'_r) and
    k'_{4r} = 2 sqrt(k'_r)/(1 + k'_r), evaluated through the gap
    recurrence of :func:`_landen_step` on the pair's stored gap; the
    complementary modulus never passes through sqrt(1 - k^2).  The
    modulus identity is asserted on the result.
    """
    k4, delta4 = _landen_step(pair.k_prime_gap, ctx)
    return _pair_from_gap(4 * pair.r, k4, delta4, Provenance.LANDEN_CHAIN, ctx)


def _p_radical(ctx: PrecisionContext) -> BigReal:
    """p = 2 + 216*5^(1/4) - 96*5^(3/4); just below 4 (2 - sqrt(p) ~ 2.4e-6)."""
    f4 = ctx.root(5, 4)
    return 2 + 216 * f4 - 96 * f4 ** 3


def _k100_with_gap(ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """(k_100, 1 - k'_100), computed with extra internal digits.

    The radicals cancel ~9 digits (2 - sqrt(p) is ~2.4e-6 and the p surd
    itself loses two more), so the values are formed at elevated precision
    and returned fully accurate at the caller's working precision.  The
    gap uses 1 - k'_100 = (sqrt(2) - p^(1/4))^2/(2 + sqrt(p)), again
    avoiding subtraction of nearly equal rounded quantities.
    """
    hi = make_context(ctx.working_digits + 10)
    p = _p_radical(hi)
    sp = hi.sqrt(p)
    p4 = hi.root(p, 4)
    k = (2 - sp) / (2 + sp)
    delta = (hi.sqrt(2) - p4) ** 2 / (2 + sp)
    return k, delta


def k100_closed_form(ctx: PrecisionContext) -> ModulusPair:
    """Closed form for the r = 100 pair.

    k_100 = (2 - sqrt(p))/(2 + sqrt(p)) and
    k'_100 = 2 sqrt(2) p^(1/4)/(2 + sqrt(p)) with the quartic surd p from
    :func:`_p_radical`.  The modulus identity holds algebraically for any
    p; the defining-ratio residual at r = 100 is asserted numerically.
    """
    k, gap = _k100_with_gap(ctx)
    pair = _pair_from_gap(Fraction(100), k, gap, Provenance.CLOSED_FORM, ctx)
    res = eq2_residual(pair, ctx)
    if res > ctx.tol(ctx.working_digits - 5):
        raise RuntimeError(f"k_100 closed form fails the defining ratio: {res}")
    return pair


def chain_to_6400(ctx: PrecisionContext) -> List[ModulusPair]:
    """Pairs for r = 100, 400, 1600, 6400 by Landen ascent from k_100.

    The gap recurrence keeps every stage fully accurate in the relative
    sense (k_6400 ~ 1e-54, its gap ~ 1e-109); each stage is validated and
    satisfies the defining ratio at its own r.
    """
    pairs = [k100_closed_form(ctx)]
    for _ in range(3):
        pairs.append(landen_up(pairs[-1], ctx))
    return pairs


@dataclass(frozen=True)
class PrintedFormComparison:
    """A chain value recomputed from a published radical, vs the derived one."""

    label: str
    derived: BigReal
    printed: BigReal
    agreement_digits: float
    note: str = ""


def chain_printed_comparison(ctx: PrecisionContext) -> List[PrintedFormComparison]:
    """Audit the published nested radicals for k_400, k'_400, k_1600, k_6400.

    Each published form is evaluated verbatim and compared with the Landen
    chain.  All agree except the k'_400 coefficient, published as 2^(7/3):
    the ascent yields 2^(7/4) (the published value is high by exactly
    2^(7/12) ~ 1.4983).  Both variants are reported; nothing downstream
    uses the published k'_400.

    The k_1600 and k_6400 radicals cancel ~28 and ~61 leading digits when
    evaluated verbatim, so the audit runs at elevated internal precision;
    agreements are reported at the caller's working precision.
    """
    aud = make_context(ctx.working_digits + 80)
    pairs = chain_to_6400(aud)
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
    rows = [  # (label, derived, printed, note)
        ("k_400", pairs[1].k, ((s2 - p4) / (s2 + p4)) ** 2, ""),
        ("k'_400 (published coefficient 2^(7/3))", pairs[1].k_prime,
         aud.root(2 ** 7, 3) * p8 * aud.sqrt(2 + sp) / (s2 + p4) ** 2,
         "published/derived = 2^(7/12) ~ 1.4983; suspected typo, reported not asserted"),
        ("k'_400 (corrected coefficient 2^(7/4))", pairs[1].k_prime,
         aud.root(2 ** 7, 4) * p8 * aud.sqrt(2 + sp) / (s2 + p4) ** 2,
         "coefficient from the Landen ascent"),
        ("k_1600", pairs[2].k, (a16 - b16) / (a16 + b16), ""),
        ("k_6400", pairs[3].k, (aw - bw) / (aw + bw), ""),
    ]
    return [PrintedFormComparison(label, derived, printed,
                                  ctx.agreement_digits(derived, printed), note)
            for label, derived, printed, note in rows]


# ---------------------------------------------------------------------
# multipliers M_n(m) = K[n^2 m]/K[m]
# ---------------------------------------------------------------------

def _multiplier_polynomials(n: int, k: BigReal, ctx: PrecisionContext):
    """(f, f', f'') for the algebraic equation satisfied by M_n at modulus k."""
    if n == 3:
        c = 8 * (1 - 2 * k * k)

        def f(m):
            return 27 * m ** 4 - 18 * m * m - c * m - 1

        def fp(m):
            return 108 * m ** 3 - 36 * m - c

        def fpp(m):
            return 324 * m * m - 36

        return f, fp, fpp
    if n == 5:
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
    raise ValueError(f"no multiplier equation for n={n}")


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


def multiplier(n: int, m: Rational, ctx: PrecisionContext) -> MultiplierResult:
    """M_n(m) such that K[n^2 m] = M_n(m) * K[m], for n in {2, 3, 5}.

    n = 2 is the closed form (1 + k'_m)/2.  For n = 3 and 5 the value is a
    root in (0, 1) of the known algebraic equation f, found by Newton from
    the AGM ratio K[n^2 m]/K[m], which already holds it to working
    precision.  Two polishes start there: one on f for a simple root, and
    one on f' for a tangent (double) root, which is a simple root of f'.
    Tangent roots do occur: at m = 1 the degree-6 equation for n = 5
    touches zero at M = (2 + sqrt(5))/5 without crossing, where f is only
    rounding noise and the polish on f stalls ~37 digits short.  Of the
    candidates in (0, 1) with |f| <= 10^-target, the one nearest the
    K-ratio is selected; it must lie within 10^-(target - 10) of it.
    """
    m = Fraction(m)
    if m <= 0:
        raise DomainError(f"multiplier requires m > 0, got {m}")
    if n not in (2, 3, 5):
        raise ValueError(f"multiplier defined for n in (2, 3, 5), got {n}")
    pair_big = None if n == 2 else solve_kr(n * n * m, ctx)
    return _multiplier_from_pairs(n, solve_kr(m, ctx), pair_big, ctx)


def _multiplier_from_pairs(n: int, pair_m: ModulusPair, pair_big: Optional[ModulusPair],
                           ctx: PrecisionContext) -> MultiplierResult:
    """:func:`multiplier` from solved pairs at m and n^2 m (unused for n = 2)."""
    if n == 2:
        value = (1 + pair_m.k_prime) / 2
        return MultiplierResult(n=2, m=pair_m.r, value=value, residual=ctx.zero)
    f, fp, fpp = _multiplier_polynomials(n, pair_m.k, ctx)
    k_ratio = pair_big.K(ctx) / pair_m.K(ctx)

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


def k_scale_16(pair: ModulusPair, ctx: PrecisionContext) -> BigReal:
    """Factor ((1 + sqrt(k'_r))/2)^2 mapping K[r] to K[16r]."""
    return ((1 + ctx.sqrt(pair.k_prime)) / 2) ** 2


def k_scale_64(pair: ModulusPair, ctx: PrecisionContext) -> BigReal:
    """Factor (sqrt(1 + k'_r) + sqrt(2 sqrt(k'_r)))^2 / 8 mapping K[r] to K[64r]."""
    kp = pair.k_prime
    s = ctx.sqrt(1 + kp) + ctx.sqrt(2 * ctx.sqrt(kp))
    return s * s / 8


def k100_radical_coefficient(ctx: PrecisionContext) -> BigReal:
    """(4 + 2 sqrt(5) + sqrt(2)(3 + 2*5^(1/4)))/80 ~ 0.211803; K[100] over b(1/4)."""
    return (4 + 2 * ctx.sqrt(5) + ctx.sqrt(2) * (3 + 2 * ctx.root(5, 4))) / 80


def K100_closed_value(ctx: PrecisionContext) -> BigReal:
    """K(k_100) from the radical coefficient times Gamma(1/4)^2/sqrt(pi).

    Validated elsewhere against the AGM evaluation of K at the closed-form
    k_100; this is the anchor for the headline-constant normalization.
    """
    return k100_radical_coefficient(ctx) * b_quarter(ctx)
