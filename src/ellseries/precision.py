"""Arbitrary-precision arithmetic substrate.

Every computation in this package runs inside a :class:`PrecisionContext`,
which fixes the decimal working precision: the caller's requested target
digits plus a guard allowance that absorbs rounding drift through nested
radicals and long summations.  Values are mpmath floats owned by the
context that created them ("BigReal" in the public API); arithmetic is
faithfully rounded at the working precision, which leaves several digits
of slack under every tolerance used by the verification suite.

Contexts are not changed after construction and operations are pure.
:meth:`PrecisionContext.exact_sub` is the one operation that does not
round: its result may be wider than the context.  Contexts of equal
working precision share one mpmath context and its memoized tolerances:
building an mpmath context measured 0.6 ms, and a 500-digit ``verify``
builds 25 contexts at 9 working precisions.  There is a floor on the
target (the guard policy's), but no ceiling: what a run may cost is the
command line's decision, not the arithmetic's.  pi is read from mpmath's
own per-precision cache, so it is computed on first read, not when a
context is built.  mpmath's ``hyp2f1`` raises the shared context's
``prec`` while it runs and restores it on return, so the package is
single-threaded: no two threads may compute at the same working
precision at once.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Any

from mpmath.ctx_mp import MPContext
from mpmath.libmp import numeral, to_fixed as _mpf_to_fixed
from mpmath.libmp.libintmath import isqrt_fast_python

# Context-bound mpmath float.  mpmath mints a distinct mpf class per
# context, so this alias is documentation rather than a checkable type.
BigReal = Any

# int or fractions.Fraction; `fractions` is not imported here, because it
# pulls in `decimal` (about 3 ms of a fresh process), and mpmath already
# imports `numbers`
Rational = numbers.Rational

MIN_TARGET_DIGITS = 10
MIN_GUARD_DIGITS = 10
LOG10_2 = math.log10(2)


class PrecisionError(ValueError):
    """Requested precision violates the guard-digit policy."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


# Past this many bits mpmath's Newton iteration for 1/sqrt, which only
# multiplies, beats math.isqrt, whose divisions are quadratic in CPython
# 3.11: 29 ms against 41 ms at 332 kbit (the AGM's at 50k digits), and
# even at ~100 kbit.
ISQRT_NEWTON_BITS = 120_000


def isqrt(n: int) -> int:
    """floor(sqrt(n)) for n >= 0; past ISQRT_NEWTON_BITS bits, within 1 of it."""
    if n.bit_length() > ISQRT_NEWTON_BITS:
        return isqrt_fast_python(n)
    return math.isqrt(n)


@lru_cache(maxsize=None)
def _shared_mp(working_digits: int) -> MPContext:
    mp = MPContext()
    mp.dps = working_digits
    return mp


@lru_cache(maxsize=None)
def _tol(mp: MPContext, digits: int) -> BigReal:
    return mp.mpf(10) ** (-digits)


def guard_digits_for(target_digits: int) -> int:
    """Guard policy: max(10, 2% of the target)."""
    return max(MIN_GUARD_DIGITS, math.ceil(0.02 * target_digits))


class PrecisionContext:
    """Decimal precision contract plus the elementary-function suite.

    ``working_digits = target_digits + guard_digits`` is the precision all
    arithmetic is carried at, with ``guard_digits`` set by
    :func:`guard_digits_for`; results are trustworthy to roughly the
    target.  The context doubles as the elementary-function suite: sqrt,
    n-th root, exp, log10, pi, 2F1, and tolerance-based comparison.  There
    is no exact equality on BigReal; use :meth:`agreement_digits` or
    compare a difference with :meth:`tol`.
    """

    __slots__ = ("target_digits", "guard_digits", "_mp")

    def __init__(self, target_digits: int) -> None:
        if not isinstance(target_digits, int) or target_digits < MIN_TARGET_DIGITS:
            raise PrecisionError(
                "precision too low for guard policy: target_digits must be an "
                f"integer >= {MIN_TARGET_DIGITS}, got {target_digits!r}"
            )
        self.target_digits = target_digits
        self.guard_digits = guard_digits_for(target_digits)
        self._mp = _shared_mp(self.working_digits)

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    # ---- construction of values ------------------------------------

    def mpf(self, x: Any) -> BigReal:
        """Convert int/str/float/Fraction (or any mpf) to a BigReal."""
        if isinstance(x, numbers.Rational) and not isinstance(x, int):
            return self._mp.mpf(x.numerator) / x.denominator
        return self._mp.mpf(x)

    @property
    def zero(self) -> BigReal:
        return self._mp.mpf(0)

    @property
    def one(self) -> BigReal:
        return self._mp.mpf(1)

    @property
    def pi(self) -> BigReal:
        """pi at working precision; mpmath caches its bits per precision."""
        return +self._mp.pi

    def tol(self, digits: int) -> BigReal:
        """10^(-digits) as a BigReal, memoized per working precision."""
        return _tol(self._mp, digits)

    # ---- elementary functions ---------------------------------------

    def sqrt(self, x: Any) -> BigReal:
        x = self.mpf(x)
        if x < 0:
            raise DomainError(f"sqrt of negative value {x}")
        return self._mp.sqrt(x)

    def root(self, x: Any, n: int) -> BigReal:
        """Positive real n-th root of x >= 0."""
        x = self.mpf(x)
        if n <= 0:
            raise DomainError(f"root index must be a positive integer, got {n}")
        if x < 0:
            raise DomainError(f"root of negative value {x}")
        return self._mp.root(x, n)

    def exp(self, x: Any) -> BigReal:
        return self._mp.exp(self.mpf(x))

    def log10(self, x: Any) -> BigReal:
        x = self.mpf(x)
        if x <= 0:
            raise DomainError(f"log10 of non-positive value {x}")
        return self._mp.log10(x)

    def hyp2f1(self, a: Any, b: Any, c: Any, y: Any) -> BigReal:
        """2F1(a, b; c; y) by mpmath, which works to relative accuracy.

        Only a terminating series sums to exactly 0 (P_1(0) does), and only
        there is ``zeroprec`` safe: mpmath's |y| > 0.8 transforms can then
        return 0 for a nonzero value.
        """
        if any(self._mp.isint(p) and p <= 0 for p in (a, b)):
            return self._mp.hyp2f1(a, b, c, y, zeroprec=self.prec)
        return self._mp.hyp2f1(a, b, c, y)

    def log10_abs(self, x: Any) -> float:
        """log10|x| as a float, read from the mantissa and exponent.

        For callers that need a magnitude, not a full-precision logarithm:
        it costs one float log of the mantissa instead of an mpf log10.
        """
        _, man, exp, _ = self.mpf(x)._mpf_
        if not man:
            raise DomainError(f"log10 of {x}")
        # int(): under the gmpy2 backend man is an mpz, which math.log10
        # converts through a float that overflows past 2^1024
        return math.log10(int(man)) + exp * LOG10_2

    # ---- binary fixed point -----------------------------------------

    @property
    def prec(self) -> int:
        """Binary working precision in bits."""
        return self._mp.prec

    def mag(self, x: Any) -> int:
        """m with 2^(m-1) <= |x| < 2^m for x != 0, read from the exponent."""
        return self._mp.mag(self.mpf(x))

    def to_fixed(self, x: Any, bits: int) -> int:
        """x as a Python int in units of 2^-bits, rounded toward -inf.

        Reads the signed raw tuple ``_mpf_``.  ``mpf.man_exp`` is no
        shortcut: it returns the unsigned mantissa
        (``mpf(-2).man_exp == (1, 1)``).
        """
        return int(_mpf_to_fixed(self.mpf(x)._mpf_, bits))

    def from_fixed(self, man: int, bits: int) -> BigReal:
        """man * 2^-bits rounded to working precision."""
        return self._mp.mpf((man, -bits))

    def exact_sub(self, x: Any, y: Any) -> BigReal:
        """x - y without rounding, as wide as the operands' span needs."""
        return self._mp.fsub(x, y, exact=True)

    # ---- comparison semantics ---------------------------------------

    def agreement_digits(self, a: Any, b: Any) -> float:
        """Decimal digits of relative agreement, capped at working_digits."""
        a = self.mpf(a)
        b = self.mpf(b)
        diff = abs(a - b)
        if diff == 0:
            return float(self.working_digits)
        scale = max(abs(a), abs(b))
        d = self.log10_abs(scale) - self.log10_abs(diff)
        return min(d, float(self.working_digits))

    def abs_residual_digits(self, a: Any, b: Any = 0) -> float:
        """-log10(|a - b|), capped at working_digits."""
        diff = abs(self.mpf(a) - self.mpf(b))
        if diff == 0:
            return float(self.working_digits)
        return min(-self.log10_abs(diff), float(self.working_digits))


def make_context(target_digits: int) -> PrecisionContext:
    """Build a context with the guard policy max(10, 2% of target)."""
    return PrecisionContext(target_digits=target_digits)


def to_decimal_string(ctx: PrecisionContext, x: Any, digits: int) -> str:
    """Decimal expansion of x truncated (not rounded) to `digits` significant digits.

    Truncation keeps reported digits verifiable as a prefix of any
    higher-precision run.  Values with decimal exponent far from 0 are
    rendered in scientific notation.
    """
    x = ctx.mpf(x)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if x == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if x < 0 else ""
    ax = abs(x)
    e = math.floor(ctx.log10_abs(ax))
    # the float magnitude can be off by one at powers of ten; renormalize.
    for _ in range(3):
        scaled = int(ctx._mp.floor(ax * ctx._mp.mpf(10) ** (digits - 1 - e)))
        if scaled >= 10 ** digits:
            e += 1
        elif scaled < 10 ** (digits - 1):
            e -= 1
        else:
            break
    # str(int) is capped at 4300 digits by default; numeral converts in chunks
    ds = numeral(scaled, size=digits)
    if -6 <= e < digits:
        if e >= 0:
            int_part = ds[: e + 1]
            frac_part = ds[e + 1:]
            return f"{sign}{int_part}.{frac_part}" if frac_part else f"{sign}{int_part}."
        return f"{sign}0.{'0' * (-e - 1)}{ds}"
    return f"{sign}{ds[0]}.{ds[1:]}e{e}"
