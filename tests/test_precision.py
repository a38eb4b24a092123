"""Substrate: contexts, elementary functions, comparison semantics."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellseries import (DomainError, PrecisionContext, PrecisionError,
                       make_context, to_decimal_string)
from ellseries.precision import ISQRT_NEWTON_BITS, isqrt

# 50-digit reference values (independent table constants)
SQRT2_50 = "1.4142135623730950488016887242096980785696718753769"
E_50 = "2.7182818284590452353602874713526624977572470936999"


def test_guard_policy():
    assert make_context(100).working_digits == 110
    assert make_context(1000).working_digits == 1020
    assert make_context(10).working_digits == 20
    assert make_context(5000).guard_digits == 100


def test_rejects_low_precision():
    with pytest.raises(PrecisionError):
        make_context(5)
    with pytest.raises(PrecisionError):
        make_context(9)


def test_rejects_bad_guard():
    with pytest.raises(PrecisionError):
        PrecisionContext(target_digits=100, guard_digits=5)
    with pytest.raises(PrecisionError):
        PrecisionContext(target_digits=10000, guard_digits=50)


def test_equal_working_precision_shares_one_mpmath_context():
    ctx = make_context(100)
    twin = PrecisionContext(target_digits=95, guard_digits=15)
    assert twin.working_digits == ctx.working_digits
    assert twin._mp is ctx._mp and twin.pi is ctx.pi
    assert make_context(101)._mp is not ctx._mp
    # hyp2f1 raises the shared context's precision only while it runs
    prec = ctx.prec
    ctx.hyp2f1(ctx.mpf(1) / 2, ctx.mpf(1) / 2, 1, ctx.mpf("0.3"))
    assert twin.prec == prec


def test_isqrt_on_both_sides_of_the_newton_threshold():
    rng = random.Random(7)
    for bits in (ISQRT_NEWTON_BITS - 64, ISQRT_NEWTON_BITS + 64):
        root = rng.getrandbits(bits // 2) | 1 << (bits // 2 - 1)
        for n in (rng.getrandbits(bits), root * root - 1, root * root, root * root + 1):
            if bits < ISQRT_NEWTON_BITS:
                assert isqrt(n) == math.isqrt(n)
            else:
                assert abs(isqrt(n) - math.isqrt(n)) <= 1


def test_sqrt2_reference(ctx50):
    got = to_decimal_string(ctx50, ctx50.sqrt(2), 50)
    assert got == SQRT2_50


def test_trivial_identities(ctx50):
    assert ctx50.exp(0) == 1
    assert abs(ctx50.root(32, 5) - 2) <= ctx50.tol(55)
    assert to_decimal_string(ctx50, ctx50.exp(1), 50) == E_50


def test_domain_errors(ctx50):
    with pytest.raises(DomainError):
        ctx50.sqrt(-1)
    with pytest.raises(DomainError):
        ctx50.root(-8, 3)


def test_mpf_accepts_fraction(ctx50):
    x = ctx50.mpf(Fraction(1, 3))
    assert abs(3 * x - 1) <= ctx50.tol(58)


@settings(deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                 allow_infinity=False))
def test_sqrt_roundtrip(x):
    ctx = make_context(40)
    v = ctx.mpf(x)
    assert abs(ctx.sqrt(v) ** 2 - v) <= ctx.tol(ctx.working_digits - 2) * v


@settings(deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                 allow_infinity=False),
       st.integers(min_value=2, max_value=9))
def test_root_roundtrip(x, n):
    ctx = make_context(40)
    v = ctx.mpf(x)
    assert abs(ctx.root(v, n) ** n - v) <= ctx.tol(ctx.working_digits - 2) * v


def test_deterministic_across_contexts():
    a = make_context(60)
    b = make_context(60)
    assert a.sqrt(2) == b.sqrt(2)
    assert to_decimal_string(a, a.exp(a.pi), 60) == to_decimal_string(b, b.exp(b.pi), 60)


def test_agreement_semantics(ctx50):
    a = ctx50.mpf(1)
    b = a + ctx50.tol(20)
    assert 19 <= ctx50.agreement_digits(a, b) <= 21
    assert ctx50.agrees(a, b, digits=15)
    assert not ctx50.agrees(a, b, digits=30)
    # default tolerance is target - 5
    assert ctx50.agrees(a, a + ctx50.tol(46))
    assert not ctx50.agrees(a, a + ctx50.tol(40))


def test_decimal_string_truncates(ctx50):
    x = ctx50.mpf("2.36068119803219245209")
    assert to_decimal_string(ctx50, x, 5) == "2.3606"  # not rounded to ...07
    assert to_decimal_string(ctx50, x, 1) == "2."
    assert to_decimal_string(ctx50, -x, 5) == "-2.3606"


def test_decimal_string_ranges(ctx50):
    assert to_decimal_string(ctx50, ctx50.mpf(0), 4) == "0.000"
    assert to_decimal_string(ctx50, ctx50.mpf("0.004215"), 3) == "0.00421"
    assert to_decimal_string(ctx50, ctx50.mpf(12345), 3) == "1.23e4"
    tiny = ctx50.mpf(10) ** -20 * ctx50.mpf("6.0281")
    assert to_decimal_string(ctx50, tiny, 4) == "6.028e-20"
    assert to_decimal_string(ctx50, ctx50.mpf(100), 5) == "100.00"


def test_log10_abs_reads_magnitude(ctx50):
    assert ctx50.log10_abs(1000) == pytest.approx(3, abs=1e-12)
    assert ctx50.log10_abs(-1000) == pytest.approx(3, abs=1e-12)
    assert ctx50.log10_abs(ctx50.tol(5000)) == pytest.approx(-5000, abs=1e-9)
    assert ctx50.log10_abs(ctx50.pi) == pytest.approx(float(ctx50.log10(ctx50.pi)), abs=1e-14)
    with pytest.raises(DomainError):
        ctx50.log10_abs(0)


def test_fixed_point_keeps_the_sign(ctx50):
    # mpf.man_exp drops the sign: mpf(-2).man_exp == (1, 1)
    assert ctx50.to_fixed(-2, 10) == -2048
    assert ctx50.to_fixed(ctx50.mpf("-0.75"), 4) == -12
    x = -ctx50.pi
    assert ctx50.from_fixed(ctx50.to_fixed(x, ctx50.prec + 8), ctx50.prec + 8) == x


def test_decimal_string_past_the_int_str_limit():
    # CPython refuses str() of ints past 4300 digits by default
    ctx = make_context(12000)
    got = to_decimal_string(ctx, ctx.pi, 12000)
    with mpmath.workdps(12030):
        expect = mpmath.nstr(mpmath.pi, 12020, strip_zeros=False)[:12001]
    assert got == expect
