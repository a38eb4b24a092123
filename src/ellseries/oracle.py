"""Independent reference evaluators built on the arithmetic-geometric mean.

Everything here is an oracle: K and E through the classical AGM iteration
and its side sum, the theta-function q-series summed term by term, and the
target constant Gamma(1/4)^2/pi^(3/2) through the lemniscatic AGM identity.
None of it touches the series engine, so series results can be validated
against this module as a genuinely independent code path.  The AGM-based
identities are classical; see Borwein & Borwein, "Pi and the AGM".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Tuple

from .precision import BigReal, DomainError, PrecisionContext, Rational, isqrt


# fixed-point guard bits of the AGM and theta3, above the working precision
_GUARD_BITS = 32


def _to_fixed_pair(a: BigReal, b: BigReal,
                   ctx: PrecisionContext) -> Tuple[int, int, int, int]:
    """(x, y, bits, stop): a and b in units of 2^-bits, with the larger at
    ~prec + guard bits, and the |x - y| below which one more AGM step
    leaves an error under a unit."""
    bits = ctx.prec + _GUARD_BITS - ctx.mag(max(a, b))
    return (ctx.to_fixed(a, bits), ctx.to_fixed(b, bits), bits,
            1 << ((ctx.prec + _GUARD_BITS) // 2))


def agm(a: Any, b: Any, ctx: PrecisionContext) -> BigReal:
    """Common limit of a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n*b_n).

    Quadratically convergent: the iteration count is O(log(working_digits)).
    While one argument exceeds twice the other, each step takes the square
    root of their ratio in mpf arithmetic.  The remaining steps run in
    binary fixed point with the substrate's integer square root, at the
    working precision plus 32 guard bits relative to the larger argument:
    the iterates then share their leading bits, so one fixed scale holds
    both.  A fixed scale set by the smaller argument instead would widen
    every step by the exponent gap (b = 1e-54 at r = 6400, 1e-48000 at
    r = 5e9).  The loop stops once a_n - b_n falls below half the
    fixed-point width, since the next mean is then within
    (a_n - b_n)^2/(8 a_n) of the limit.
    """
    a = ctx.mpf(a)
    b = ctx.mpf(b)
    if a <= 0 or b <= 0:
        raise DomainError(f"agm requires positive arguments, got ({a}, {b})")
    while a > 2 * b or b > 2 * a:
        a, b = (a + b) / 2, ctx.sqrt(a * b)
    x, y, bits, stop = _to_fixed_pair(a, b, ctx)
    while abs(x - y) > stop:
        x, y = (x + y) >> 1, isqrt(x * y)
    return ctx.from_fixed((x + y) >> 1, bits)


def _agm_with_side_sum(k: BigReal, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """AGM(1, k') together with sum 2^(n-1) c_n^2 over the c-sequence c_0 = k.

    Steps as :func:`agm` does, the side sum accumulating in the same
    fixed point; the c_n after the last step is added too, since its
    weight 2^(n-1) grows with the step count.
    """
    a = ctx.one
    b = ctx.sqrt(1 - k * k)
    csum = k * k / 2
    n = 0
    while a > 2 * b:  # a_n >= b_n: the arithmetic mean bounds the geometric
        c = (a - b) / 2
        a, b = (a + b) / 2, ctx.sqrt(a * b)
        n += 1
        csum += ctx.mpf(2) ** (n - 1) * c * c
    x, y, bits, stop = _to_fixed_pair(a, b, ctx)
    s = ctx.to_fixed(csum, bits)
    while True:
        c = (x - y) >> 1
        n += 1
        s += (c * c) >> (bits - n + 1)
        if x - y <= stop:
            break
        x, y = (x + y) >> 1, isqrt(x * y)
    return ctx.from_fixed((x + y) >> 1, bits), ctx.from_fixed(s, bits)


def K_ref(k: Any, ctx: PrecisionContext) -> BigReal:
    """Complete elliptic integral of the first kind, K(k) = pi/(2*agm(1, k')).

    Defined for 0 <= k < 1; K diverges logarithmically as k -> 1.
    """
    k = ctx.mpf(k)
    if k < 0 or k >= 1:
        raise DomainError(f"K requires 0 <= k < 1, got {k}")
    return ctx.pi / (2 * agm(ctx.one, ctx.sqrt(1 - k * k), ctx))


def E_ref(k: Any, ctx: PrecisionContext) -> BigReal:
    """Complete elliptic integral of the second kind via the AGM side sum.

    E(k) = K(k) * (1 - sum_{n>=0} 2^(n-1) c_n^2) with c_0 = k and
    c_{n+1} = (a_n - b_n)/2 along the AGM(1, k') iteration, stepped as
    :func:`agm` steps: in mpf while 1 > 2 k'_n, then in fixed point with
    the side sum in the same units.  The endpoint E(1) = 1 is returned
    exactly (the AGM degenerates there).
    """
    k = ctx.mpf(k)
    if k < 0 or k > 1:
        raise DomainError(f"E requires 0 <= k <= 1, got {k}")
    if k == 1:
        return ctx.one
    limit, csum = _agm_with_side_sum(k, ctx)
    bigk = ctx.pi / (2 * limit)
    return bigk * (1 - csum)


def theta3(q: Any, ctx: PrecisionContext) -> BigReal:
    """Theta constant 1 + 2*sum_{n>=1} q^(n^2) for 0 <= q < 1.

    Terms decay like q^(n^2), so at most O(sqrt(working_digits/|log10 q|))
    of them exceed the 10^(-working_digits) cutoff.  They are summed in
    binary fixed point at the working precision plus 32 guard bits, where
    theta3 >= 1 needs only absolute precision: q^(n^2) follows from the
    last term by the factor q^(2n-1), and the sum stops at the first term
    under one unit.
    """
    q = ctx.mpf(q)
    if q < 0 or q >= 1:
        raise DomainError(f"theta series requires 0 <= q < 1, got {q}")
    bits = ctx.prec + _GUARD_BITS
    t = step = ctx.to_fixed(q, bits)  # q^(n^2) and q^(2n-1)
    q2 = (t * t) >> bits
    s = 1 << bits
    while t:
        s += 2 * t
        step = (step * q2) >> bits
        t = (t * step) >> bits
    return ctx.from_fixed(s, bits)


def b_quarter(ctx: PrecisionContext) -> BigReal:
    """Gamma(1/4)^2/sqrt(pi), via the lemniscatic identity.

    Gamma(1/4)^2 = 2*pi^(3/2)/agm(1, 1/sqrt(2)), hence the value returned
    here is 2*pi/agm(1, 1/sqrt(2)).  Dividing by pi gives the headline
    constant Gamma(1/4)^2/pi^(3/2).  Equivalent check: K(1/sqrt(2)) is one
    quarter of this value.
    """
    return 2 * ctx.pi / agm(ctx.one, ctx.sqrt(2) / 2, ctx)


def nome(r: Rational, ctx: PrecisionContext) -> BigReal:
    """q = exp(-pi*sqrt(r)) for rational r > 0."""
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"nome requires r > 0, got {r}")
    return ctx.exp(-ctx.pi * ctx.sqrt(ctx.mpf(r)))
