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

from .precision import BigReal, DomainError, PrecisionContext, Rational


def agm(a: Any, b: Any, ctx: PrecisionContext) -> BigReal:
    """Common limit of a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n*b_n).

    Quadratically convergent: the iteration count is O(log(working_digits)).
    """
    a = ctx.mpf(a)
    b = ctx.mpf(b)
    if a <= 0 or b <= 0:
        raise DomainError(f"agm requires positive arguments, got ({a}, {b})")
    eps = ctx.tol(ctx.working_digits)
    while abs(a - b) > eps * a:
        a, b = (a + b) / 2, ctx.sqrt(a * b)
    return (a + b) / 2


def _agm_with_side_sum(k: BigReal, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """AGM(1, k') together with sum 2^(n-1) c_n^2 over the c-sequence c_0 = k."""
    a = ctx.one
    b = ctx.sqrt(1 - k * k)
    csum = k * k / 2
    eps = ctx.tol(ctx.working_digits)
    n = 0
    while abs(a - b) > eps * a:
        c = (a - b) / 2
        a, b = (a + b) / 2, ctx.sqrt(a * b)
        n += 1
        csum += ctx.mpf(2) ** (n - 1) * c * c
    return (a + b) / 2, csum


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
    c_{n+1} = (a_n - b_n)/2 along the AGM(1, k') iteration.  The endpoint
    E(1) = 1 is returned exactly (the AGM degenerates there).
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
    of them exceed the 10^(-working_digits) cutoff.
    """
    q = ctx.mpf(q)
    if q < 0 or q >= 1:
        raise DomainError(f"theta series requires 0 <= q < 1, got {q}")
    eps = ctx.tol(ctx.working_digits)
    s = ctx.one
    n = 1
    while True:
        t = q ** (n * n)
        if t < eps:
            break
        s += 2 * t
        n += 1
    return s


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
