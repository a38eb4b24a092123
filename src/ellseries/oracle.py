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
from functools import cached_property
from typing import Any, Tuple

from .precision import BigReal, DomainError, PrecisionContext, Rational, isqrt


# fixed-point guard bits of the AGM and theta3, above the working precision
_GUARD_BITS = 32


class AGMRun:
    """agm(a, b) as :func:`agm` stepped it, with the iterates it stepped through.

    ``value`` is the limit.  The iterates are kept as the loop formed them
    (mpf pairs while one argument exceeds twice the other, then the binary
    fixed-point pairs), so :meth:`side_sum` forms each half-difference c_n
    and adds it in step order: the sum is the same to the last bit as one
    accumulated while stepping, and an AGM whose side sum nobody reads pays
    nothing for it.
    """

    def __init__(self, value: BigReal, ctx: PrecisionContext, mpf_steps: list,
                 bits: int, fixed_steps: list) -> None:
        self.value, self.ctx = value, ctx
        self._mpf_steps, self._bits, self._fixed_steps = mpf_steps, bits, fixed_steps

    def side_sum(self, c0: Any) -> BigReal:
        """sum_{n>=0} 2^(n-1) c_n^2 with c_{n+1} = (a_n - b_n)/2 and c_0 given.

        The mpf steps add in mpf arithmetic; the fixed-point steps add in the
        loop's fixed point, the c_n after the last step included, since its
        weight 2^(n-1) grows with the step count.
        """
        ctx, bits = self.ctx, self._bits
        c0 = ctx.mpf(c0)
        csum = c0 * c0 / 2
        for n, (a, b) in enumerate(self._mpf_steps):
            c = (a - b) / 2
            csum += ctx.mpf(2) ** n * c * c
        s = ctx.to_fixed(csum, bits)
        for n, (x, y) in enumerate(self._fixed_steps, len(self._mpf_steps)):
            c = (x - y) >> 1
            s += (c * c) >> (bits - n)
        return ctx.from_fixed(s, bits)

    @cached_property
    def K(self) -> BigReal:
        """K(k) = pi/(2 agm(1, k')), for a run of agm(1, k')."""
        return self.ctx.pi / (2 * self.value)

    def E(self, k: Any) -> BigReal:
        """E(k) = K(k) * (1 - sum_{n>=0} 2^(n-1) c_n^2), for a run of agm(1, k').

        c_0 = k and c_{n+1} = (a_n - b_n)/2 along the run (:meth:`side_sum`).
        k' (0 < k' <= 1) is the one the run was given, so a caller that holds it
        exactly (a solved modulus pair) does not lose it to sqrt(1 - k^2) near
        k = 1, and one that already read K from the run runs no second AGM.
        E >= 1 is clamped at 1: below k' ~ 10^(-working/2), E - 1 is under the
        rounding error of K (1 - sum), which would otherwise read 0.999....
        As k -> 1 the sum tends to 1, so E loses about log10 K(k) digits: ~5 at
        k_r for r = 1/5e9, under 5.1 while r >= 1/moduli.R_MAX.  tests/test_cli.py's
        test_agm_E_near_k_one_keeps_a_digit_past_the_target pins the gate's margin.
        """
        return max(self.K * (1 - self.side_sum(k)), self.ctx.one)


def agm(a: Any, b: Any, ctx: PrecisionContext) -> AGMRun:
    """The run of agm(a, b): its limit ``.value`` and the iterates E's side sum reads.

    The steps are a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n*b_n) and
    c_{n+1} = (a_n-b_n)/2, and their count is O(log(working_digits)).
    While one argument exceeds twice the other, each step takes the square
    root of their product in mpf arithmetic.
    The remaining steps run in binary fixed point with the substrate's
    integer square root, at the working precision plus 32 guard bits
    relative to the larger argument: the iterates then share their leading
    bits, so one fixed scale holds both.  A fixed scale set by the smaller
    argument instead would widen every step by the exponent gap (b = 1e-54
    at r = 6400, 1e-48000 at r = 5e9).  The loop stops once a_n - b_n falls
    below half the fixed-point width, since the next mean is then within
    (a_n - b_n)^2/(8 a_n) of the limit.
    """
    a, b = ctx.mpf(a), ctx.mpf(b)
    if a <= 0 or b <= 0:
        raise DomainError(f"agm requires positive arguments, got ({a}, {b})")
    mpf_steps = []
    while a > 2 * b or b > 2 * a:
        mpf_steps.append((a, b))
        a, b = (a + b) / 2, ctx.sqrt(a * b)
    bits = ctx.prec + _GUARD_BITS - ctx.mag(max(a, b))
    x, y = ctx.to_fixed(a, bits), ctx.to_fixed(b, bits)
    stop = 1 << ((ctx.prec + _GUARD_BITS) // 2)
    fixed_steps = [(x, y)]
    while abs(x - y) > stop:
        x, y = (x + y) >> 1, isqrt(x * y)
        fixed_steps.append((x, y))
    return AGMRun(ctx.from_fixed((x + y) >> 1, bits), ctx, mpf_steps, bits, fixed_steps)


def _agm_at(k: Any, ctx: PrecisionContext) -> AGMRun:
    """The agm(1, k') run, k' = sqrt(1 - k^2), that K(k) and E(k) read, for 0 <= k < 1."""
    k = ctx.mpf(k)
    if k < 0 or k >= 1:
        raise DomainError(f"K requires 0 <= k < 1, got {k}")
    return agm(ctx.one, ctx.sqrt(1 - k * k), ctx)


def K_ref(k: Any, ctx: PrecisionContext) -> BigReal:
    """Complete elliptic integral of the first kind, K(k) = pi/(2*agm(1, k')).

    Defined for 0 <= k < 1; K diverges logarithmically as k -> 1.
    """
    return _agm_at(k, ctx).K


def K_E_ref(k: Any, ctx: PrecisionContext) -> Tuple[BigReal, BigReal]:
    """(K(k), E(k)) for 0 <= k < 1 from one agm(1, sqrt(1 - k^2)) run.

    Each equals :func:`K_ref` and :func:`E_ref` at k to the last bit.
    """
    run = _agm_at(k, ctx)
    return run.K, run.E(k)


def E_ref(k: Any, ctx: PrecisionContext) -> BigReal:
    """Complete elliptic integral of the second kind, :meth:`AGMRun.E` at k' = sqrt(1 - k^2).

    The endpoint E(1) = 1 is returned exactly (the AGM degenerates there).
    """
    k = ctx.mpf(k)
    if k < 0 or k > 1:
        raise DomainError(f"E requires 0 <= k <= 1, got {k}")
    if k == 1:
        return ctx.one
    return _agm_at(k, ctx).E(k)


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


def _lemniscatic_agm(ctx: PrecisionContext) -> BigReal:
    """agm(1, 1/sqrt(2)); the headline constant Gamma(1/4)^2/pi^(3/2) is 2 over it."""
    return agm(ctx.one, ctx.sqrt(2) / 2, ctx).value


def b_quarter(ctx: PrecisionContext) -> BigReal:
    """Gamma(1/4)^2/sqrt(pi), via the lemniscatic identity.

    Gamma(1/4)^2 = 2*pi^(3/2)/agm(1, 1/sqrt(2)), hence the value returned
    here is 2*pi/agm(1, 1/sqrt(2)).  Dividing by pi gives the headline
    constant Gamma(1/4)^2/pi^(3/2).  Equivalent check: K(1/sqrt(2)) is one
    quarter of this value.
    """
    return 2 * ctx.pi / _lemniscatic_agm(ctx)


def gamma_quarter_ref(ctx: PrecisionContext) -> BigReal:
    """The headline constant Gamma(1/4)^2/pi^(3/2) = 2/agm(1, 1/sqrt(2))."""
    return 2 / _lemniscatic_agm(ctx)


def nome(r: Rational, ctx: PrecisionContext) -> BigReal:
    """q = exp(-pi*sqrt(r)) for rational r > 0."""
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"nome requires r > 0, got {r}")
    return ctx.exp(-ctx.pi * ctx.sqrt(ctx.mpf(r)))
