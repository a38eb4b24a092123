"""Seeded op lists for the benchmark's three workloads.

An op is one `python -m ellseries ... --format json` invocation.  The
program only ever sees the generated argv; the seed decides the jittered
targets and the r drawn inside each elliptic slot's band, so the same seed
gives the same ops on every commit.

Each op carries a time limit.  A failed op is charged its limit in `run_s`
(a failure misses any latency limit), so fixing a failing op can never read
as a slowdown.  Each limit is about twice the slowest wall time seen for
that op on a shared 2-core host when this benchmark was added, so that a
failure's charge stays of the order of the op's own time.  Ops that failed
then were timed to the failure: the 10k headline op failed after 18-26 s
and gets 40 s; elliptic slots 7 and 8 failed within 0.7 s and get 1.5 s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

WORKLOADS = ("headline", "elliptic", "verify")

# Targets are jittered by at most this share: enough to vary the inputs, small
# enough that the cost of the superlinear 10k op does not swing with the seed.
JITTER = 0.01

# (base digits, limit in seconds)
HEADLINE_TARGETS = ((1000, 1.0), (3000, 3.0), (10000, 40.0))
VERIFY_TARGETS = ((250, 8.0), (500, 12.0))

# Jittered draws per headline target.  The 10k op takes most of a pass, so
# the cheap targets are drawn several times: op_s_p50 then falls among five
# 3k-digit samples, and the ops that pass weigh more in run_s against the
# failing 10k op's charge.
HEADLINE_DRAWS = {1000: 3, 3000: 5, 10000: 1}

# Each slot's band is cut into this many equal parts and one r is drawn from
# each.  Op cost varies several-fold across a band (terms grow as k_r grows),
# so one draw per slot made the metrics depend on the seed far more than on
# the program; stratified draws keep every run representative of the band.
ELLIPTIC_STRATA = 3

# (kind, method, band, digits, limit in seconds).  Bands:
#   ("int", lo, hi)        integer r in [lo, hi]
#   ("nonsquare", lo, hi)  p/q in (lo, hi), not an integer, not a rational square
#   ("ratio", lo, hi)      p/q in [lo, hi]
ELLIPTIC_SLOTS = (
    ("K", "both", ("int", 64, 144), 1500, 5.0),                          # series + solve_kr
    ("E", "both", ("int", 64, 144), 1500, 8.0),                          # series + solve_kr
    ("K", "both", ("nonsquare", 2, 10), 500, 1.5),                       # 300-500 terms
    ("E", "both", ("nonsquare", 2, 10), 300, 1.5),                       # 300-500 terms
    ("K", "both", ("int", 3000, 10000), 1000, 4.0),                      # tiny k, bisection
    ("K", "agm", ("ratio", Fraction(1, 50), Fraction(1, 2)), 300, 1.5),  # complementary side
    ("K", "agm", ("ratio", Fraction(1, 200), Fraction(1, 64)), 300, 1.5),  # solve_kr exited 3 here
    ("K", "both", ("int", 50000, 1000000), 100, 1.5),                    # k_r below the bracket floor
)


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: Tuple[str, ...]   # arguments after `python -m ellseries`
    kind: str               # "constant", "K", "E" or "verify"
    target: int             # requested digits
    limit_s: float
    r: Optional[Fraction] = None


def _jitter(rng: random.Random, base: int) -> int:
    return round(base * (1 + rng.uniform(-JITTER, JITTER)))


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def draw_r(rng: random.Random, band, stratum: int = 0, strata: int = 1) -> Fraction:
    """One r from part `stratum` of a slot band cut into `strata` equal parts."""
    shape, lo, hi = band
    width = Fraction(hi - lo) / strata
    lo, hi = lo + stratum * width, lo + (stratum + 1) * width
    if shape == "int":
        return Fraction(rng.randint(math.ceil(lo), math.ceil(hi) - (stratum + 1 < strata)))
    while True:
        if shape == "nonsquare":
            q = rng.randint(2, 12)
            r = Fraction(rng.randint(math.floor(lo * q) + 1, math.ceil(hi * q) - 1), q)
            if (lo < r < hi and r.denominator > 1
                    and not (_is_square(r.numerator) and _is_square(r.denominator))):
                return r
        elif shape == "ratio":
            q = rng.randint(1, 2 * math.ceil(1 / band[1]))
            p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
            if p_lo <= p_hi:
                return Fraction(rng.randint(p_lo, p_hi), q)
        else:
            raise ValueError(f"unknown band shape {shape!r}")


def make_ops(workload: str, seed: int) -> List[Op]:
    """The op list of one workload for one seed, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    # Draws go round-robin (first draw of every target or slot, then the
    # second, ...) so that each kind's samples spread over the whole pass and
    # a slow phase of a shared host does not land on one kind only.
    if workload == "headline":
        ops = []
        for j in range(max(HEADLINE_DRAWS.values())):
            for base, limit in HEADLINE_TARGETS:
                if j < HEADLINE_DRAWS[base]:
                    d = _jitter(rng, base)
                    ops.append(Op(f"headline.{base}.{j + 1}", ("constant", "gamma-quarter",
                                                               "--digits", str(d),
                                                               "--format", "json"),
                                  "constant", d, limit))
        return ops
    if workload == "elliptic":
        ops = []
        for j in range(ELLIPTIC_STRATA):
            for i, (kind, method, band, digits, limit) in enumerate(ELLIPTIC_SLOTS, 1):
                r = draw_r(rng, band, j, ELLIPTIC_STRATA)
                ops.append(Op(f"elliptic.slot{i}.{j + 1}", ("elliptic", kind, "--r", str(r),
                                                          "--digits", str(digits),
                                                          "--method", method,
                                                          "--format", "json"),
                              kind, digits, limit, r))
        return ops
    if workload == "verify":
        ops = []
        for base, limit in VERIFY_TARGETS:
            d = _jitter(rng, base)
            ops.append(Op(f"verify.{base}", ("verify", "--digits", str(d), "--selection", "all",
                                             "--format", "json"),
                          "verify", d, limit))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
