"""Wall-time scaling of the headline constant, its AGM oracle and its formatting.

series_s times the modulus chain and the sum over it, whose cost is
dominated by the chain radicals plus ~1 term per 108 digits; the oracle
is 2/agm(1, 1/sqrt(2)), a single AGM, and agree is the value's agreement
with it in digits; formatting converts the value to a truncated decimal
string.
All should scale close to the big-float multiplication cost.

Usage: python scripts/precision_scaling.py [digits digits ...]
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ellseries import (chain_to_6400, gamma_quarter_ref, gamma_quarter_series,
                       make_context, to_decimal_string)


def main() -> None:
    targets = [int(a) for a in sys.argv[1:]] or [250, 500, 1000, 2000, 4000, 10000, 50000]
    print(f"{'digits':>7} {'terms':>6} {'series_s':>9} {'oracle_s':>9} {'format_s':>9} "
          f"{'agree':>7}")
    for d in targets:
        ctx = make_context(d)
        t0 = time.perf_counter()
        value, report = gamma_quarter_series(chain_to_6400(ctx))
        t_series = time.perf_counter() - t0
        t0 = time.perf_counter()
        oracle = gamma_quarter_ref(ctx)
        t_oracle = time.perf_counter() - t0
        t0 = time.perf_counter()
        to_decimal_string(ctx, value, d)
        t_format = time.perf_counter() - t0
        print(f"{d:>7} {report.terms_used:>6} {t_series:>9.4f} {t_oracle:>9.4f} "
              f"{t_format:>9.4f} {ctx.agreement_digits(value, oracle):>7.0f}", flush=True)


if __name__ == "__main__":
    main()
