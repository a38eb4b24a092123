"""Measure digits-per-term for the modulus series against the geometric rate.

For the first-kind series at singular modulus k_r the per-term gain should
match -2*log10(k_r); for the headline constant the rate is set by
w = k_6400 (~108 digits/term).  Prints measured least-squares slopes next
to the geometric prediction.  The row at r = 89^2 = 7921 accounts for the
abstract's "about 120 digits per term": the rate -2*log10(k_r) passes 120
near there (118.9 at 88^2, 120.2 at 89^2, 121.6 at 90^2), while the
published radicals, and so the headline series, stop at r = 6400.

Usage: python scripts/digits_per_term_study.py [target_digits]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ellseries import (chain_to_6400, gamma_quarter_ref, gamma_quarter_series,
                       make_context, solve_kr, two_K_over_pi)


def _slope(value) -> str:
    """A slope column; None (fewer than two traced terms) prints as n/a."""
    return f"{'n/a':>10}" if value is None else f"{value:>10.3f}"


def main() -> None:
    target = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    ctx = make_context(target)
    print(f"target digits: {target} (working {ctx.working_digits})")
    print(f"{'series':>28} {'terms':>6} {'measured':>10} {'geometric':>10}")
    for r in (4, 16, 100, 89 ** 2):
        pair = solve_kr(r, ctx)
        _, report = two_K_over_pi(pair)
        geo = float(-2 * ctx.log10(pair.k))
        print(f"{f'2K/pi at r={r}':>28} {report.terms_used:>6} "
              f"{_slope(report.digits_per_term)} {geo:>10.3f}")
    chain = chain_to_6400(ctx)
    value, report = gamma_quarter_series(chain)
    w = chain[3].k
    geo = float(-2 * ctx.log10(w))
    print(f"{'Gamma(1/4)^2/pi^(3/2)':>28} {report.terms_used:>6} "
          f"{_slope(report.digits_per_term)} {geo:>10.3f}")
    print(f"\nconstant = {str(value)[:62]}...")
    agreement = ctx.agreement_digits(value, gamma_quarter_ref(ctx))
    print(f"oracle agreement: {agreement:.1f} digits")
    print("the abstract's ~120 digits/term is the geometric rate near r = 89^2; "
          "the published radicals and this series stop at r = 6400")


if __name__ == "__main__":
    main()
