"""Command-line front end.

    ellseries constant gamma-quarter --digits 1000 [--format json]
    ellseries elliptic K --r 4 --digits 200 --method both
    ellseries verify --digits 250 --selection all
    ellseries bench --digits 1000,10000,50000

Exit codes: 0 success, 1 usage error, 2 precision/domain error,
3 verification failure (including any oracle mismatch); a reader that
closes stdout early ends the run with 1 and no traceback.  JSON goes to
stdout, diagnostics to stderr.  Reported value digits are truncated, not
rounded, so they are a prefix of any higher-precision run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Callable, List, Optional, Sequence

from . import moduli, oracle, series
from .precision import (DomainError, PrecisionContext, PrecisionError,
                        make_context, to_decimal_string)
from .verify import GROUPS, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECISION = 2
EXIT_VERIFY = 3

# The largest --digits of `constant`, `elliptic` and each `bench` target: a
# run's time budget, checked on the number typed before any context is built.
# It was sized for a 10 min `elliptic K --r 100` on a slower host.  On a
# 2-core host with Python 3.11 that run took 3.7 s, 15.3 s and 59 s at 50k,
# 100k and 200k digits (x3.9 per doubling at the top), so about 4 min here,
# and the headline constant 4.6 s and 17 s at 100k and 200k.
MAX_DIGITS = 392_000
# verify --selection all took 0.93, 3.3 and 12.8 s at 4k, 8k and 16k digits
# on that host (x3.7 per doubling), so 64k projects to about 3 min
VERIFY_MAX_DIGITS = 64_000

# the warning of every headline-constant report
_HEADLINE_NOTE = ("normalization derived from the modulus chain (scalar 640 = 8*80 against "
                  "the bracketed radical); the published 1/8 prefactor fails the AGM oracle "
                  "and is reported by `verify --selection chain`")


def _run_report(command: str, digits: int, compute: Callable[[PrecisionContext], tuple],
                warnings: Sequence[str] = ()) -> dict:
    """Time ``compute(ctx) -> (value, ConvergenceReport, agreement)`` at a
    context of ``digits``, built before the clock starts, and report the value.

    This is the one oracle gate: a value that agrees with its oracle to
    fewer than target + 1 digits raises RuntimeError (exit 3) unreported.
    Each compute function names its own oracle and measures ``agreement``
    against it at ``ctx``: :func:`_headline`, :func:`_elliptic_series`,
    :func:`_elliptic_sum` and :func:`_elliptic_agm`.
    """
    ctx = make_context(digits)
    t0 = time.perf_counter()
    value, report, agreement = compute(ctx)
    elapsed = time.perf_counter() - t0
    if agreement < ctx.target_digits + 1:
        raise RuntimeError(f"{command} does not match its oracle: {agreement:.1f} "
                           f"digits at target {ctx.target_digits}")
    return {
        "command": command,
        "target_digits": ctx.target_digits,
        "value_digits": to_decimal_string(ctx, value, ctx.target_digits),
        "terms_used": report.terms_used,
        "digits_per_term": report.digits_per_term,
        "oracle_agreement_digits": int(agreement),
        "elapsed_seconds": elapsed,
        "warnings": list(warnings),
    }


def _report_text(rep: dict) -> str:
    dpt = rep["digits_per_term"]
    lines = [
        f"command:           {rep['command']}",
        f"target digits:     {rep['target_digits']}",
        f"value:             {rep['value_digits']}",
        f"terms used:        {rep['terms_used']}",
        f"digits per term:   {'n/a' if dpt is None else f'{dpt:.2f}'}",
        f"oracle agreement:  {rep['oracle_agreement_digits']} digits",
        f"elapsed:           {rep['elapsed_seconds']:.3f} s",
    ]
    if rep["warnings"]:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in rep["warnings"])
    return "\n".join(lines)


def _emit(reports: List[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    else:
        print("\n\n".join(_report_text(r) for r in reports))


def _headline(ctx: PrecisionContext) -> tuple:
    """(the headline series over the modulus chain, its report, its agreement
    with ``oracle.gamma_quarter_ref``)."""
    value, report = series.gamma_quarter_series(moduli.chain_to_6400(ctx))
    return value, report, ctx.agreement_digits(value, oracle.gamma_quarter_ref(ctx))


def _elliptic_sum(kind: str, r: Fraction, ctx: PrecisionContext) -> tuple:
    """(the 2K/pi or 4E/pi series at the pair of ``r``, its report, its
    agreement with 2/pi K or 4/pi E of the pair)."""
    pair = moduli.solve_kr(r, ctx)
    if kind == "K":
        value, report = series.two_K_over_pi(pair)
        return value, report, ctx.agreement_digits(value, 2 * pair.K / ctx.pi)
    value, report = series.four_E_over_pi(pair)
    return value, report, ctx.agreement_digits(value, 4 * pair.E / ctx.pi)


def _elliptic_series(kind: str, r: Fraction, ctx: PrecisionContext) -> tuple:
    value, report, agreement = _elliptic_sum(kind, r, ctx)
    return value * (ctx.pi / (2 if kind == "K" else 4)), report, agreement


def _elliptic_agm(kind: str, r: Fraction, ctx: PrecisionContext) -> tuple:
    """(K or E of the pair solved at ``ctx``, a report of no terms, its agreement
    with theta3(q_s)^2 pi/2 at s = max(r, 1/r), times sqrt(s) for r < 1 (K), or
    with Legendre's relation E = agm(1, k) + K S', S' agm(1, k)'s side sum from k')."""
    pair = moduli.solve_kr(r, ctx)
    if kind == "K":
        check = oracle.theta3(oracle.nome(max(r, 1 / r), ctx), ctx) ** 2 * ctx.pi / 2
        if r < 1:  # K(k_r) = sqrt(1/r) K(k_{1/r})
            check *= ctx.sqrt(ctx.mpf(1 / r))
    else:
        run = oracle._agm(ctx.one, pair.k, ctx)
        check = run.value + pair.K * run.side_sum(pair.k_prime)
    value = getattr(pair, kind)
    return value, series.ConvergenceReport(0, list), ctx.agreement_digits(value, check)


def _rational(text: str) -> Fraction:
    """argparse type for --r: an integer or p/q with q != 0."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q with q != 0, got {text!r}") from None


def _group(name: str) -> str:
    """argparse type for one --selection part: a verify group or all."""
    if name != "all" and name not in GROUPS:
        raise argparse.ArgumentTypeError(f"unknown selection {name!r}; choose from "
                                         f"{', '.join(GROUPS)} or all")
    return name


def _comma_list(item: Callable[[str], object]) -> Callable[[str], list]:
    """argparse type: a comma-separated list read by ``item``, empty parts skipped."""
    def parse(text: str) -> list:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"  # argparse's "invalid int list value"
    return parse


def _check_ceiling(digits: int) -> None:
    """Refuse a --digits target past MAX_DIGITS (exit 2)."""
    if digits > MAX_DIGITS:
        raise PrecisionError(f"--digits {digits} is above the ceiling of {MAX_DIGITS}")


def _cmd_constant(args) -> int:
    _check_ceiling(args.digits)
    rep = _run_report(f"constant {args.name}", args.digits, _headline,
                      warnings=[_HEADLINE_NOTE])
    _emit([rep], args.format)
    return EXIT_OK


def _cmd_elliptic(args) -> int:
    r = args.r
    if r <= 0:
        raise DomainError(f"--r must be a positive rational, got {r}")
    _check_ceiling(args.digits)
    agm = args.method == "agm"  # series and both report the series value
    note = ("agm method: K checked by theta3(q)^2 pi/2, E by Legendre's relation; theta3 shares "
            "its mathematics with the theta-quotient q, which solve_kr's defining ratio checks")
    rep = _run_report(f"elliptic {args.kind} r={r} method={args.method}", args.digits,
                      partial(_elliptic_agm if agm else _elliptic_series, args.kind, r),
                      warnings=[note] if agm else [])
    _emit([rep], args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 50 <= args.digits <= VERIFY_MAX_DIGITS:
        raise PrecisionError(f"verify requires 50 <= --digits <= {VERIFY_MAX_DIGITS}, "
                             f"got {args.digits}")
    t0 = time.perf_counter()
    results = run_verify(args.digits, args.selection)
    elapsed = time.perf_counter() - t0
    all_passed = all(c.passed for c in results)
    if args.format == "json":
        print(json.dumps({
            "command": "verify",
            "target_digits": args.digits,
            "selection": args.selection,
            "passed": all_passed,
            "elapsed_seconds": elapsed,
            "checks": [
                {"name": c.name, "group": c.group, "passed": c.passed,
                 "residual_digits": c.residual_digits, "detail": c.detail}
                for c in results
            ],
        }, indent=2))
    else:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.group}/{c.name}: {c.detail}"
                 for c in results]
        n_pass = sum(1 for c in results if c.passed)
        lines.append(f"{n_pass}/{len(results)} checks passed at "
                     f"{args.digits} digits in {elapsed:.3f} s")
        measured = [c for c in results if c.residual_digits is not None]
        if measured:
            worst = min(measured, key=lambda c: c.residual_digits)
            lines.append(f"worst residual: 1e{-worst.residual_digits:+.1f} "
                         f"({worst.group}/{worst.name})")
        print("\n".join(lines))
    return EXIT_OK if all_passed else EXIT_VERIFY


# the modulus of bench's K and E rows
_BENCH_R = 100


def _cmd_bench(args) -> int:
    for d in args.digits:
        if d < 100:
            raise PrecisionError(f"bench requires each digits >= 100, got {d}")
        _check_ceiling(d)
    reports: List[dict] = []
    for d in args.digits:
        reports.append(_run_report("bench gamma-quarter", d, _headline,
                                   warnings=[_HEADLINE_NOTE]))
        for kind, name in (("K", "two-K-over-pi"), ("E", "four-E-over-pi")):
            reports.append(_run_report(f"bench {name}(r={_BENCH_R})", d,
                                       partial(_elliptic_sum, kind, _BENCH_R)))
    _emit(reports, args.format)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ellseries",
                                     description="Elliptic integrals, singular moduli and "
                                                 "Gamma(1/4)^2/pi^(3/2) to arbitrary "
                                                 "precision, with AGM cross-validation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("constant", help="compute a named constant")
    p.add_argument("name", choices=["gamma-quarter"])
    p.add_argument("--digits", type=int, default=100)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("elliptic", help="compute K(k_r) or E(k_r)")
    p.add_argument("kind", choices=["K", "E"])
    p.add_argument("--r", type=_rational, required=True,
                   help="parameter r as an integer or p/q")
    p.add_argument("--digits", type=int, default=100)
    p.add_argument("--method", choices=["series", "agm", "both"], default="both",
                   help="series, both (default): the series value checked against AGM K or E; "
                        "agm: the AGM value checked against theta3 (K) or Legendre's relation (E)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--digits", type=int, default=250)
    p.add_argument("--selection", type=_comma_list(_group), default="all",
                   help=f"comma-separated subset of {{{','.join(GROUPS)},all}}")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="terms, digits-per-term and wall time "
                                     "per precision target")
    p.add_argument("--digits", type=_comma_list(int), default="1000,10000,50000",
                   help="comma-separated list of precision targets")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        # The process's own command line (`python -m ellseries`, the console
        # script).  Nearly all of the ~17k objects the GC tracks after start-up
        # live until exit, so move them to the permanent generation: every
        # later GC pass, the exit's included, skips them.  `python -m
        # ellseries` imports with the GC off (`__main__`), so no pass scans
        # them before this either; parsing, compute and exit run with it on.
        # In-process callers pass argv and keep their GC as it is.
        gc.freeze()
        gc.enable()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error
        return EXIT_USAGE if e.code == 2 else int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader closed stdout (`| head`): exit 1 as the Python docs advise;
        # devnull keeps the exit-time flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PrecisionError, DomainError) as e:
        print(f"ellseries: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except RuntimeError as e:  # RootSelectionError and SeriesConvergenceError too
        print(f"ellseries: verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
