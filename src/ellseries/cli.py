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


def _run_report(command: str, ctx: PrecisionContext, value, terms_used: int,
                digits_per_term: Optional[float], agreement: float,
                elapsed: float, warnings: List[str]) -> dict:
    """One command's result in the stable reporting schema: its JSON object.

    This is the one oracle gate: a value that agrees with its oracle to
    fewer than target - 5 digits raises RuntimeError (exit 3) unreported.
    The oracles: ``oracle.gamma_quarter_ref`` for the headline constant;
    2/pi K or 4/pi E of the solved pair for a 2K/pi or 4E/pi sum, compared
    before :func:`_series_report` scales it; a recomputation at 25 more
    digits for ``elliptic --method agm``.
    """
    if agreement < ctx.target_digits - 5:
        raise RuntimeError(f"{command} does not match its oracle: {agreement:.1f} "
                           f"digits at target {ctx.target_digits}")
    return {
        "command": command,
        "target_digits": ctx.target_digits,
        "value_digits": to_decimal_string(ctx, value, ctx.target_digits),
        "terms_used": terms_used,
        "digits_per_term": digits_per_term,
        "oracle_agreement_digits": min(int(agreement), ctx.working_digits),
        "elapsed_seconds": elapsed,
        "warnings": warnings,
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


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


class UsageError(ValueError):
    """Command-line value errors that map to exit code 1."""


def _emit(reports: List[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    else:
        print("\n\n".join(_report_text(r) for r in reports))


def _series_report(command: str, ctx: PrecisionContext, compute: Callable[[], tuple],
                   scale=None, warnings: Sequence[str] = ()) -> dict:
    """Time ``compute() -> (sum, ConvergenceReport, oracle)`` and report the sum.

    The gate reads the sum's agreement with ``oracle``; the reported value
    is the sum times ``scale``, when one is given.
    """
    t0 = time.perf_counter()
    value, report, reference = compute()
    agreement = ctx.agreement_digits(value, reference)
    if scale is not None:
        value = value * scale
    elapsed = time.perf_counter() - t0
    return _run_report(command, ctx, value, report.terms_used, report.digits_per_term,
                       agreement, elapsed, list(warnings))


def _headline(ctx: PrecisionContext) -> tuple:
    """(the headline series over the modulus chain, its report, its AGM oracle)."""
    value, report = series.gamma_quarter_series(moduli.chain_to_6400(ctx))
    return value, report, oracle.gamma_quarter_ref(ctx)


def _elliptic_sum(kind: str, pair: moduli.ModulusPair) -> tuple:
    """(the 2K/pi or 4E/pi series at ``pair``, its report, 2/pi K or 4/pi E of the pair)."""
    if kind == "K":
        value, report = series.two_K_over_pi(pair)
        return value, report, 2 * pair.K / pair.ctx.pi
    value, report = series.four_E_over_pi(pair)
    return value, report, 4 * pair.E / pair.ctx.pi


def _rational(text: str) -> Fraction:
    """argparse type for --r: an integer or p/q with q != 0."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q with q != 0, got {text!r}") from None


def _check_ceiling(digits: int) -> None:
    """Refuse a --digits target past MAX_DIGITS (exit 2)."""
    if digits > MAX_DIGITS:
        raise PrecisionError(f"--digits {digits} is above the ceiling of {MAX_DIGITS}")


def _cmd_constant(args) -> int:
    _check_ceiling(args.digits)
    ctx = make_context(args.digits)
    rep = _series_report(f"constant {args.name}", ctx, lambda: _headline(ctx),
                         warnings=[_HEADLINE_NOTE])
    _emit([rep], args.format)
    return EXIT_OK


def _cmd_elliptic(args) -> int:
    r = args.r
    if r <= 0:
        raise DomainError(f"--r must be a positive rational, got {r}")
    _check_ceiling(args.digits)
    ctx = make_context(args.digits)
    command = f"elliptic {args.kind} r={r} method={args.method}"
    if args.method == "agm":
        t0 = time.perf_counter()
        value = getattr(moduli.solve_kr(r, ctx), args.kind)
        ctx_hi = make_context(args.digits + 25)
        value_hi = getattr(moduli.solve_kr(r, ctx_hi), args.kind)
        agreement = ctx_hi.agreement_digits(value, value_hi)
        rep = _run_report(command, ctx, value, 0, None, agreement, time.perf_counter() - t0,
                          ["agm method: agreement measured against a recomputation "
                           "at 25 extra digits"])
    else:
        # series and both: the 2K/pi or 4E/pi sum, times pi/2 or pi/4
        rep = _series_report(command, ctx,
                             lambda: _elliptic_sum(args.kind, moduli.solve_kr(r, ctx)),
                             scale=ctx.pi / (2 if args.kind == "K" else 4))
    _emit([rep], args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 50 <= args.digits <= VERIFY_MAX_DIGITS:
        raise PrecisionError(
            f"verify requires 50 <= --digits <= {VERIFY_MAX_DIGITS}, got {args.digits}"
        )
    selection = [s.strip() for s in args.selection.split(",") if s.strip()]
    if not selection:
        raise UsageError("--selection list is empty")
    for s in selection:
        if s != "all" and s not in GROUPS:
            raise UsageError(f"unknown selection {s!r}; choose from "
                             f"{', '.join(GROUPS)} or all")
    t0 = time.perf_counter()
    results = run_verify(args.digits, selection)
    elapsed = time.perf_counter() - t0
    all_passed = all(c.passed for c in results)
    if args.format == "json":
        print(json.dumps({
            "command": "verify",
            "target_digits": args.digits,
            "selection": selection,
            "passed": all_passed,
            "elapsed_seconds": elapsed,
            "checks": [
                {"name": c.name, "group": c.group, "passed": c.passed,
                 "residual_digits": c.residual_digits, "detail": c.detail}
                for c in results
            ],
        }, indent=2))
    else:
        lines = []
        for c in results:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.group}/{c.name}: {c.detail}")
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
    targets = []
    for part in args.digits.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            targets.append(int(part))
        except ValueError:
            raise UsageError(f"--digits expects a comma-separated list of "
                             f"integers, got {part!r}")
    if not targets:
        raise UsageError("--digits list is empty")
    for d in targets:
        if d < 100:
            raise PrecisionError(f"bench requires each digits >= 100, got {d}")
        _check_ceiling(d)
    reports: List[dict] = []
    for ctx in map(make_context, targets):
        reports.append(_series_report("bench gamma-quarter", ctx, lambda: _headline(ctx),
                                      warnings=[_HEADLINE_NOTE]))
        reports.append(_series_report(
            f"bench two-K-over-pi(r={_BENCH_R})", ctx,
            lambda: _elliptic_sum("K", moduli.solve_kr(_BENCH_R, ctx))))
        reports.append(_series_report(
            f"bench four-E-over-pi(r={_BENCH_R})", ctx,
            lambda: _elliptic_sum("E", moduli.solve_kr(_BENCH_R, ctx))))
    _emit(reports, args.format)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="ellseries",
                     description="Elliptic integrals, singular moduli and "
                                 "Gamma(1/4)^2/pi^(3/2) to arbitrary precision, "
                                 "with AGM cross-validation.")
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
    p.add_argument("--method", choices=["series", "agm", "both"], default="both")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--digits", type=int, default=250)
    p.add_argument("--selection", default="all",
                   help=f"comma-separated subset of {{{','.join(GROUPS)},all}}")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="terms, digits-per-term and wall time "
                                     "per precision target")
    p.add_argument("--digits", default="1000,10000,50000",
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
    except SystemExit as e:
        return int(e.code or 0)
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
    except UsageError as e:
        print(f"ellseries: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:  # RootSelectionError and SeriesConvergenceError too
        print(f"ellseries: verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
