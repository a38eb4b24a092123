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
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from . import moduli, series
from .oracle import E_ref
from .precision import (DomainError, PrecisionContext, PrecisionError,
                        make_context, to_decimal_string)
from .series import SeriesConvergenceError, SingularSeriesError
from .verify import GROUPS, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECISION = 2
EXIT_VERIFY = 3


@dataclass
class RunReport:
    """One command's result in the stable reporting schema."""

    command: str
    target_digits: int
    value_digits: str
    terms_used: int
    digits_per_term: Optional[float]
    oracle_agreement_digits: int
    elapsed: float
    warnings: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "target_digits": self.target_digits,
            "value_digits": self.value_digits,
            "terms_used": self.terms_used,
            "digits_per_term": self.digits_per_term,
            "oracle_agreement_digits": self.oracle_agreement_digits,
            "elapsed_seconds": self.elapsed,
            "warnings": list(self.warnings),
        }

    def to_text(self) -> str:
        dpt = "n/a" if self.digits_per_term is None else f"{self.digits_per_term:.2f}"
        lines = [
            f"command:           {self.command}",
            f"target digits:     {self.target_digits}",
            f"value:             {self.value_digits}",
            f"terms used:        {self.terms_used}",
            f"digits per term:   {dpt}",
            f"oracle agreement:  {self.oracle_agreement_digits} digits",
            f"elapsed:           {self.elapsed:.3f} s",
        ]
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
        return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


class UsageError(ValueError):
    """Command-line value errors that map to exit code 1."""


def _emit(reports: List[RunReport], fmt: str) -> None:
    if fmt == "json":
        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(r.to_text() for r in reports))


def _agreement_int(ctx: PrecisionContext, digits: Optional[float]) -> int:
    if digits is None:
        return 0
    return min(int(digits), ctx.working_digits)


def _series_report(command: str, digits: int, ctx: PrecisionContext,
                   compute: Callable[[], tuple]) -> RunReport:
    """Time ``compute() -> (value, ConvergenceReport)`` and report its result."""
    t0 = time.perf_counter()
    value, report = compute()
    elapsed = time.perf_counter() - t0
    return RunReport(
        command=command,
        target_digits=digits,
        value_digits=to_decimal_string(ctx, value, digits),
        terms_used=report.terms_used,
        digits_per_term=report.digits_per_term,
        oracle_agreement_digits=_agreement_int(ctx, report.final_error_vs_oracle),
        elapsed=elapsed,
        warnings=list(report.notes),
    )


def _rational(text: str) -> Fraction:
    """argparse type for --r: an integer or p/q with q != 0."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q with q != 0, got {text!r}") from None


def _cmd_constant(args) -> int:
    if args.terms is not None and not 1 <= args.terms <= series.RUNAWAY_TERM_CEILING:
        raise UsageError(f"--terms must be an integer in 1..{series.RUNAWAY_TERM_CEILING}, "
                         f"got {args.terms}")
    ctx = make_context(args.digits)
    rep = _series_report(f"constant {args.name}", args.digits, ctx,
                         lambda: series.gamma_quarter_series(ctx, n_terms=args.terms))
    _emit([rep], args.format)
    return EXIT_OK


def _elliptic_series(kind: str, pair, ctx: PrecisionContext):
    if kind == "K":
        raw, report = series.two_K_over_pi(pair, ctx)
        return raw * ctx.pi / 2, report
    raw, report = series.four_E_over_pi(pair, ctx)
    return raw * ctx.pi / 4, report


def _elliptic_agm(kind: str, pair, ctx: PrecisionContext):
    if kind == "K":
        return pair.K(ctx)
    return E_ref(pair.k, ctx)


def _cmd_elliptic(args) -> int:
    r = args.r
    if r <= 0:
        raise DomainError(f"--r must be a positive rational, got {r}")
    ctx = make_context(args.digits)
    t0 = time.perf_counter()
    if args.method != "agm" and r == 1:
        raise SingularSeriesError(
            "the series path is singular at r = 1: its term weight has "
            "denominator 1 - 2 k_r^2, which vanishes at k_1 = 1/sqrt(2); "
            "use --method agm"
        )
    pair = moduli.solve_kr(r, ctx)
    warnings: List[str] = []
    terms_used = 0
    digits_per_term = None
    if args.method == "agm":
        value = _elliptic_agm(args.kind, pair, ctx)
        ctx_hi = make_context(args.digits + 25)
        pair_hi = moduli.solve_kr(r, ctx_hi)
        value_hi = _elliptic_agm(args.kind, pair_hi, ctx_hi)
        agreement = ctx_hi.agreement_digits(value, value_hi)
        warnings.append("agm method: agreement measured against a recomputation "
                        "at 25 extra digits")
    else:
        # series and both: the series report already holds its agreement
        # with the AGM oracle, the pair's K or E_ref
        value, report = _elliptic_series(args.kind, pair, ctx)
        terms_used = report.terms_used
        digits_per_term = report.digits_per_term
        agreement = report.final_error_vs_oracle
    elapsed = time.perf_counter() - t0
    rep = RunReport(
        command=f"elliptic {args.kind} r={r} method={args.method}",
        target_digits=args.digits,
        value_digits=to_decimal_string(ctx, value, args.digits),
        terms_used=terms_used,
        digits_per_term=digits_per_term,
        oracle_agreement_digits=_agreement_int(ctx, agreement),
        elapsed=elapsed,
        warnings=warnings,
    )
    _emit([rep], args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.digits < 50:
        raise PrecisionError(
            f"verify requires --digits >= 50, got {args.digits}"
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
                     f"{args.digits} digits in {elapsed:.1f} s")
        measured = [c for c in results if c.residual_digits is not None]
        if measured:
            worst = min(measured, key=lambda c: c.residual_digits)
            lines.append(f"worst residual: 1e-{worst.residual_digits:.1f} "
                         f"({worst.group}/{worst.name})")
        print("\n".join(lines))
    return EXIT_OK if all_passed else EXIT_VERIFY


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
    reports: List[RunReport] = []
    for d in targets:
        ctx = make_context(d)
        reports.append(_series_report("bench gamma-quarter", d, ctx,
                                      lambda: series.gamma_quarter_series(ctx)))
        reports.append(_series_report(
            "bench two-K-over-pi(r=100)", d, ctx,
            lambda: series.two_K_over_pi(moduli.solve_kr(100, ctx), ctx)))
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
    p.add_argument("--terms", type=int, default=None,
                   help="force an exact series term count")
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
    except (PrecisionError, DomainError, SingularSeriesError) as e:
        print(f"ellseries: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except UsageError as e:
        print(f"ellseries: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (moduli.RootSelectionError, SeriesConvergenceError, RuntimeError) as e:
        print(f"ellseries: verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
