"""Outside-in span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps public `ellseries` functions from outside the package: each
wrapped function is replaced in every `ellseries` module namespace that binds
it (`cli`, `series`, `moduli` and `verify` import names with `from ... import`),
and `PrecisionContext.log10` is replaced on the class.  Spans stay in memory
in the child and are written out when the op ends.

A span is (name, start, end, parent index, failed, n), where `n` is a count
read from the return value: terms of an `eval_series` ConvergenceReport,
rejected roots of a `multiplier` result, checks of `run_verify`.  A child
writes its spans under the id of the op it ran.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence

# Public functions wrapped, per ellseries module.
TRACED = {
    "precision": ("make_context", "to_decimal_string"),
    "oracle": ("agm", "K_ref", "E_ref", "theta3", "b_quarter"),
    "moduli": ("solve_kr", "chain_to_6400", "eq2_residual", "multiplier"),
    "series": ("eval_series", "gamma_quarter_series", "two_K_over_pi", "four_E_over_pi",
               "derivative_weighted_sum"),
    "verify": ("run_verify",),
    "cli": ("main",),
}
LOG10 = "precision.log10"

COUNTERS: Dict[str, Callable] = {
    "series.eval_series": lambda result: result[1].terms_used,
    "moduli.multiplier": lambda result: len(result.rejected),
    "verify.run_verify": len,
}

NAME, START, END, PARENT, FAILED, N = range(6)


class Tracer:
    """In-memory span recorder for one op in one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[N] = counter(result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function and PrecisionContext.log10; return the cli module."""
        cli = importlib.import_module("ellseries.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "ellseries" or name.startswith("ellseries.")]
        for module, names in TRACED.items():
            home = importlib.import_module(f"ellseries.{module}")
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
        ctx_cls = importlib.import_module("ellseries.precision").PrecisionContext
        ctx_cls.log10 = self.wrap(LOG10, ctx_cls.log10)
        return cli

    def dump(self, fd: int, op_id: str) -> None:
        """Write the spans to file descriptor `fd` and close it."""
        with open(fd, "w") as f:
            json.dump({"op": op_id, "spans": self.spans}, f)


# ---- analysis, in the benchmark process --------------------------------

def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s[START]
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], edge), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s[END] - s[START] - covered)
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


# (metric, unit, better) in report order.
LAYER_METRICS = (
    ("precision.log10.calls", "count", "lower"),
    ("precision.log10.s", "s", "lower"),
    ("precision.to_decimal_string.s", "s", "lower"),
    ("precision.to_decimal_string.failed", "count", "lower"),
    ("precision.make_context.s", "s", "lower"),
    ("series.eval_series.calls", "count", "lower"),
    ("series.eval_series.self_s", "s", "lower"),
    ("series.eval_series.log10_s", "s", "lower"),
    ("series.eval_series.terms", "count", "lower"),
    ("series.gamma_quarter_series.s", "s", "lower"),
    ("series.two_K_over_pi.s", "s", "lower"),
    ("series.four_E_over_pi.s", "s", "lower"),
    ("series.derivative_weighted_sum.s", "s", "lower"),
    ("moduli.solve_kr.calls", "count", "lower"),
    ("moduli.solve_kr.s", "s", "lower"),
    ("moduli.solve_kr.agm_calls", "count", "lower"),
    ("moduli.chain_to_6400.s", "s", "lower"),
    ("moduli.eq2_residual.s", "s", "lower"),
    ("moduli.multiplier.calls", "count", "lower"),
    ("moduli.multiplier.self_s", "s", "lower"),
    ("moduli.multiplier.rejected", "count", "lower"),
    ("oracle.agm.calls", "count", "lower"),
    ("oracle.agm.self_s", "s", "lower"),
    ("oracle.K_ref.s", "s", "lower"),
    ("oracle.E_ref.s", "s", "lower"),
    ("oracle.theta3.s", "s", "lower"),
    ("oracle.b_quarter.s", "s", "lower"),
    ("verify.run_verify.s", "s", "lower"),
    ("verify.run_verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.main.s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(ops: Sequence[Sequence[Sequence]], op_walls: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: `ops` holds each op's span list.

    `.s` is inclusive time (outermost span of that name only), `.self_s`
    excludes child spans, `.calls` counts spans; all are totals over the
    pass.  `cli.startup_s` is the median over ops of the op's wall time
    minus its `cli.main` span.  `trace.overhead_s` is filled in by the caller.
    """
    m = {name: 0.0 for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    startups = []
    for spans, wall in zip(ops, op_walls):
        selfs = self_times(spans)
        main = [s[END] - s[START] for s in spans if s[NAME] == "cli.main"]
        startups.append(wall - sum(main))
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            if f"{name}.calls" in m:
                m[f"{name}.calls"] += 1
            if f"{name}.s" in m and not _has_ancestor(spans, i, name):
                m[f"{name}.s"] += dur
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] += selfs[i]
            if name == LOG10 and _has_ancestor(spans, i, "series.eval_series"):
                m["series.eval_series.log10_s"] += dur
            elif name == "oracle.agm" and _has_ancestor(spans, i, "moduli.solve_kr"):
                m["moduli.solve_kr.agm_calls"] += 1
            elif name == "precision.to_decimal_string" and s[FAILED]:
                m["precision.to_decimal_string.failed"] += 1
            elif name == "series.eval_series":
                m["series.eval_series.terms"] += s[N] or 0
            elif name == "moduli.multiplier":
                m["moduli.multiplier.rejected"] += s[N] or 0
            elif name == "verify.run_verify":
                m["verify.checks"] += s[N] or 0
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    return m


def parse(text: str, op_id: str) -> list:
    """Spans the traced child of op `op_id` wrote; empty if it wrote none."""
    try:
        doc = json.loads(text)
    except ValueError:
        return []
    return doc["spans"] if doc.get("op") == op_id else []
