"""Cross-validation suite: every identity in the package checked both ways.

`run_verify` runs the selected check groups and returns one `CheckResult`
per check.  The check bodies live in `_checks`, which `run_verify` imports
on its first call: a `constant` or `elliptic` run, which imports this
module through `cli`, compiles none of them.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from .precision import make_context


class CheckResult(NamedTuple):
    """One check's outcome; ``residual_digits`` is None for a check with no residual."""

    name: str
    group: str
    passed: bool
    detail: str
    residual_digits: Optional[float] = None


# check groups in report order; group g's rows come from `_checks._g_checks`
GROUPS = ("oracle", "moduli", "series", "chain")


def run_verify(target_digits: int, selection: Iterable[str]) -> List[CheckResult]:
    """Run the selected check groups at the given precision, sequentially.

    Results come back group by group, in `GROUPS` order; each row's group
    is the group whose check function built it.
    """
    from . import _checks

    sel = set(selection)
    if "all" in sel:
        sel = set(GROUPS)
    unknown = sel - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown verify selection(s): {sorted(unknown)}")
    ctx = make_context(target_digits)
    cache = _checks._SolveCache(ctx)
    return [CheckResult(name, group, passed, detail, digits)
            for group in GROUPS if group in sel
            for name, passed, detail, digits
            in getattr(_checks, f"_{group}_checks")(ctx, cache)]
