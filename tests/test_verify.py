"""The cross-validation suite: its per-run memo and the rows it returns."""

from collections import Counter

import pytest

from ellseries import _checks, moduli, series, verify
from ellseries.precision import make_context


def test_verify_computes_each_shared_quantity_once(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[(name, str(args[0]) if name == "solve_kr" else "")] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(moduli, "solve_kr", counting("solve_kr", moduli.solve_kr))
    monkeypatch.setattr(series, "two_K_over_pi",
                        counting("two_K_over_pi", series.two_K_over_pi))
    monkeypatch.setattr(_checks, "b_quarter", counting("b_quarter", _checks.b_quarter))
    results = verify.run_verify(60, ["all"])
    assert all(c.passed for c in results)
    # one solve per r: the multiplier rows polish from the cached pairs
    assert max(n for (name, _), n in calls.items() if name == "solve_kr") == 1
    # 2K/pi once per r in {2, 3, 4, 100}; 4E/pi is its own sum, and the
    # paper's two-sum form of it reads the cached 2K/pi
    assert calls[("two_K_over_pi", "")] == 4
    assert calls[("b_quarter", "")] == 1


def test_each_group_runs_only_its_own_rows_in_report_order():
    every = verify.run_verify(60, ["all"])
    assert {row.group for row in every} == set(verify.GROUPS)
    for group in verify.GROUPS:
        rows = verify.run_verify(60, [group])
        assert rows and all(row.group == group for row in rows)
        assert [r.name for r in rows] == [r.name for r in every if r.group == group]


def test_check_result_cannot_be_edited():
    row = verify.CheckResult(name="n", group="oracle", passed=True, detail="d")
    assert row.residual_digits is None
    with pytest.raises(AttributeError):
        row.passed = False


def test_residual_of_one_or_more_prints_a_signed_exponent():
    # a residual of 4 is -0.6 digits, so the exponent needs its sign
    ctx = make_context(60)
    _, passed, detail, digits = _checks._residual_check("four", ctx, ctx.mpf(4), 40)
    assert not passed and digits < 0
    assert "--" not in detail
    assert detail == "residual 1e+0.6 (needs 1e-40)"
