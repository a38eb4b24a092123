"""The cross-validation suite: its per-run memo and the rows it returns."""

from collections import Counter

import pytest

from ellseries import moduli, series, verify


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
    monkeypatch.setattr(verify, "b_quarter", counting("b_quarter", verify.b_quarter))
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
