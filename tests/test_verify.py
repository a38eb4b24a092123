"""The cross-validation suite: its per-run memo and the rows it returns."""

import sys
from collections import Counter

import pytest

from ellseries import _checks, moduli, oracle, series, verify
from ellseries.precision import make_context


def test_verify_computes_each_shared_quantity_once(monkeypatch):
    calls = Counter()

    def count(name, fn, key=lambda args: ""):
        """Count calls of fn through every ellseries module that binds it."""
        def wrapped(*args, **kwargs):
            calls[(name, key(args))] += 1
            return fn(*args, **kwargs)
        for mod_name, m in list(sys.modules.items()):
            if mod_name == "ellseries" or mod_name.startswith("ellseries."):
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        monkeypatch.setattr(m, attr, wrapped)

    count("solve_kr", moduli.solve_kr, key=lambda args: str(args[0]))
    count("two_K_over_pi", series.two_K_over_pi)
    count("_agm", oracle._agm)
    count("theta3", oracle.theta3)
    count("chain_to_6400", moduli.chain_to_6400)
    count("_lemniscatic_agm", oracle._lemniscatic_agm,
          key=lambda args: args[0].target_digits)
    results = verify.run_verify(60, ["all"])
    assert all(c.passed for c in results)
    # one solve per r: the multiplier rows polish from the cached pairs
    assert max(n for (name, _), n in calls.items() if name == "solve_kr") == 1
    # 2K/pi once per r in {2, 3, 4, 100}; 4E/pi is its own sum, and the
    # paper's two-sum form of it reads the cached 2K/pi
    assert calls[("two_K_over_pi", "")] == 4
    # a pair's E reads its K's AGM run, the oracle grid takes K and E of
    # each k from one run, and agm(1, sqrt(2)) runs once (100 loops before)
    assert calls[("_agm", "")] <= 75
    # theta3 once per r in {1, 2, 3, 4, 100}
    assert calls[("theta3", "")] == 5
    # at 60 digits, at the audit's 80 more and at the wide headline's 110
    # more; the headline at 60 digits reads the cached chain
    assert calls[("chain_to_6400", "")] == 3
    # at 60 digits b(1/4) and the headline's oracle each run the lemniscatic
    # AGM; the wide headline is compared with the headline alone, not with
    # an oracle, so it runs none
    assert calls[("_lemniscatic_agm", 60)] == 2
    assert calls[("_lemniscatic_agm", 170)] == 0


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
