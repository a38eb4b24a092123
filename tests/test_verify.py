"""The cross-validation suite's per-run memo: each shared quantity is computed once."""

from collections import Counter

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
    # 2K/pi once per r in {2, 3, 4, 100}, plus inside 4E/pi for r in {2, 3, 4}
    assert calls[("two_K_over_pi", "")] == 7
    assert calls[("b_quarter", "")] == 1
