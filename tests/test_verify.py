"""The cross-validation suite: its per-run memo and the rows it returns."""

import sys
from collections import Counter

import pytest

from ellseries import _checks, moduli, oracle, series, verify
from ellseries.precision import make_context


def _rebind(monkeypatch, fn, replacement):
    """Put ``replacement`` in place of fn in every ellseries module that binds it."""
    for mod_name, m in list(sys.modules.items()):
        if mod_name == "ellseries" or mod_name.startswith("ellseries."):
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, replacement)


def test_verify_computes_each_shared_quantity_once(monkeypatch):
    calls = Counter()

    def count(name, fn, key=lambda args: ""):
        """Count calls of fn through every ellseries module that binds it."""
        def wrapped(*args, **kwargs):
            calls[(name, key(args))] += 1
            return fn(*args, **kwargs)
        _rebind(monkeypatch, fn, wrapped)

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
    # at 60 digits and at the wide headline's 110 more; the headline and the
    # published-radical audit at 60 digits read the cached chain
    assert calls[("chain_to_6400", "")] == 2
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


def test_a_failing_first_derivative_sample_fails_its_row(monkeypatch):
    # a zero derivative agrees with its finite difference to exactly 0.0
    # digits; the row's worst sample must not be overwritten by the second
    calls = []
    phi_and_derivative = series.phi_and_derivative

    def zero_first(mu, z, ctx):
        phi, dphi = phi_and_derivative(mu, z, ctx)
        calls.append(mu)
        return phi, (0 if len(calls) == 1 else dphi)

    monkeypatch.setattr(series, "phi_and_derivative", zero_first)
    row, = [r for r in verify.run_verify(60, ["series"])
            if r.name == "derivative-vs-finite-difference"]
    assert len(calls) == 2
    assert not row.passed and row.residual_digits == 0.0


def _returning(fn, change, where=lambda *args, **kwargs: True):
    """A mutation: every binding of fn returns ``change(its result, scale)``
    on the calls whose arguments satisfy ``where``."""
    def mutate(monkeypatch, scale):
        def mutated(*args, **kwargs):
            result = fn(*args, **kwargs)
            return change(result, scale) if where(*args, **kwargs) else result
        _rebind(monkeypatch, fn, mutated)
    return mutate


def _scaled_run(run, scale):
    run.value = scale(run.value)
    return run


def _scaled_side_sum(monkeypatch, scale):
    side_sum = oracle.AGMRun.side_sum
    monkeypatch.setattr(oracle.AGMRun, "side_sum", lambda run, c0: scale(side_sum(run, c0)))


def _moved_gap(pair, scale):
    """The ascent's pair with its gap scaled and k moved to keep k^2 = gap (2 - gap)."""
    ctx = pair.ctx
    gap = scale(ctx.mpf(pair.k_prime_gap))
    return moduli.ModulusPair(pair.r, ctx.sqrt(gap * (2 - gap)), gap, ctx)


def _value(x, scale):
    return scale(x)


def _scaled_first(result, scale):
    return (scale(result[0]), *result[1:])


# (primitive, relative perturbation as a decimal string, mutation, the rows
# it fails): one entry per primitive, each scaled alone at 60 digits; a row
# may fail under several.  The AGM value is also scaled on some arguments only, since a
# uniform scaling keeps the AGM symmetric and homogeneous.  phi' is moved by
# 10^-20, since its row allows 25 digits.  The structural rows take factors
# far from 1: an order, a slope within 10% and the published 5120 are not
# moved by 10^-30.
MUTATIONS = [
    ("AGM value", "1e-30", _returning(oracle._agm, _scaled_run),
     {"agm-fixed-point", "K-at-zero", "E-endpoints", "legendre-relation", "theta-K-identity",
      "theta-nome-K", "first-kind-triple", "second-kind-vs-agm", "headline-vs-oracle",
      "normalization-derived"}),
    # the homogeneity row's agm(lam, lam sqrt 2) at lam = 3 and pi, but not
    # the lam * agm(1, sqrt 2) it is compared with
    ("AGM value at max(a, b) > 2", "1e-30",
     _returning(oracle._agm, _scaled_run, where=lambda a, b, ctx: max(a, b) > 2),
     {"agm-homogeneity"}),
    # the symmetry row's agm(3, 1/4) and agm(7, 1e-6), but not their swaps
    ("AGM value at a > 2b and a > 2", "1e-30",
     _returning(oracle._agm, _scaled_run, where=lambda a, b, ctx: a > 2 * b and a > 2),
     {"agm-symmetry"}),
    ("side sum", "1e-30", _scaled_side_sum, {"legendre-relation", "second-kind-vs-agm"}),
    ("theta3", "1e-30", _returning(oracle.theta3, _value),
     {"theta-K-identity", "theta-nome-K", "first-kind-triple"}),
    ("nome", "1e-30", _returning(oracle.nome, _value),
     {"theta-K-identity", "theta-nome-K", "first-kind-triple"}),
    ("eval_series", "1e-30", _returning(series.eval_series, _scaled_first),
     {"collapse-identity-random", "first-kind-triple", "second-kind-vs-agm",
      "headline-vs-oracle", "normalization-derived"}),
    ("closed_form", "1e-30", _returning(series.closed_form, _value), {"collapse-identity-random"}),
    ("phi'", "1e-20",
     _returning(series.phi_and_derivative, lambda result, scale: (result[0], scale(result[1]))),
     {"derivative-vs-finite-difference"}),
    ("16x scale factor", "1e-30", _returning(moduli.k_scale_16, _value),
     {"scale16-at-r1", "scale16-twice-to-256", "scale64-composition"}),
    ("64x scale factor", "1e-30", _returning(moduli.k_scale_64, _value),
     {"scale64-at-r1", "scale64-composition", "K6400-scaling-map", "headline-vs-oracle",
      "normalization-derived"}),
    ("k_100 surd p", "1e-30", _returning(moduli._p_radical, _value),
     {"k100-closed-vs-solve", "K100-radical-vs-agm", "headline-vs-oracle",
      "stage-defining-ratios", "kprime400-coefficient-audit", "K100-radical",
      "normalization-derived"}),
    ("k_100 coefficient", "1e-30", _returning(moduli.k100_radical_coefficient, _value),
     {"K100-radical-vs-agm", "K100-radical", "headline-vs-oracle", "normalization-derived"}),
    ("multiplier value", "1e-30",
     _returning(moduli.multiplier, lambda res, scale: res._replace(value=scale(res.value))),
     {"multiplier-K-ratios"}),
    ("Landen gap", "1e-30", _returning(moduli.landen_up, _moved_gap),
     {"landen-vs-solve", "scale64-composition", "stage-defining-ratios", "published-k400",
      "published-k1600", "published-k6400", "kprime400-coefficient-audit"}),
    ("b_quarter", "1e-30", _returning(oracle.b_quarter, _value),
     {"K-lemniscatic", "K100-radical-vs-agm", "K100-radical"}),
    ("gamma_quarter_ref", "1e-30", _returning(oracle.gamma_quarter_ref, _value),
     {"headline-vs-oracle", "normalization-derived"}),
    # K(0.5) x 11 lies above K(0.6)
    ("K at k = 0.5", "10",
     _returning(oracle.K_E_ref, _scaled_first, where=lambda k, ctx: k == 0.5),
     {"K-strictly-increasing", "legendre-relation"}),
    # the error trace's slope, doubled
    ("digits-per-term slope", "1", _returning(series._slope, _value),
     {"digits-per-term-slope"}),
    # the headline only at the wide run's precision
    ("wide headline", "1e-30",
     _returning(series.gamma_quarter_series, _scaled_first,
                where=lambda chain: chain[0].ctx.target_digits > 60),
     {"headline-termination-insensitive"}),
    # the headline x 5120 is the published prefactor's value
    ("headline x 5120", "5119", _returning(series.gamma_quarter_series, _scaled_first),
     {"headline-vs-oracle", "normalization-derived", "normalization-published-mismatch"}),
]

# the rows that no entry fails, and why none can
UNMUTATED = {
    "solve-defining-ratio": "repeats solve_kr's own gate, which raises first",
    "multiplier-polynomials": "the residual is formed before the value a mutation scales",
}


def test_every_row_fails_under_a_mutation(monkeypatch):
    rows = [r.name for r in verify.run_verify(60, ["all"])]
    mutated = set().union(*(fails for *_, fails in MUTATIONS))
    assert len(rows) == 36
    assert mutated | set(UNMUTATED) == set(rows) and not mutated & set(UNMUTATED)
    for primitive, rel, mutate, fails in MUTATIONS:
        with monkeypatch.context() as m:
            mutate(m, lambda x: x * (1 + type(x)(rel)))
            results = verify.run_verify(60, ["all"])
        assert {r.name for r in results if not r.passed} == fails, primitive
