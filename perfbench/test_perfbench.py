"""Smoke tests for the benchmark's own code (no ellseries child is started).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _in_band(r: Fraction, band) -> bool:
    shape, lo, hi = band
    if shape == "int":
        return r.denominator == 1 and lo <= r <= hi
    if shape == "nonsquare":
        return lo < r < hi and r.denominator > 1
    return lo <= r <= hi


def test_generator_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_ops(w, 7) == workloads.make_ops(w, 7)
    assert workloads.make_ops("elliptic", 7) != workloads.make_ops("elliptic", 8)


def test_generator_stays_inside_its_bands():
    strata = workloads.ELLIPTIC_STRATA
    n_slots = len(workloads.ELLIPTIC_SLOTS)
    for seed in range(200):
        ops = workloads.make_ops("elliptic", seed)
        assert len(ops) == n_slots * strata
        for k, op in enumerate(ops):
            kind, method, band, digits, limit = workloads.ELLIPTIC_SLOTS[k % n_slots]
            assert _in_band(op.r, band), (seed, op)
            assert (op.kind, op.target, op.limit_s) == (kind, digits, limit)
            assert op.argv[:4] == ("elliptic", kind, "--r", str(op.r))
            assert op.argv[op.argv.index("--method") + 1] == method
            if k >= n_slots:                # strata are successive parts of the band
                assert ops[k - n_slots].r <= op.r, (seed, ops[k - n_slots], op)
        for w in ("headline", "verify"):
            for op in workloads.make_ops(w, seed):
                base = int(op.op_id.split(".")[1])
                assert abs(op.target - base) <= workloads.JITTER * base + 0.5


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6].
    tree = [
        ["cli.main", 0.0, 10.0, -1, False, None],
        ["moduli.solve_kr", 1.0, 3.0, 0, False, None],
        ["series.eval_series", 4.0, 8.0, 0, False, 12],
        ["precision.log10", 5.0, 6.0, 2, False, None],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0]
    m = spans.layer_metrics([tree], [10.5])
    assert m["cli.main.s"] == 10.0
    assert m["series.eval_series.self_s"] == 3.0
    assert m["series.eval_series.log10_s"] == 1.0
    assert m["series.eval_series.terms"] == 12
    assert m["moduli.solve_kr.calls"] == 1
    assert m["cli.startup_s"] == 0.5


def test_reference_check_rejects_one_corrupted_digit():
    target = 300
    op = Op("t", (), "constant", target, 1.0)
    ref = check.reference(op)
    good = ref[:target + 1]                 # target digits plus the point, truncated
    assert check.agreement_digits(good, ref) >= target - 5
    pos = target - 10 + 1                   # the (target-10)-th digit, after "2."
    bad = good[:pos] + str((int(good[pos]) + 1) % 10) + good[pos + 1:]
    assert check.agreement_digits(bad, ref) < target - 5


def test_elliptic_reference_matches_a_known_value():
    # K(k_1) = K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi)) = 1.85407467730137191843...
    ref = check.reference(Op("t", (), "K", 30, 1.0, Fraction(1)))
    assert check.agreement_digits("1.85407467730137191843", ref) > 20


def test_failed_op_is_charged_its_limit():
    op = Op("t", (), "constant", 100, 12.5)
    ok = run.OpRun(op, wall=0.3, cpu=0.2, rss_mb=20.0)
    failed = run.OpRun(op, wall=0.3, cpu=0.2, rss_mb=20.0, failure="exit_3")
    assert ok.charged == 0.3
    assert failed.charged == 12.5


def test_failed_ops_rank_above_passing_ops_in_the_median():
    fast, slow = Op("f", (), "K", 100, 1.5), Op("s", (), "K", 100, 8.0)
    runs = [run.OpRun(slow, wall=w, cpu=w, rss_mb=20.0) for w in (3.0, 4.0)]
    runs += [run.OpRun(fast, wall=0.5, cpu=0.5, rss_mb=20.0, failure="exit_2")]
    # Charged walls are 3, 4 and 1.5; the failure still ranks last.
    assert run.op_p50(runs) == 4.0
    runs.append(run.OpRun(fast, wall=0.4, cpu=0.4, rss_mb=20.0))
    assert run.op_p50(runs) == 3.5


def test_benchmark_json_names_the_metrics_the_run_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
