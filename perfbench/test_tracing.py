"""The traced run's work counters repeat exactly and agree with the sweep.

    python3 -m pytest perfbench/test_tracing.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from transferlab import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

# small and fast, with both a cache hit (two m values) and the regularizer
DOC = {
    "seed": 7,
    "trials": 2,
    "grid": {
        "n": [300], "m": [60, 120], "k": [6], "k_prime": [2], "r": [2], "d": [6],
        "condition_number": [1.0], "lambda_div": [0.0, 0.5],
    },
    "optimizer": {"max_iters": 250, "grad_tol": 1e-4},
    "diagnostics": {"risk_mc_samples": 2000},
}
COUNTERS = (
    "erm.pretrain_iters", "erm.head_trials", "erm.rep_trials",
    "erm.trials_per_line_search", "erm.head_fit_iters", "erm.baseline_iters",
    "linalg.logdet_psd_calls", "softmax.kl_rows_calls", "diagnostics.mc_rows",
    "harness.pretrain_cache_hit_ratio",
)


def _traced_sweep():
    cfg = harness.SweepConfig.from_dict(DOC)
    with Tracer() as tracer:
        records = harness.run_sweep(cfg)
    return records, tracer.metrics()


def test_counters_repeat_exactly():
    _, first = _traced_sweep()
    _, second = _traced_sweep()
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}


def test_counters_match_the_records():
    original = harness.run_sweep
    records, m = _traced_sweep()
    assert harness.run_sweep is original  # patches are removed on exit
    assert all(rec.status == "ok" for rec in records)
    # 2 trials x 2 lambdas pretrain once each; the second m value hits the cache
    assert m["harness.pretrain_cache_hit_ratio"][0] == 0.5
    assert m["erm.pretrain_iters"][0] == sum(
        rec.pretrain_iters for rec in records if rec.params["m"] == 60
    )
    assert m["erm.head_trials"][0] > 0 and m["erm.rep_trials"][0] > 0
    assert m["erm.trials_per_line_search"][0] >= 1.0
    assert m["linalg.logdet_psd_calls"][0] > 0
    assert m["erm.head_fit_iters"][0] > 0 and m["erm.baseline_iters"][0] > 0
    assert m["harness.busy_s"][0] >= m["erm.busy_s"][0] > 0
