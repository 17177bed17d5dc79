"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The statistical criteria run the real experiment harness at the stated
grids and seed counts; the two sweeps feeding criteria 6 and 11 are
shared through a module fixture. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines as they complete.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from transferlab.cli import main as cli_main
from transferlab.diagnostics import (
    empirical_gaussian_complexity_linear,
    mc_complexity_finite,
)
from transferlab.harness import SweepConfig, fit_power_law, run_sweep
from transferlab.rngutil import derive_rng
from transferlab.verification import (
    chain_rule_suite,
    gradient_check_suite,
    hessian_spectrum_suite,
    kl_sandwich_suite,
    self_concordance_suite,
)

GATE_SEED = 20240901
SLOPE_WINDOW = (-0.75, -0.25)
MIN_R2 = 0.8
MIN_WINS = 18

# the sweeps behind criteria 6-11 as (grid, trials); criteria 6 and 11
# share one. tests/gate_seeds.py reruns them at other seeds.
GATE_SWEEPS = {
    # d=20, r=3, k=30, k'=2, m=200, cond=1
    "n": ({"n": [500, 1000, 2000, 4000, 8000], "m": [200]}, 10),
    "m": ({"n": [8000], "m": [50, 100, 200, 400, 800]}, 10),
    "condition_number": ({"n": [4000], "condition_number": [1.0, 10.0, 100.0]}, 10),
    "baseline": ({"n": [8000], "m": [100], "d": [50]}, 20),
    "lambda_div": ({"n": [2000], "lambda_div": [0.0, 0.5]}, 10),
}


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion-{num} {name}: {detail}")


def _median_by(records, key, value):
    groups = {}
    for rec in records:
        if rec.status == "ok":
            groups.setdefault(rec.params[key], []).append(getattr(rec, value))
    return {k: float(np.median(v)) for k, v in sorted(groups.items())}


def _stalls(records) -> int:
    """Rows in which any stage's line search stalled."""
    return sum(
        "stalled" in (rec.pretrain_outcome, rec.downstream_outcome, rec.baseline_outcome)
        for rec in records
    )


def gate_sweep(name: str, seed: int = GATE_SEED) -> list:
    grid, trials = GATE_SWEEPS[name]
    return run_sweep(
        SweepConfig.from_dict({"seed": seed, "trials": trials, "grid": grid})
    )


@dataclass
class Verdict:
    """A statistical criterion on one sweep's records.

    ``passed`` is what the criterion's test asserts, apart from its time
    budget. ``margins`` maps each checked quantity to its signed distance
    from the threshold, positive on the passing side (a strict inequality
    fails at 0).
    """

    passed: bool
    margins: dict
    detail: str


def _slope_verdict(records, key, min_r2=None) -> Verdict:
    med = _median_by(records, key, "excess_transfer")
    fit = fit_power_law(sorted(med.items()))
    low, high = SLOPE_WINDOW
    stalls = _stalls(records)
    passed = low <= fit.slope <= high and stalls == 0
    margins = {"slope": min(fit.slope - low, high - fit.slope), "stalls": -stalls}
    detail = f"slope {fit.slope:.3f} in {SLOPE_WINDOW}, "
    if min_r2 is not None:
        passed = passed and fit.r_squared >= min_r2
        margins["r2"] = fit.r_squared - min_r2
        detail += f"R2 {fit.r_squared:.3f}, "
    detail += f"medians {[(int(k), round(v, 5)) for k, v in med.items()]}"
    return Verdict(passed, margins, detail)


def criterion_6(records) -> Verdict:
    verdict = _slope_verdict(records, "n", MIN_R2)
    verdict.passed = verdict.passed and all(rec.status == "ok" for rec in records)
    return verdict


def criterion_7(records) -> Verdict:
    return _slope_verdict(records, "m")


def criterion_8(records) -> Verdict:
    med = _median_by(records, "condition_number", "excess_transfer")
    values = [med[c] for c in (1.0, 10.0, 100.0)]
    stalls = _stalls(records)
    return Verdict(
        values[0] <= values[1] <= values[2] and stalls == 0,
        {"cond10-cond1": values[1] - values[0], "cond100-cond10": values[2] - values[1],
         "stalls": -stalls},
        f"median excess by condition number "
        f"{dict(zip((1, 10, 100), [round(v, 5) for v in values]))}",
    )


def criterion_9(records) -> Verdict:
    ok = [rec for rec in records if rec.status == "ok"]
    wins = sum(rec.excess_transfer < rec.baseline_excess for rec in ok)
    stalls = _stalls(records)
    return Verdict(
        len(ok) == 20 and wins >= MIN_WINS and stalls == 0,
        {"wins": wins - MIN_WINS, "ok_rows": len(ok) - 20, "stalls": -stalls},
        f"pipeline wins {wins}/{len(ok)} seeds "
        f"(median pipeline {np.median([r.excess_transfer for r in ok]):.4f}, "
        f"median baseline {np.median([r.baseline_excess for r in ok]):.4f})",
    )


def criterion_10(records) -> Verdict:
    ok = [rec for rec in records if rec.status == "ok"]
    by_lambda = {}
    for rec in ok:
        by_lambda.setdefault(rec.params["lambda_div"], []).append(rec.nu_learned)
    med0 = float(np.median(by_lambda[0.0]))
    med5 = float(np.median(by_lambda[0.5]))
    stalls = _stalls(ok)
    return Verdict(
        med5 > med0 and stalls == 0,
        {"nu(0.5)-nu(0)": med5 - med0, "stalls": -stalls},
        f"median learned diversity: lambda=0 -> {med0:.3f}, "
        f"lambda=0.5 -> {med5:.3f}; stalls {stalls}",
    )


def criterion_11(records) -> Verdict:
    med = _median_by(records, "n", "max_principal_angle")
    angles = [med[n] for n in (500, 2000, 8000)]
    return Verdict(
        angles[0] > angles[1] > angles[2],
        {"angle500-angle2000": angles[0] - angles[1], "angle2000-angle8000": angles[1] - angles[2]},
        f"median largest principal angle by n: "
        f"{dict(zip((500, 2000, 8000), [round(a, 4) for a in angles]))}",
    )


@pytest.fixture(scope="module")
def n_sweep():
    t0 = time.perf_counter()
    records = gate_sweep("n")
    return records, time.perf_counter() - t0


def test_criterion_1_self_concordance():
    t0 = time.perf_counter()
    res = self_concordance_suite(total=10_000, class_counts=(2, 5, 50), norm_bound=5.0)
    elapsed = time.perf_counter() - t0
    passed = res.passed and elapsed < 10.0
    _report(1, "self-concordance sweep", passed,
            f"{res.detail}; {res.checked} triples in {elapsed:.2f}s")
    assert res.passed
    assert elapsed < 10.0


def test_criterion_2_hessian_spectrum():
    t0 = time.perf_counter()
    res = hessian_spectrum_suite(total=1000, max_classes=100)
    elapsed = time.perf_counter() - t0
    passed = res.passed and elapsed < 10.0
    _report(2, "hessian spectrum bound", passed, f"{res.detail}; {elapsed:.2f}s")
    assert res.passed
    assert elapsed < 10.0


def test_criterion_3_kl_sandwich():
    t0 = time.perf_counter()
    res = kl_sandwich_suite(total=1000, norm_bound=3.0)
    elapsed = time.perf_counter() - t0
    passed = res.passed and elapsed < 5.0
    _report(3, "kl quadratic sandwich", passed, f"{res.detail}; {elapsed:.2f}s")
    assert res.passed
    assert elapsed < 5.0


def test_criterion_4_gradient_checks():
    t0 = time.perf_counter()
    res = gradient_check_suite(instances=100, rtol=1e-4)
    elapsed = time.perf_counter() - t0
    passed = res.passed and elapsed < 30.0
    _report(4, "finite-difference gradients", passed, f"{res.detail}; {elapsed:.2f}s")
    assert res.passed
    assert elapsed < 30.0


def test_criterion_5_complexity_oracles():
    t0 = time.perf_counter()
    z = np.array([[0.6, -0.8]])  # unit norm
    lin = empirical_gaussian_complexity_linear(z, 1.0, 2, 10_000, derive_rng(0, "c5a"))
    lin_ok = abs(lin.value - math.sqrt(2 / math.pi)) <= 3.0 * lin.std_error

    outs = [np.array([[1.3]]), np.array([[-1.3]])]
    fin = mc_complexity_finite(outs, 10_000, derive_rng(0, "c5b"))
    fin_ok = abs(fin.value - 1.3 * math.sqrt(2 / math.pi)) <= 3.0 * fin.std_error

    chain = chain_rule_suite(instances=20, draws=3000)
    elapsed = time.perf_counter() - t0
    passed = lin_ok and fin_ok and chain.passed and elapsed < 120.0
    _report(5, "complexity oracle equivalence", passed,
            f"linear dev {abs(lin.value - math.sqrt(2/math.pi)):.2e} "
            f"(3se {3*lin.std_error:.2e}), finite dev "
            f"{abs(fin.value - 1.3*math.sqrt(2/math.pi)):.2e} "
            f"(3se {3*fin.std_error:.2e}), {chain.detail}; {elapsed:.1f}s")
    assert lin_ok and fin_ok and chain.passed
    assert elapsed < 120.0


def test_criterion_6_n_scaling(n_sweep):
    records, elapsed = n_sweep
    verdict = criterion_6(records)
    _report(6, "excess risk scaling in n", verdict.passed and elapsed < 900.0,
            f"{verdict.detail}; sweep {elapsed:.0f}s")
    assert verdict.passed
    assert elapsed < 900.0


def test_criterion_7_m_scaling():
    t0 = time.perf_counter()
    verdict = criterion_7(gate_sweep("m"))
    elapsed = time.perf_counter() - t0
    _report(7, "excess risk scaling in m", verdict.passed and elapsed < 900.0,
            f"{verdict.detail}; {elapsed:.0f}s")
    assert verdict.passed
    assert elapsed < 900.0


def test_criterion_8_diversity_effect():
    verdict = criterion_8(gate_sweep("condition_number"))
    _report(8, "diversity effect", verdict.passed, verdict.detail)
    assert verdict.passed


def test_criterion_9_pretraining_beats_baseline():
    verdict = criterion_9(gate_sweep("baseline"))
    _report(9, "pre-training beats no-pre-training", verdict.passed, verdict.detail)
    assert verdict.passed


def test_criterion_10_regularizer_mechanism():
    records = gate_sweep("lambda_div")
    verdict = criterion_10(records)
    ok_rows = sum(rec.status == "ok" for rec in records)
    _report(10, "diversity regularizer mechanism", verdict.passed and ok_rows == 20,
            verdict.detail)
    assert verdict.passed


def test_criterion_11_subspace_recovery(n_sweep):
    verdict = criterion_11(n_sweep[0])
    _report(11, "subspace recovery", verdict.passed, verdict.detail)
    assert verdict.passed


def test_criterion_12_sweep_determinism(tmp_path):
    import json

    doc = {
        "trials": 2,
        "grid": {
            "n": [300, 600], "m": [60], "k": [6], "k_prime": [2],
            "r": [2], "d": [6], "condition_number": [1.0], "lambda_div": [0.0],
        },
        "optimizer": {"max_iters": 250, "grad_tol": 1e-4},
        "diagnostics": {"risk_mc_samples": 2000},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    bytes1 = (out1 / "records.csv").read_bytes()
    bytes2 = (out2 / "records.csv").read_bytes()
    passed = bytes1 == bytes2
    _report(12, "sweep determinism", passed,
            f"records.csv byte-identical across runs: {passed}")
    assert passed
