"""Sweep mechanics: determinism, crash isolation, fits, and reports."""

import json
import math

import numpy as np
import pytest

from transferlab.errors import ContractViolation
from transferlab.harness import (
    ExperimentRecord,
    SweepConfig,
    cells_of,
    default_config,
    fit_power_law,
    load_records_csv,
    run_sweep,
    write_records_csv,
    write_report,
)

# small grid that exercises the whole pipeline quickly
MICRO = {
    "seed": 77,
    "trials": 2,
    "grid": {
        "n": [300, 450, 600],
        "m": [60],
        "k": [6],
        "k_prime": [2],
        "r": [2],
        "d": [6],
        "condition_number": [1.0],
        "lambda_div": [0.0],
    },
    "optimizer": {"max_iters": 250, "grad_tol": 1e-4},
    "head_optimizer": {"max_iters": 800, "grad_tol": 1e-6},
    "diagnostics": {"risk_mc_samples": 2000},
}


@pytest.fixture(scope="module")
def micro_records():
    return run_sweep(SweepConfig.from_dict(MICRO))


class TestPowerLawFit:
    def test_exact_inverse_sqrt(self):
        pts = [(1.0, 1.0), (4.0, 0.5), (16.0, 0.25)]
        fit = fit_power_law(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        fit = fit_power_law([(1.0, 7.0), (2.0, 7.0), (3.0, 7.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_slope_recovered(self):
        rng = np.random.default_rng(0)
        xs = np.logspace(0, 3, 8)
        ys = xs**-0.5 * np.exp(rng.normal(0.0, 0.05, 8))
        fit = fit_power_law(list(zip(xs, ys)))
        assert abs(fit.slope + 0.5) <= 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            fit_power_law([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ContractViolation):
            fit_power_law([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])


class TestSweepConfig:
    def test_default_roundtrip(self):
        doc = default_config()
        cfg = SweepConfig.from_dict(doc)
        assert cfg.to_dict() == doc
        json.loads(json.dumps(doc))  # must be a plain JSON document

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict({"grdi": {}})

    @pytest.mark.parametrize("doc", [
        {"optimizer": {"max_iter": 50}},
        {"head_optimizer": {"gradtol": 1e-6}},
        {"truth": {"pre_head_capp": 1.0}},
        {"grid": {"lambda": [0.0]}},
        {"diagnostics": {"mc_samples": 100}},
        {"optimizer": {"grad_tol": -1.0}},
        {"hypothesis": {"kind": "mlp", "mlp_widths": [4], "mlp_caps": [1.0]}},
        {"bound": "subspace"},
    ])
    def test_bad_nested_section_rejected(self, doc):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict(doc)

    def test_optimizer_accepts_every_optim_field(self):
        cfg = SweepConfig.from_dict({"optimizer": {"armijo_c": 1e-3}})
        assert cfg.optim_config().armijo_c == 1e-3

    def test_zero_trials_rejected(self):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict({"trials": 0})

    def test_negative_grid_value_rejected(self):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict({"grid": {"n": [-5]}})

    def test_cells_deterministic_order(self):
        cfg = SweepConfig.from_dict(MICRO)
        cells = cells_of(cfg)
        assert [c["n"] for c in cells] == [300, 450, 600]


class TestRunSweep:
    def test_single_cell_single_trial(self):
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300])
        records = run_sweep(SweepConfig.from_dict(doc))
        assert len(records) == 1
        rec = records[0]
        assert rec.status == "ok"
        assert rec.excess_transfer >= -3.0 * rec.excess_transfer_se
        assert rec.excess_pretrain >= -3.0 * rec.excess_pretrain_se
        assert rec.wall_time > 0.0
        assert rec.nu_true == pytest.approx(1.0, rel=1e-9)
        assert math.isfinite(rec.bound_value)

    def test_byte_identical_outputs(self, tmp_path):
        cfg = SweepConfig.from_dict(MICRO)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, out_csv=p1)
        run_sweep(cfg, out_csv=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_crash_isolation(self):
        doc = dict(MICRO, trials=1)
        # a one-dimensional head spectrum cannot have condition number 2:
        # that cell must fail at run time, the other succeed
        doc["grid"] = dict(MICRO["grid"], n=[300], r=[1], condition_number=[1.0, 2.0])
        records = run_sweep(SweepConfig.from_dict(doc))
        statuses = {rec.params["condition_number"]: rec.status for rec in records}
        assert statuses[1.0] == "ok"
        assert statuses[2.0] == "failed"
        failed = [r for r in records if r.status == "failed"][0]
        assert "InfeasibleDiversityError" in failed.reason

    def test_records_csv_roundtrip(self, tmp_path, micro_records):
        path = tmp_path / "records.csv"
        write_records_csv(path, micro_records)
        back = load_records_csv(path)
        assert len(back) == len(micro_records)
        for a, b in zip(back, micro_records):
            assert a.cell_index == b.cell_index
            assert a.trial == b.trial
            assert a.status == b.status
            assert a.excess_transfer == b.excess_transfer  # 17 digits: exact
            assert a.pretrain_stalled == b.pretrain_stalled

    def test_m_only_cells_share_pretraining(self):
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300], m=[40, 80])
        records = run_sweep(SweepConfig.from_dict(doc))
        assert len(records) == 2
        # identical truth and pre-training: same learned diversity and angle
        assert records[0].nu_learned == records[1].nu_learned
        assert records[0].max_principal_angle == records[1].max_principal_angle
        assert records[0].excess_transfer != records[1].excess_transfer


class TestWriteReport:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            write_report([], tmp_path)

    def test_single_record_report(self, tmp_path):
        rec = ExperimentRecord(
            cell_index=0, trial=0, status="ok",
            params={"n": 100, "m": 10, "k": 5, "k_prime": 2, "r": 2, "d": 4,
                    "condition_number": 1.0, "lambda_div": 0.0},
            excess_transfer=0.1, excess_transfer_se=0.01,
            excess_pretrain=0.2, excess_pretrain_se=0.01,
            nu_true=1.0, nu_learned=1.1, max_principal_angle=0.2,
            baseline_excess=0.3, baseline_excess_se=0.02, bound_value=5.0,
        )
        summary = write_report([rec], tmp_path)
        assert (tmp_path / "summary.txt").exists()
        for name in (
            "risk_vs_n", "risk_vs_m", "risk_vs_nu",
            "regularizer_ablation", "bound_vs_measured",
        ):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 2  # header + one cell
        assert summary.n_ok == 1

    def test_sweep_report_sorted_and_reproducible(self, tmp_path, micro_records):
        summary = write_report(micro_records, tmp_path)
        rows = (tmp_path / "risk_vs_n.csv").read_text().splitlines()
        header = rows[0].split(",")
        n_col = header.index("n")
        med_col = header.index("median_excess")
        ns = [float(r.split(",")[n_col]) for r in rows[1:]]
        assert ns == sorted(ns)
        # slopes recomputed offline from the emitted CSV match the summary
        if summary.slope_n is not None:
            pts = [
                (float(r.split(",")[n_col]), float(r.split(",")[med_col]))
                for r in rows[1:]
            ]
            refit = fit_power_law(pts)
            assert refit.slope == pytest.approx(summary.slope_n.slope, abs=1e-12)

    def test_failed_rows_counted(self, tmp_path):
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300], r=[1], condition_number=[1.0, 2.0])
        records = run_sweep(SweepConfig.from_dict(doc))
        summary = write_report(records, tmp_path)
        assert summary.n_failed == 1
        assert summary.n_ok == 1
