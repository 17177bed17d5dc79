"""Sweep mechanics: determinism, crash isolation, fits, and reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from transferlab.diagnostics import evaluate_risk_bound
from transferlab import erm, harness
from transferlab.erm import OptimConfig
from transferlab.errors import ContractViolation
from transferlab.harness import (
    ExperimentRecord,
    SweepConfig,
    cells_of,
    default_config,
    fit_power_law,
    load_records_csv,
    run_sweep,
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
    "diagnostics": {"risk_mc_samples": 2000},
}


@pytest.fixture(scope="module")
def micro_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("micro") / "records.csv"


@pytest.fixture(scope="module")
def micro_records(micro_csv):
    return run_sweep(SweepConfig.from_dict(MICRO), out_csv=micro_csv)


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
        assert dataclasses.asdict(cfg) == doc
        json.loads(json.dumps(doc))  # must be a plain JSON document

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict({"grdi": {}})

    @pytest.mark.parametrize("doc", [
        {"optimizer": {"max_iter": 50}},
        {"head_optimizer": {"max_iters": 800}},  # the head budget is a constant
        {"truth": {"pre_head_capp": 1.0}},
        {"grid": {"lambda": [0.0]}},
        {"diagnostics": {"mc_samples": 100}},
        {"optimizer": {"grad_tol": -1.0}},
        {"hypothesis": {"kind": "mlp", "mlp_widths": [4], "mlp_caps": [1.0]}},
        {"bound": "subspace"},
        {"covariates": {"scale": "1"}},
        {"bound": {"delta": None}},
        {"optimizer": {"armijo_c": 1.0}},
        # a falsy section that is not an object is not the default section
        {"grid": []},
        {"grid": None},
        {"optimizer": 0},
        {"diagnostics": ""},
    ])
    def test_bad_nested_section_rejected(self, doc):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict(doc)

    def test_optimizer_accepts_every_optim_field(self):
        cfg = SweepConfig.from_dict({"optimizer": {"max_iters": 7, "grad_tol": 1e-3}})
        assert cfg.optim_config() == OptimConfig(max_iters=7, grad_tol=1e-3)

    @pytest.mark.parametrize("doc", [
        {"seed": "abc"}, {"seed": -5}, {"seed": 1.0}, {"trials": "2"},
        {"trials": True}, {"trials": 2.0},
        {"grid": {"n": [True]}}, {"grid": {"d": [float("inf")]}},
    ])
    def test_mistyped_scalar_rejected(self, doc):
        with pytest.raises(ContractViolation):
            SweepConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["n", "m", "k", "k_prime", "r", "d"])
    @pytest.mark.parametrize("value", [2.5, 0.5, 500.7, 3.0, 0])
    def test_size_grid_value_must_be_an_integer_at_least_one(self, key, value):
        # a fractional size used to be truncated by the fit while the
        # records kept the value as given
        doc = {"grid": dict(MICRO["grid"], **{key: [MICRO["grid"][key][0], value]})}
        with pytest.raises(ContractViolation, match=f"for '{key}' invalid: need an integer"):
            SweepConfig.from_dict(doc)

    def test_fractional_r_exits_one_before_any_work(self, tmp_path, monkeypatch, capsys):
        from transferlab.cli import main

        monkeypatch.setattr(harness, "_run_cell", None)  # any work would fail
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"r": [2.5]}}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "need an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.csv").exists()

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

    def test_records_csv_roundtrip(self, micro_csv, micro_records):
        # the file run_sweep streamed while it ran
        back = load_records_csv(micro_csv)
        assert len(back) == len(micro_records)
        for a, b in zip(back, micro_records):
            assert a.cell_index == b.cell_index
            assert a.trial == b.trial
            assert a.status == b.status
            assert a.excess_transfer == b.excess_transfer  # 17 digits: exact
            assert a.pretrain_stalled == b.pretrain_stalled
            assert (a.pretrain_outcome, a.downstream_outcome, a.baseline_outcome) == (
                b.pretrain_outcome, b.downstream_outcome, b.baseline_outcome)

    @pytest.mark.parametrize("status, outcome", [
        ("ok", "converged"), ("ok", "stalled"), ("ok", "max_iters"), ("failed", ""),
    ])
    def test_stall_flag_is_the_outcome_not_a_column(self, status, outcome):
        rec = ExperimentRecord(cell_index=0, trial=0, status=status, params={},
                               pretrain_outcome=outcome)
        assert rec.pretrain_stalled == (outcome == "stalled")
        assert "pretrain_stalled" not in harness._CSV_FIELDS

    def test_stage_outcomes_recorded(self, micro_records):
        for rec in micro_records:
            assert rec.pretrain_outcome in ("converged", "max_iters")
            assert rec.downstream_outcome == "converged"
            assert rec.baseline_outcome == "converged"

    def test_exhausted_budgets(self, monkeypatch):
        # one outer iteration cannot reach any stage's tolerance
        monkeypatch.setattr(harness, "HEAD_OPTIM", OptimConfig(max_iters=1))
        doc = dict(MICRO, trials=1, optimizer={"max_iters": 1})
        doc["grid"] = dict(MICRO["grid"], n=[300])
        (rec,) = run_sweep(SweepConfig.from_dict(doc))
        assert rec.status == "ok"
        assert (rec.pretrain_outcome, rec.downstream_outcome, rec.baseline_outcome) == (
            "max_iters", "max_iters", "max_iters")
        assert rec.pretrain_iters == 1 and not rec.pretrain_stalled

    def test_bound_value_is_the_subspace_rate(self):
        # the record's rate is the evaluator's at the cell
        doc = dict(MICRO, trials=1, optimizer={"max_iters": 20})
        doc["grid"] = dict(MICRO["grid"], n=[300])
        (rec,) = run_sweep(SweepConfig.from_dict(doc))
        assert rec.status == "ok"
        assert rec.bound_value == evaluate_risk_bound(
            n=300, m=60, k=6, k_prime=2, r=2, d=6, nu_tilde=rec.nu_true)

    def test_failed_row_has_no_outcomes(self):
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300], r=[1], condition_number=[1.0, 2.0])
        failed = [r for r in run_sweep(SweepConfig.from_dict(doc)) if r.status == "failed"]
        assert [(r.pretrain_outcome, r.downstream_outcome, r.baseline_outcome)
                for r in failed] == [("", "", "")]

    def test_m_only_cells_share_pretraining(self):
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300], m=[40, 80])
        records = run_sweep(SweepConfig.from_dict(doc))
        assert len(records) == 2
        # identical truth and pre-training: same learned diversity and angle
        assert records[0].nu_learned == records[1].nu_learned
        assert records[0].max_principal_angle == records[1].max_principal_angle
        assert records[0].excess_transfer != records[1].excess_transfer
        # one stage-one fit scored on one draw: the same pre-training risk
        assert records[0].excess_pretrain == records[1].excess_pretrain
        assert records[0].excess_pretrain_se == records[1].excess_pretrain_se

    def test_one_truth_build_per_token_and_trial(self, monkeypatch):
        # the m and lambda cells share a truth; the two condition numbers share
        # its token, and so its draws, but each builds its own head spectrum
        doc = dict(MICRO, trials=2)
        doc["grid"] = dict(MICRO["grid"], n=[300], m=[40, 80], condition_number=[1.0, 2.0],
                           lambda_div=[0.0, 0.3])
        cfg = SweepConfig.from_dict(doc)
        builds = []
        build = harness.cell_truth

        def spy(cfg_, cell, trial):
            builds.append((harness._truth_token(cell), cell["condition_number"], trial))
            return build(cfg_, cell, trial)

        monkeypatch.setattr(harness, "cell_truth", spy)
        records = run_sweep(cfg)
        assert [rec.status for rec in records] == ["ok"] * 16
        assert len(builds) == len(set(builds)) == 4
        assert len({token for token, _, _ in builds}) == 1

    def test_each_shared_quantity_is_computed_once_per_trial(self, monkeypatch):
        # per trial: one baseline fit and one downstream draw per (token, m),
        # whatever n, lambda and the condition number; one pre-training
        # scoring per stage-one fit; one downstream scoring per cell
        doc = dict(MICRO, trials=2, optimizer={"max_iters": 30, "grad_tol": 1e-4})
        doc["grid"] = dict(MICRO["grid"], n=[300, 450], m=[40, 80],
                           condition_number=[1.0, 2.0], lambda_div=[0.0, 0.3])
        cfg = SweepConfig.from_dict(doc)
        calls = []
        draw, base, fit_pre, score = (harness.stage_dataset, harness.train_baseline,
                                      harness.pretrain, harness.measure_excess_risks)

        def stage_spy(cfg_, cell, trial, stage, truth):
            calls.append(("data", trial, stage, cell["m"] if stage == "downstream" else None))
            return draw(cfg_, cell, trial, stage, truth)

        def baseline_spy(ds, cap, optim):
            calls.append(("baseline", ds.seed, ds.n))
            return base(ds, cap, optim)

        def pretrain_spy(ds, *args):
            calls.append(("pretrain", ds.seed))
            return fit_pre(ds, *args)

        def score_spy(truth, x, n_mc, **heads):
            calls.append(("score", *sorted(heads)))
            return score(truth, x, n_mc, **heads)

        monkeypatch.setattr(harness, "stage_dataset", stage_spy)
        monkeypatch.setattr(harness, "train_baseline", baseline_spy)
        monkeypatch.setattr(harness, "pretrain", pretrain_spy)
        monkeypatch.setattr(harness, "measure_excess_risks", score_spy)
        records = run_sweep(cfg)
        assert [rec.status for rec in records] == ["ok"] * 32

        def count(*prefix):
            return sum(call[:len(prefix)] == prefix for call in calls)

        for trial in range(2):
            label = f"{cfg.seed}/{trial}"
            assert count("pretrain", label) == count("data", trial, "pretrain") == 8
            for m in (40, 80):
                assert count("data", trial, "downstream", m) == 1
                assert count("baseline", label, m) == 1
        assert count("score", "baseline_head") == 2 * 2
        assert count("score", "pre_head_hat", "rep_hat") == 2 * 8
        assert count("score", "down_head_hat", "rep_hat") == 2 * 16
        assert len(calls) == 2 * (8 + 8 + 2 + 2) + 4 + 16 + 32
        # the cells that share (token, m) carry one baseline pair
        for trial in range(2):
            for m in (40, 80):
                pairs = {(rec.baseline_excess, rec.baseline_excess_se) for rec in records
                         if rec.trial == trial and rec.params["m"] == m}
                assert len(pairs) == 1

    def test_condition_numbers_share_every_draw(self, monkeypatch):
        # cells that differ only in the condition number are paired: the same
        # frame, downstream head, covariates and downstream data; stage one
        # starts from its own labels' frame estimate, which the condition
        # number moves, so only cells that differ in lambda share the start
        doc = dict(MICRO, trials=1)
        doc["grid"] = dict(MICRO["grid"], n=[300], condition_number=[1.0, 4.0],
                           lambda_div=[0.0, 0.3])
        cfg = SweepConfig.from_dict(doc)  # before the spies: it builds one truth
        truths, pre_fits, down_sets = [], [], []
        build, fit_pre, fit_down = harness.cell_truth, harness.pretrain, harness.fit_downstream_head

        def truth_spy(cfg_, cell, trial):
            truths.append(build(cfg_, cell, trial))
            return truths[-1]

        def pretrain_spy(ds, r, cap, lam, optim):
            pre_fits.append((ds, erm._moment_frame(ds.x, ds.y, r)))
            return fit_pre(ds, r, cap, lam, optim)

        def down_spy(rep, ds, cap, optim):
            down_sets.append(ds)
            return fit_down(rep, ds, cap, optim)

        monkeypatch.setattr(harness, "cell_truth", truth_spy)
        monkeypatch.setattr(harness, "pretrain", pretrain_spy)
        monkeypatch.setattr(harness, "fit_downstream_head", down_spy)
        records = run_sweep(cfg)
        assert [rec.status for rec in records] == ["ok"] * 4
        # cells run (cond 1, lambda 0), (1, 0.3), (4, 0), (4, 0.3)
        (t1, t4), ((pre1, init1), (_, init1_reg), (pre4, init4), (_, init4_reg)) = (
            truths, pre_fits)
        np.testing.assert_array_equal(t1.rep.b, t4.rep.b)
        np.testing.assert_array_equal(t1.down_head.alpha, t4.down_head.alpha)
        np.testing.assert_array_equal(pre1.x, pre4.x)
        np.testing.assert_array_equal(init1, init1_reg)
        np.testing.assert_array_equal(init4, init4_reg)
        assert len(down_sets) == 4
        for down in down_sets[1:]:
            np.testing.assert_array_equal(down.x, down_sets[0].x)
            np.testing.assert_array_equal(down.y, down_sets[0].y)
        # only the pre-training head's spectrum differs: cond 1 gives the head
        # U V^T, so with U and V shared, alpha_4 alpha_1^T = U diag(1, 1/2) U^T
        shared = t4.pre_head.alpha @ t1.pre_head.alpha.T
        np.testing.assert_allclose(shared, shared.T, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(shared), [0.5, 1.0], rtol=1e-12)

    def test_rows_in_trial_then_cell_order(self, micro_records):
        assert [(rec.trial, rec.cell_index) for rec in micro_records] == [
            (trial, idx) for trial in range(2) for idx in range(3)]

    def test_row_does_not_depend_on_the_rest_of_the_grid(self, tmp_path):
        # every cell shares its trial's draw, stage-one memo and baseline with
        # the other cells; alone it must produce the same row, byte for byte,
        # so a baseline fitted for another n matches a freshly fitted one
        doc = dict(MICRO, trials=2)
        doc["grid"] = dict(MICRO["grid"], n=[300, 450], m=[40, 80],
                           condition_number=[1.0, 2.0], lambda_div=[0.0, 0.3])
        full = tmp_path / "full.csv"
        cells = cells_of(SweepConfig.from_dict(doc))
        run_sweep(SweepConfig.from_dict(doc), out_csv=full)
        rows = full.read_text().splitlines()[1:]
        assert len(rows) == 2 * len(cells)
        for idx, cell in enumerate(cells):
            alone = tmp_path / f"alone{idx}.csv"
            one = dict(doc, grid={key: [value] for key, value in cell.items()})
            run_sweep(SweepConfig.from_dict(one), out_csv=alone)
            # the same row apart from the cell index, which is 0 alone
            expect = [row.split(",", 1)[1] for row in rows if row.split(",", 1)[0] == str(idx)]
            got = [row.split(",", 1)[1] for row in alone.read_text().splitlines()[1:]]
            assert got == expect

    def test_trials_do_not_share_fits_or_draws(self, micro_records):
        for idx in range(3):
            first, second = (rec for rec in micro_records if rec.cell_index == idx)
            assert first.nu_learned != second.nu_learned
            assert first.excess_pretrain != second.excess_pretrain
            assert first.excess_transfer != second.excess_transfer


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
