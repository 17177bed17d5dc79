"""End-to-end command-line workflows and exit-code mapping."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transferlab
from transferlab import cli, erm, harness, rngutil
from transferlab.cli import main
from transferlab.harness import default_config
from transferlab.model_space import load_bundle
from transferlab.synthetic import load_dataset


@pytest.fixture()
def micro_config(tmp_path):
    doc = default_config()
    doc["trials"] = 1
    doc["grid"].update(
        n=[250], m=[50], k=[5], k_prime=[2], r=[2], d=[5],
        condition_number=[1.0], lambda_div=[0.0],
    )
    doc["optimizer"].update(max_iters=200, grad_tol=1e-4)
    doc["diagnostics"]["risk_mc_samples"] = 1500
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_print_default_config(capsys):
    assert main(["print-default-config"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == default_config()
    # the truth, covariate, bound and head-fit settings are constants, not
    # config, and every cell fits the baseline
    assert list(json.loads(out)) == ["seed", "trials", "grid", "optimizer", "diagnostics"]


def test_usage_errors_exit_one(capsys):
    assert main(["gen"]) == 1  # missing --out
    assert main(["pretrain", "--data", "does-not-exist.csv", "--out", "x"]) == 1


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_gen_pretrain_probe_diagnose_flow(tmp_path, micro_config, capsys):
    data = tmp_path / "pre.csv"
    truth = tmp_path / "truth.json"
    assert main([
        "gen", "--config", micro_config, "--out", str(data),
        "--truth-out", str(truth), "--stage", "pretrain",
    ]) == 0
    ds = load_dataset(data)
    assert ds.n == 250 and ds.k == 5

    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    assert main([
        "pretrain", "--data", str(data), "--lambda", "0.0",
        "--out", str(model), "--config", micro_config,
        "--embed-dim", "2", "--trace-out", str(trace),
    ]) == 0
    bundle = load_bundle(model)
    assert {"rep", "pre_head"} <= set(bundle)
    header = trace.read_text().splitlines()[0]
    assert header == "iter,risk,regularizer,grad_norm,step,nu_tilde"

    down = tmp_path / "down.csv"
    assert main([
        "gen", "--config", micro_config, "--out", str(down),
        "--stage", "downstream",
    ]) == 0
    probed = tmp_path / "probed.json"
    assert main([
        "probe", "--model", str(model), "--data", str(down),
        "--out", str(probed), "--config", micro_config,
    ]) == 0
    assert "down_head" in load_bundle(probed)

    diag = tmp_path / "diag.csv"
    assert main([
        "diagnose", "--model", str(probed), "--truth", str(truth),
        "--out", str(diag), "--config", micro_config, "--mc-samples", "1200",
    ]) == 0
    rows = diag.read_text().splitlines()
    assert rows[0] == "metric,value,std_error,seed,n_mc"
    metrics = {line.split(",")[0] for line in rows[1:]}
    assert {
        "nu_true", "nu_learned", "excess_transfer_risk",
        "pretrain_rep_difference", "schur_worst_case_bound",
        "empirical_head_complexity", "worst_case_head_complexity",
    } <= metrics
    assert (tmp_path / "diag.csv.txt").exists()


def test_diagnose_frame_wider_than_the_truth(tmp_path, micro_config):
    # the truth has r = 2; principal angles need only the same input dimension
    data, truth = tmp_path / "pre.csv", tmp_path / "truth.json"
    down, model = tmp_path / "down.csv", tmp_path / "model.json"
    probed, diag = tmp_path / "probed.json", tmp_path / "diag.csv"
    for argv in (
        ["gen", "--config", micro_config, "--out", str(data), "--truth-out", str(truth)],
        ["gen", "--config", micro_config, "--out", str(down), "--stage", "downstream"],
        ["pretrain", "--config", micro_config, "--data", str(data), "--out", str(model),
         "--embed-dim", "4"],
        ["probe", "--config", micro_config, "--model", str(model), "--data", str(down),
         "--out", str(probed)],
        ["diagnose", "--config", micro_config, "--model", str(probed),
         "--truth", str(truth), "--out", str(diag)],
    ):
        assert main(argv) == 0, argv[0]
    assert load_bundle(model)["rep"].embed_dim == 4
    metrics = {line.split(",")[0] for line in diag.read_text().splitlines()[1:]}
    assert "max_principal_angle" in metrics


@pytest.mark.parametrize("flag, message", [
    pytest.param(["--embed-dim", "6"], "--embed-dim = 6 exceeds the data dimension d = 5",
                 id="flag"),
    pytest.param([], "the config's grid.r = 6 exceeds the data dimension d = 5", id="config"),
])
def test_pretrain_rejects_embedding_wider_than_the_data(tmp_path, micro_config, flag,
                                                        message, capsys):
    # the micro data have d = 5; the default config is valid with r = 6 (d = 20)
    data, model = tmp_path / "pre.csv", tmp_path / "model.json"
    assert main(["gen", "--config", micro_config, "--out", str(data)]) == 0
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"grid": {"r": [6]}}))
    assert main(["pretrain", "--config", str(config), "--data", str(data),
                 "--out", str(model), *flag]) == 1
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_outputs_follow_the_data_not_file_bytes_or_path_spelling(
        tmp_path, micro_config, monkeypatch):
    # pretrain starts from the data's own frame estimate, and diagnose keys
    # its Monte Carlo draws by the truth's d: two spellings of the same
    # files give the same outputs, and a copy of the data whose header
    # carries another seed label gives the same model, byte for byte
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--config", micro_config, "--out", "pre.csv"]) == 0
    assert main(["gen", "--config", micro_config, "--out", "down.csv",
                 "--stage", "downstream"]) == 0
    outputs = []
    for tag, prefix in (("a", ""), ("b", "./")):
        model, probed, diag = (f"{prefix}{name}-{tag}.{ext}" for name, ext in (
            ("model", "json"), ("probed", "json"), ("diag", "csv")))
        for argv in (
            ["pretrain", "--data", f"{prefix}pre.csv", "--out", model],
            ["probe", "--model", model, "--data", f"{prefix}down.csv", "--out", probed],
            ["diagnose", "--model", probed, "--truth", f"{prefix}pre.csv.truth.json",
             "--out", diag],
        ):
            assert main([*argv, "--config", micro_config]) == 0, argv[0]
        outputs.append([Path(f).read_bytes() for f in (model, diag)])
    assert outputs[0] == outputs[1]
    header, body = Path("pre.csv").read_text().split("\n", 1)
    relabelled = re.sub(r"seed=\S+", "seed=relabelled", header)
    assert relabelled != header
    Path("relabelled.csv").write_text(relabelled + "\n" + body)
    assert main(["pretrain", "--data", "relabelled.csv", "--out", "model-c.json",
                 "--config", micro_config]) == 0
    assert Path("model-c.json").read_bytes() == outputs[0][0]


def test_bundles_diagnosed_against_one_truth_share_one_draw(
        tmp_path, micro_config, monkeypatch):
    # common random numbers: the draw is keyed by the truth's d and n_mc,
    # not by the bundle's bytes
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--config", micro_config, "--out", "pre.csv"]) == 0
    for lam, model in (("0", "plain.json"), ("0.5", "reg.json")):
        assert main(["pretrain", "--data", "pre.csv", "--lambda", lam, "--out", model,
                     "--config", micro_config]) == 0
    assert Path("plain.json").read_bytes() != Path("reg.json").read_bytes()
    draws = []
    sample = cli.sample_covariates
    monkeypatch.setattr(
        cli, "sample_covariates", lambda *a, **k: draws.append(sample(*a, **k)) or draws[-1])
    for model in ("plain.json", "reg.json"):
        assert main(["diagnose", "--model", model, "--truth", "pre.csv.truth.json",
                     "--out", f"{model}.csv", "--config", micro_config]) == 0
    assert len(draws) == 2
    np.testing.assert_array_equal(draws[0], draws[1])


def test_embed_dim_past_k_minus_1_starts_from_a_completed_frame(tmp_path, micro_config,
                                                                 monkeypatch):
    # at lambda = 0 --embed-dim may exceed K - 1 = 4, the rank of S: the start
    # completes S's leading frame with coordinate axes, deterministically
    monkeypatch.chdir(tmp_path)
    doc = json.loads(Path(micro_config).read_text())
    doc["grid"].update(d=[8])
    Path("wide.json").write_text(json.dumps(doc))
    assert main(["gen", "--config", "wide.json", "--out", "pre.csv"]) == 0
    starts = []
    moment_frame = erm._moment_frame
    monkeypatch.setattr(
        erm, "_moment_frame", lambda *a: starts.append(moment_frame(*a)) or starts[-1])
    for model in ("a.json", "b.json"):
        assert main(["pretrain", "--data", "pre.csv", "--embed-dim", "6", "--out", model,
                     "--config", "wide.json"]) == 0
    assert Path("a.json").read_bytes() == Path("b.json").read_bytes()
    np.testing.assert_array_equal(starts[0], starts[1])
    start, ds = starts[0], load_dataset("pre.csv")
    assert start.shape == (8, 6)
    np.testing.assert_allclose(start.T @ start, np.eye(6), atol=1e-12)
    lead = np.linalg.svd(ds.x.T @ ds.y / ds.n)[0][:, :4]
    np.testing.assert_allclose(lead @ lead.T @ start[:, :4], start[:, :4], atol=1e-12)


def test_diagnose_draws_covariates_once(tmp_path, micro_config, monkeypatch):
    # every Monte Carlo row of diagnose is scored on one covariate draw
    data, truth = tmp_path / "pre.csv", tmp_path / "truth.json"
    assert main([
        "gen", "--config", micro_config, "--out", str(data), "--truth-out", str(truth),
    ]) == 0
    doc = json.loads(truth.read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({k: doc[k] for k in ("rep", "pre_head", "down_head")}))
    draws = []
    sample = cli.sample_covariates
    monkeypatch.setattr(
        cli, "sample_covariates", lambda *a, **k: draws.append(a[1]) or sample(*a, **k))
    assert main([
        "diagnose", "--config", micro_config, "--model", str(model),
        "--truth", str(truth), "--out", str(tmp_path / "diag.csv"),
    ]) == 0
    assert draws == [1500]


def test_diagnose_ignores_the_covariates_section_of_an_older_truth_file(
        tmp_path, micro_config):
    # the law is N(0, I_d) capped at 3 sqrt(d), built from the truth's d; a
    # sigma cut to 4 x 4 beside the d = 5 frame used to fail after the draw
    data, truth = tmp_path / "pre.csv", tmp_path / "truth.json"
    assert main([
        "gen", "--config", micro_config, "--out", str(data), "--truth-out", str(truth),
    ]) == 0
    doc = json.loads(truth.read_text())
    assert "covariates" not in doc
    model = tmp_path / "model.json"
    model.write_text(json.dumps({k: doc[k] for k in ("rep", "pre_head", "down_head")}))
    doc["covariates"] = {"sigma": [[float(i == j) for j in range(4)] for i in range(4)],
                         "norm_cap": 3.0 * math.sqrt(5), "sigma_min": 1.0, "sigma_max": 1.0}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    out = tmp_path / "diag.csv"
    assert main([
        "diagnose", "--config", micro_config, "--model", str(model),
        "--truth", str(old), "--out", str(out),
    ]) == 0
    with open(out) as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("argv, flag", [
    (["pretrain", "--embed-dim", "0"], "--embed-dim"),
    (["pretrain", "--embed-dim", "-1"], "--embed-dim"),
    (["verify", "--seed", "-1"], "--seed"),
    (["gen", "--trial", "-3"], "--trial"),
])
def test_bad_integer_flag_exits_one(tmp_path, argv, flag, monkeypatch, capsys):
    # the data file does not exist and no suite may run: the flag is
    # rejected before either; gen writes no dataset
    ran = []
    monkeypatch.setattr(cli, "run_all_suites", lambda **kw: ran.append(kw) or [])
    if argv[0] == "pretrain":
        argv = [*argv, "--data", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "model.json")]
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path / "pre.csv")]
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_records_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits its sums by thread count; at n = 2000 the stage-one
    # iterates of this grid differ between 1 and 2 threads unless the
    # sweep pins one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 20240901, "trials": 1, "grid": {"n": [2000], "lambda_div": [0.0, 0.5]},
    }))
    src = str(Path(transferlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    records = []
    for threads in ("1", "2"):
        out = tmp_path / f"sweep-{threads}"
        subprocess.run(
            [sys.executable, "-m", "transferlab.cli", "sweep",
             "--config", str(config), "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            check=True, capture_output=True, timeout=600,
        )
        records.append((out / "records.csv").read_bytes())
    assert records[0] == records[1]


def test_blas_pin_restores_the_callers_count(monkeypatch):
    counts = [3]
    monkeypatch.setattr(rngutil, "_openblas_threads", lambda: (lambda: counts[-1], counts.append))
    with rngutil.one_blas_thread():
        assert counts[-1] == 1
    with pytest.raises(RuntimeError), rngutil.one_blas_thread():
        raise RuntimeError
    assert counts == [3, 1, 3, 1, 3]
    # without an OpenBLAS setter the block just runs
    monkeypatch.setattr(rngutil, "_openblas_threads", lambda: ())
    with rngutil.one_blas_thread():
        counts.append(0)
    assert counts[-1] == 0


def test_gen_deterministic(tmp_path, micro_config):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen", "--config", micro_config, "--out", str(a)]) == 0
    assert main(["gen", "--config", micro_config, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5


def test_verify_failure_exits_two(monkeypatch, capsys):
    from transferlab import cli
    from transferlab.verification import SuiteResult

    monkeypatch.setattr(
        cli, "run_all_suites",
        lambda **kw: [SuiteResult("rigged", False, 1, "rigged failure")],
    )
    assert main(["verify", "--quick"]) == 2


def test_sweep_and_report(tmp_path, micro_config, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", micro_config, "--out", str(out)]) == 0
    assert (out / "records.csv").exists()
    rep = tmp_path / "report"
    assert main(["report", "--in", str(out), "--out", str(rep)]) == 0
    assert (rep / "summary.txt").exists()
    assert (rep / "risk_vs_n.csv").exists()


@pytest.mark.parametrize("section", [
    {"diagnostics": {"risk_mc_samples": 0}},
    {"grid": {"n": [500], "r": [25]}},
    {"grid": {"n": [500], "k": [3]}},
    {"grid": {"n": [500], "r": [1], "condition_number": [2.0]}},
    # a condition number below 1 in a later cell, which used to fail its rows
    {"grid": {"n": [500], "condition_number": [1.0, 0.5]}},
    # line-search settings, now erm constants: rejected as unknown keys
    {"optimizer": {"min_step": 0, "step_init": 0}},
    {"optimizer": {"armijo_c": -1}},
    {"optimizer": {"step_grow": 0.1}},
    {"optimizer": {"max_iters": 0}},
    {"head_optimizer": {"step_max": float("inf")}},
    # scalars of the wrong type or range, which used to fail at run time
    {"seed": "abc"},
    {"seed": -5},
    {"trials": "2"},
    {"trials": 1.5},
    {"diagnostics": {"risk_mc_samples": 100.5}},
    {"baseline": "no"},  # the baseline switch left the config: an unknown key
    {"optimizer": {"max_iters": "50"}},
    # the hypothesis section, which went with the MLP family: an unknown key
    {"hypothesis": {"kind": "mlp", "mlp_widths": ["a"], "mlp_caps": [1, 1]}},
    {"hypothesis": {"kind": "mlp", "mlp_widths": [2.5], "mlp_caps": [1, 1]}},
    {"hypothesis": {"kind": "mlp", "mlp_widths": [0], "mlp_caps": [1, 1]}},
    {"hypothesis": {"kind": "mlp", "mlp_widths": [2], "mlp_caps": [-1, 1]}},
    {"hypothesis": {"kind": "mlp", "mlp_widths": [2], "mlp_caps": ["a", 1]}},
    {"hypothesis": {"mlp_widths": 5}},
    {"grid": {"n": 500}},
    # the truth, covariate and bound settings, now constants: unknown keys
    {"bound": {"setting": "mlpp"}},
    {"bound": {"setting": "mlp"}},
    {"bound": {"delta": 1.5}},
    {"bound": {"profile": {"rep_complexty": 5}}},
    {"truth": {"down_head_fill": 1.5}},
    {"covariates": {"scale": -1.0}},
    {"covariates": {"cap_factor": 0.05}},
    {"truth": {"top_singular_value": 100}},
    {"covariates": {"scale": "1"}},
    {"truth": {"down_head_cap": None}},
    {"bound": {"profile": 5}},
    {"bound": {"profile": {"tail": "x"}}},
    {"bound": {"profile": {"tail": None}}},
])
def test_sweep_rejects_config_that_fails_every_row(tmp_path, section, capsys):
    doc = {"trials": 1, "grid": {"n": [500]}, **section}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("doc", [[], 3])
def test_sweep_rejects_config_that_is_not_an_object(tmp_path, doc, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert "JSON object" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("field, text", [
    ("n", "abc"), ("pretrain_iters", "1.5"),
    ("pretrain_outcome", "bogus"), ("baseline_outcome", "Converged"),
    ("status", "okay"),
])
def test_report_rejects_malformed_records(tmp_path, field, text, capsys):
    rows = [
        harness.ExperimentRecord(
            cell_index=0, trial=trial, status="ok",
            params={key: 1.0 for key in harness.GRID_KEYS},
        )
        for trial in range(2)
    ]
    lines = [",".join(harness._CSV_FIELDS) + "\n", *map(harness._record_row, rows)]
    parts = lines[2].split(",")
    parts[harness._CSV_FIELDS.index(field)] = text
    lines[2] = ",".join(parts)
    indir = tmp_path / "sweep"
    indir.mkdir()
    (indir / "records.csv").write_text("".join(lines))
    out = tmp_path / "report"
    assert main(["report", "--in", str(indir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "records.csv line 3" in err and text in err
    assert not (out / "summary.txt").exists()


def test_report_on_records_that_all_failed_writes_nothing(tmp_path, capsys):
    # the report directory used to be made before the rows were checked
    rows = [
        harness.ExperimentRecord(
            cell_index=0, trial=trial, status="failed", reason="boom",
            params={key: 1.0 for key in harness.GRID_KEYS},
        )
        for trial in range(2)
    ]
    indir = tmp_path / "sweep"
    indir.mkdir()
    (indir / "records.csv").write_text(
        "".join([",".join(harness._CSV_FIELDS) + "\n", *map(harness._record_row, rows)]))
    out = tmp_path / "report"
    assert main(["report", "--in", str(indir), "--out", str(out)]) == 1
    assert "every record failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--out", "{dir}"], id="gen-out-dir"),
    pytest.param(["pretrain", "--data", "{dir}", "--out", "{new}"], id="pretrain-data-dir"),
    pytest.param(["sweep", "--out", "{file}"], id="sweep-out-file"),
    pytest.param(["report", "--in", "{records}", "--out", "{file}"], id="report-out-file"),
    pytest.param(["report", "--in", "{file}", "--out", "{new}"], id="report-in-file"),
    # a bad second output used to be found only after the first was written
    pytest.param(["gen", "--out", "{new}", "--truth-out", "{dir}"], id="gen-truth-out-dir"),
    pytest.param(["pretrain", "--data", "{data}", "--out", "{new}", "--trace-out", "{dir}"],
                 id="pretrain-trace-out-dir"),
    pytest.param(["probe", "--model", "{model}", "--data", "{data}", "--out", "{new}",
                  "--trace-out", "{dir}"], id="probe-trace-out-dir"),
    pytest.param(["diagnose", "--model", "{model}", "--truth", "{truth}", "--out", "{new}",
                  "--summary", "{dir}"], id="diagnose-summary-dir"),
])
def test_path_of_the_wrong_kind_exits_one(tmp_path, micro_config, argv, capsys):
    # a directory where a file belongs, or a file where a directory belongs,
    # is a usage error like a missing file, not a runtime failure, and no
    # output of the command is written
    a_dir, a_file, records = tmp_path / "a-dir", tmp_path / "a-file", tmp_path / "sweep"
    a_dir.mkdir()
    a_file.write_text("not a directory\n")
    records.mkdir()
    row = harness.ExperimentRecord(cell_index=0, trial=0, status="ok",
                                   params={key: 1.0 for key in harness.GRID_KEYS})
    (records / "records.csv").write_text(
        ",".join(harness._CSV_FIELDS) + "\n" + harness._record_row(row))
    # good inputs, so that only the path of the wrong kind can stop the command
    data, truth, model = tmp_path / "pre.csv", tmp_path / "truth.json", tmp_path / "model.json"
    assert main(["gen", "--config", micro_config, "--out", str(data),
                 "--truth-out", str(truth)]) == 0
    doc = json.loads(truth.read_text())
    model.write_text(json.dumps({k: doc[k] for k in ("rep", "pre_head", "down_head")}))
    paths = {"dir": a_dir, "file": a_file, "records": records, "new": tmp_path / "new",
             "data": data, "truth": truth, "model": model}
    argv = [arg.format(**paths) for arg in argv] + ["--config", micro_config] * (
        argv[0] in ("gen", "pretrain", "probe", "diagnose", "sweep"))

    def contents():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = contents()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime failure" not in err
    assert contents() == before


# the line-search policy, the ridge, the rate setting, the truth,
# covariate, bound and head-optimizer sections and the baseline switch left
# the config: a saved config that still names one is rejected like any
# unknown key
_REMOVED_TOP_LEVEL = ("truth", "covariates", "bound", "baseline", "head_optimizer")


@pytest.mark.parametrize("section, key, value", [
    *((section, key, value)
      for section in ("optimizer", "head_optimizer")
      for key, value in (
          ("step_init", 1.0), ("step_shrink", 0.5), ("armijo_c", 1e-4), ("step_grow", 2.0),
          ("step_max", 1e6), ("min_step", 1e-14), ("ridge_mu", 1e-8),
      )),
    ("bound", "setting", "subspace"),
    ("truth", "pre_head_cap", 1.0),
    ("covariates", "scale", 1.0),
    ("bound", "delta", 0.05),
    ("baseline", None, False),
    ("head_optimizer", "max_iters", 4000),
])
def test_sweep_rejects_removed_config_key(tmp_path, section, key, value, capsys):
    config = tmp_path / "old.json"
    entry = value if key is None else {key: value}  # a switch holds no keys
    config.write_text(json.dumps({"trials": 1, "grid": {"n": [500]}, section: entry}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if section in _REMOVED_TOP_LEVEL:
        assert f"unknown config keys [{section!r}]" in err
    else:
        assert f"unknown {section} keys" in err and repr(key) in err
    assert not (out / "records.csv").exists()


def test_config_naming_the_hypothesis_section_exits_one(tmp_path, capsys):
    # the section chose between the subspace and the removed MLP family
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"hypothesis": {"kind": "subspace"}}))
    for argv in (["sweep", "--out", str(tmp_path / "sweep")],
                 ["gen", "--out", str(tmp_path / "pre.csv")]):
        assert main([*argv, "--config", str(config)]) == 1
        assert "unknown config keys ['hypothesis']" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists() and not (tmp_path / "pre.csv").exists()


def test_sweep_rejects_nested_config_typo(tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"optimizer": {"max_iter": 50}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert "max_iter" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_trace_out_schema(tmp_path, micro_config, capsys):
    # one row per iteration, and both fits start from the zero head, whose
    # risk is log K on the pre-training task and log K' downstream
    pre, down = tmp_path / "pre.csv", tmp_path / "down.csv"
    model, probed = tmp_path / "model.json", tmp_path / "probed.json"
    pre_trace, down_trace = tmp_path / "pre-trace.csv", tmp_path / "down-trace.csv"
    assert main(["gen", "--config", micro_config, "--out", str(pre)]) == 0
    assert main([
        "gen", "--config", micro_config, "--out", str(down), "--stage", "downstream",
    ]) == 0
    capsys.readouterr()
    runs = [
        (["pretrain", "--data", str(pre), "--out", str(model)], pre_trace, 5),
        (["probe", "--model", str(model), "--data", str(down), "--out", str(probed)],
         down_trace, 2),
    ]
    for argv, trace, k in runs:
        assert main([*argv, "--config", micro_config, "--trace-out", str(trace)]) == 0
        iterations = int(re.search(r"(\d+) iterations", capsys.readouterr().out)[1])
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,risk,regularizer,grad_norm,step,nu_tilde"
        assert len(lines) == iterations + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(iterations))
        assert float(rows[0][1]) == pytest.approx(math.log(k), abs=1e-12)


@pytest.mark.parametrize("text, message", [
    pytest.param("# garbage\n0.5,-1.25,1\n2,0,3\n", "key=value", id="header-token"),
    pytest.param("# K=3 n=2\n0.5,-1.25,1\n2,0,3\n", "'d'", id="no-d"),
    pytest.param("# d=2 n=2\n0.5,-1.25,1\n2,0,3\n", "'K'", id="no-K"),
    pytest.param("# d=2 K=3\n0.5,-1.25,1\n2,0,3\n", "'n'", id="no-n"),
    pytest.param("# d=two K=3 n=2\n0.5,-1.25,1\n2,0,3\n", "dataset header",
                 id="header-value"),
    pytest.param("# d=2 K=3 n=2\n0.5,1\n2,0,3\n", "line 2 has 2 fields",
                 id="short-row"),
    pytest.param("# d=2 K=3 n=2\n0.5,-1.25,1\n2,0,0,3\n", "line 3 has 4 fields",
                 id="long-row"),
    pytest.param("# d=2 K=3 n=2\n0.5,abc,1\n2,0,3\n", "line 2", id="text-value"),
    pytest.param("# d=2 K=3 n=2\n0.5,-1.25,one\n2,0,3\n", "line 2", id="text-label"),
    pytest.param("# d=2 K=3 n=3\n0.5,-1.25,1\n2,0,3\n", "header says n=3",
                 id="too-few-rows"),
    pytest.param("# d=2 K=3 n=1\n0.5,-1.25,1\n2,0,3\n", "header says n=1",
                 id="too-many-rows"),
    pytest.param("# d=2 K=3 n=2\n0.5,-1.25,1\n2,0,4\n", "outside 1..3",
                 id="label-range"),
])
def test_malformed_dataset_exits_one(tmp_path, text, message, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    out = tmp_path / "model.json"
    assert main(["pretrain", "--data", str(data), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


_DROP = object()


def _edit(doc, path, value=_DROP):
    """``doc`` with the key at the end of ``path`` set to ``value``, or removed."""
    *parents, key = path
    inner = doc
    for name in parents:
        inner = inner[name]
    if value is _DROP:
        del inner[key]
    else:
        inner[key] = value
    return doc


def _run_on_broken_file(tmp_path, micro_config, command, target, path, value=_DROP):
    """Exit code of ``command`` when the bundle or truth file has one key edited."""
    data, truth = tmp_path / "pre.csv", tmp_path / "truth.json"
    assert main([
        "gen", "--config", micro_config, "--out", str(data), "--truth-out", str(truth),
    ]) == 0
    truth_doc = json.loads(truth.read_text())
    docs = {
        "truth": truth_doc,
        "bundle": {"rep": truth_doc["rep"], "pre_head": truth_doc["pre_head"]},
    }
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(docs["bundle"]))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(_edit(docs[target], path, value)))
    model = broken if target == "bundle" else bundle
    out = tmp_path / "out"
    argv = {
        "probe": ["probe", "--model", str(model), "--data", str(data)],
        "diagnose": ["diagnose", "--model", str(model),
                     "--truth", str(broken if target == "truth" else truth)],
    }[command]
    code = main([*argv, "--out", str(out), "--config", micro_config])
    assert not out.exists()
    return code


@pytest.mark.parametrize("command, target, path, message", [
    pytest.param("probe", "bundle", ("rep",), "'rep'", id="probe-no-rep"),
    pytest.param("diagnose", "bundle", ("rep",), "'rep'", id="diagnose-no-rep"),
    pytest.param("probe", "bundle", ("rep", "entries"), "'entries'",
                 id="probe-rep-entries"),
    pytest.param("diagnose", "bundle", ("pre_head", "column_cap"), "'column_cap'",
                 id="diagnose-head-cap"),
    pytest.param("diagnose", "truth", ("down_head",), "'down_head'", id="truth-down-head"),
    pytest.param("diagnose", "truth", ("down_head", "entries"), "'entries'",
                 id="truth-head-entries"),
])
def test_missing_model_key_exits_one(tmp_path, micro_config, command, target, path,
                                     message, capsys):
    assert _run_on_broken_file(tmp_path, micro_config, command, target, path) == 1
    assert message in capsys.readouterr().err


# the payload of the tanh-MLP representation family, which no longer exists
_MLP_REP = {"kind": "mlp", "layers": [[[0.5] * 5, [0.0] * 5], [[0.5, 0.0], [0.0, 0.5]]],
            "caps": [3.0, 1.0]}


@pytest.mark.parametrize("command, target, path, value, message", [
    pytest.param("probe", "bundle", ("rep", "entries"), "abc", "subspace entries",
                 id="rep-entries-string"),
    pytest.param("probe", "bundle", ("rep", "entries"), [[1.0, "x"]], "subspace entries",
                 id="rep-entries-string-leaf"),
    pytest.param("probe", "bundle", ("rep", "entries"), [[1.0, 0.0], [0.0]], "ragged",
                 id="rep-entries-ragged"),
    pytest.param("probe", "bundle", ("rep", "entries"), [1.0, 0.0], "2-D",
                 id="rep-entries-1d"),
    pytest.param("probe", "bundle", ("rep",), _MLP_REP, "unknown model kind 'mlp'",
                 id="mlp-kind"),
    pytest.param("diagnose", "truth", ("rep",), _MLP_REP, "unknown model kind 'mlp'",
                 id="truth-mlp-kind"),
    pytest.param("diagnose", "bundle", ("pre_head", "column_cap"), "1", "column_cap",
                 id="head-cap-string"),
    pytest.param("diagnose", "bundle", ("pre_head", "column_cap"), [1.0], "column_cap",
                 id="head-cap-list"),
    pytest.param("diagnose", "truth", ("down_head", "entries"), "abc",
                 "linear_head entries", id="truth-head-entries-string"),
])
def test_non_numeric_model_value_exits_one(tmp_path, micro_config, command, target, path,
                                           value, message, capsys):
    assert _run_on_broken_file(tmp_path, micro_config, command, target, path, value) == 1
    assert message in capsys.readouterr().err


# a 5 x 2 frame and a 2 x 1 head, the shapes of micro_config's models
_SUBSPACE = {"kind": "subspace", "entries": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                                             [0.0, 0.0], [0.0, 0.0]]}
_HEAD = {"kind": "linear_head", "column_cap": 1.0, "entries": [[0.5], [0.0]]}


@pytest.mark.parametrize("command, target, role, value, want", [
    pytest.param("probe", "bundle", "rep", _HEAD, "subspace", id="bundle-rep-head"),
    pytest.param("diagnose", "bundle", "pre_head", _SUBSPACE, "linear_head",
                 id="bundle-head-subspace"),
    pytest.param("diagnose", "truth", "rep", _HEAD, "subspace", id="truth-rep-head"),
    pytest.param("diagnose", "truth", "down_head", _SUBSPACE, "linear_head",
                 id="truth-head-subspace"),
])
def test_component_of_the_wrong_kind_exits_one(tmp_path, micro_config, command, target,
                                               role, value, want, capsys):
    assert _run_on_broken_file(tmp_path, micro_config, command, target, (role,), value) == 1
    assert f"model component {role!r} must be a {want!r} payload" in capsys.readouterr().err


@pytest.mark.parametrize("target, role", [("truth", "down_head"), ("bundle", "pre_head")])
def test_model_file_cap_that_is_not_a_number_exits_one(tmp_path, micro_config, target,
                                                      role, capsys):
    # a NaN cap used to load, and diagnose wrote NaN bounds and complexities
    path = (role, "column_cap")
    assert _run_on_broken_file(tmp_path, micro_config, "diagnose", target, path,
                               math.nan) == 1
    assert "column cap must be a finite number > 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_pretrain_rejects_a_lambda_that_is_not_finite_and_nonnegative(
        tmp_path, micro_config, value, capsys):
    data = tmp_path / "pre.csv"
    assert main(["gen", "--config", micro_config, "--out", str(data)]) == 0
    out, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    assert main(["pretrain", "--config", micro_config, "--data", str(data),
                 f"--lambda={value}", "--out", str(out), "--trace-out", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "--lambda" in err and "finite number >= 0" in err
    assert not out.exists() and not trace.exists()


def test_pretrain_summary_counts_objective_evaluations(tmp_path, micro_config, capsys):
    data = tmp_path / "pre.csv"
    assert main(["gen", "--config", micro_config, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["pretrain", "--config", micro_config, "--data", str(data),
                 "--out", str(tmp_path / "model.json")]) == 0
    found = re.search(r"after (\d+) iterations \((\d+) objective evaluations\)",
                      capsys.readouterr().out)
    assert found and int(found[2]) >= int(found[1])


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_diagnose_rejects_mc_samples_below_one(tmp_path, samples, capsys):
    # the files do not exist: the flag must be rejected before any is read
    argv = ["diagnose", "--model", str(tmp_path / "m.json"),
            "--truth", str(tmp_path / "t.json"), "--out", str(tmp_path / "d.csv"),
            "--config", str(tmp_path / "c.json"), "--mc-samples", samples]
    assert main(argv) == 1
    assert "--mc-samples" in capsys.readouterr().err


def test_diagnose_on_few_mc_samples_gives_finite_values(tmp_path, micro_config):
    # the Schur bound is closed-form, so no draw size is too small for it,
    # and it reads the same at any draw size; the model is another trial's
    # truth, so the bound is not zero
    data, truth, other = tmp_path / "pre.csv", tmp_path / "truth.json", tmp_path / "t1.json"
    for trial, path in (("0", truth), ("1", other)):
        assert main(["gen", "--config", micro_config, "--out", str(data),
                     "--truth-out", str(path), "--trial", trial]) == 0
    doc = json.loads(other.read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({k: doc[k] for k in ("rep", "pre_head", "down_head")}))
    values = {}
    for samples in ("19", "1500"):
        out = tmp_path / f"diag{samples}.csv"
        assert main([
            "diagnose", "--model", str(model), "--truth", str(truth), "--out", str(out),
            "--config", micro_config, "--mc-samples", samples,
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows and all(math.isfinite(float(row["value"])) for row in rows)
        values[samples] = {row["metric"]: row["value"] for row in rows}
    assert float(values["19"]["schur_worst_case_bound"]) > 0.01
    assert values["19"]["schur_worst_case_bound"] == values["1500"]["schur_worst_case_bound"]


@pytest.mark.parametrize("role, edit, message", [
    pytest.param("down_head", lambda e: e[:1], "'down_head' has r = 1, but 'rep' has r = 2",
                 id="down-head-r"),
    pytest.param("pre_head", lambda e: e[:1], "'pre_head' has r = 1, but 'rep' has r = 2",
                 id="pre-head-r"),
    pytest.param("pre_head", lambda e: [row[:2] for row in e],
                 "'pre_head' has 2 logits, but the truth's has 4", id="pre-head-classes"),
    pytest.param("down_head", lambda e: [row * 2 for row in e],
                 "'down_head' has 2 logits, but the truth's has 1", id="down-head-classes"),
    pytest.param("rep", lambda e: [*e, [0.0, 0.0]], "'rep' has d = 6, but the truth has d = 5",
                 id="rep-d"),
])
def test_diagnose_rejects_a_bundle_that_does_not_fit(tmp_path, micro_config, role, edit,
                                                     message, monkeypatch, capsys):
    # a part cut to another r used to fail in a matmul as a runtime error, and
    # a head of another class count or a frame of another d only after the
    # covariates were drawn, with a message that named neither
    data, truth = tmp_path / "pre.csv", tmp_path / "truth.json"
    assert main([
        "gen", "--config", micro_config, "--out", str(data), "--truth-out", str(truth),
    ]) == 0
    doc = json.loads(truth.read_text())
    bundle = {k: doc[k] for k in ("rep", "pre_head", "down_head")}
    bundle[role] = dict(bundle[role], entries=edit(bundle[role]["entries"]))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(bundle))
    draws = []
    monkeypatch.setattr(cli, "sample_covariates", lambda *a, **k: draws.append(a[1]))
    out = tmp_path / "diag.csv"
    assert main([
        "diagnose", "--config", micro_config, "--model", str(model),
        "--truth", str(truth), "--out", str(out),
    ]) == 1
    assert message in capsys.readouterr().err
    assert draws == []
    assert not out.exists() and not (tmp_path / "diag.csv.txt").exists()
