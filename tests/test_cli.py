"""End-to-end command-line workflows and exit-code mapping."""

import json

import pytest

from transferlab.cli import main
from transferlab.harness import default_config
from transferlab.model_space import MlpRep, load_bundle
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
    doc["head_optimizer"].update(max_iters=500, grad_tol=1e-6)
    doc["diagnostics"]["risk_mc_samples"] = 1500
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_print_default_config(capsys):
    assert main(["print-default-config"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == default_config()


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


def test_pretrain_honours_mlp_config(tmp_path, micro_config):
    doc = json.loads(open(micro_config).read())
    doc["hypothesis"] = {"kind": "mlp", "mlp_widths": [4], "mlp_caps": [4.0, 4.0]}
    doc["optimizer"].update(max_iters=20)
    config = tmp_path / "mlp.json"
    config.write_text(json.dumps(doc))
    data, model = tmp_path / "pre.csv", tmp_path / "model.json"
    assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    assert main([
        "pretrain", "--data", str(data), "--out", str(model), "--config", str(config),
    ]) == 0
    rep = load_bundle(model)["rep"]
    assert isinstance(rep, MlpRep)
    # the embedding width defaults to r of the config's first cell
    assert rep.weights[-1].shape[0] == doc["grid"]["r"][0]


@pytest.mark.parametrize("section", [
    {"bound": {"setting": "mlpp"}},
    {"bound": {"setting": "mlp"}},
    {"bound": {"delta": 1.5}},
    {"bound": {"profile": {"rep_complexty": 5}}},
    {"diagnostics": {"risk_mc_samples": 0}},
    {"grid": {"n": [500], "r": [25]}},
    {"grid": {"n": [500], "k": [3]}},
])
def test_sweep_rejects_config_that_fails_every_row(tmp_path, section, capsys):
    doc = {"trials": 1, "grid": {"n": [500]}, **section}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_sweep_rejects_nested_config_typo(tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"optimizer": {"max_iter": 50}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert "max_iter" in capsys.readouterr().err
    assert not (out / "records.csv").exists()
