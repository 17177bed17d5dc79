"""Command-line interface.

Subcommands cover the whole pipeline: dataset generation, stage-one
training, stage-two head fitting, diagnostics, the randomized property
suites, full sweeps, and report aggregation.

Exit codes: 0 success, 1 usage error, 2 property-suite failure,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .errors import ContractViolation
from .diagnostics import (
    empirical_gaussian_complexity_linear,
    measure_excess_risks,
    representation_difference,
    schur_complement_bound,
    worst_case_complexity_linear,
)
from .erm import fit_downstream_head, pretrain
from .model_space import (
    SubspaceRep,
    diversity_parameter,
    load_bundle,
    principal_angles,
    save_bundle,
)
from .rngutil import derive_rng
from .synthetic import (
    covariate_spec_hash,
    load_dataset,
    load_truth,
    make_dataset,
    sample_covariates,
    save_dataset,
    save_truth,
)
from .verification import run_all_suites

USAGE_ERROR = 1
PROPERTY_FAILURE = 2
RUNTIME_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap to the documented code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_config(path) -> harness.SweepConfig:
    if path is None:
        return harness.SweepConfig.from_dict({})
    with open(path) as fh:
        return harness.SweepConfig.from_dict(json.load(fh))


def _first_cell(cfg: harness.SweepConfig) -> dict:
    return harness.cells_of(cfg)[0]


def _cmd_print_default_config(_args) -> int:
    print(json.dumps(harness.default_config(), indent=2))
    return 0


def _cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    cell = _first_cell(cfg)
    spec, truth, truth_tok = harness.cell_truth(cfg, cell, args.trial)
    n = int(cell["n"]) if args.stage == "pretrain" else int(cell["m"])
    stream = "pretrain_data" if args.stage == "pretrain" else "down_data"
    ds = make_dataset(
        truth, spec, n,
        derive_rng(cfg.seed, stream, args.trial, truth_tok, n),
        stage=args.stage, seed_label=f"{cfg.seed}/{args.trial}",
    )
    save_dataset(args.out, ds, covariate_spec_hash(spec))
    truth_path = args.truth_out or (args.out + ".truth.json")
    save_truth(truth_path, truth, spec)
    print(f"wrote {ds.n} samples (K={ds.k}) to {args.out}; truth to {truth_path}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    ds = load_dataset(args.data)
    embed_dim = (
        int(_first_cell(cfg)["r"]) if args.embed_dim is None else args.embed_dim
    )
    hyp = cfg.hypothesis_config(embed_dim, cfg.truth["pre_head_cap"])
    result = pretrain(
        ds, hyp, args.lambda_div, cfg.optim_config(),
        derive_rng(cfg.seed, "cli-pretrain", args.data, args.lambda_div),
    )
    save_bundle(args.out, {"rep": result.rep, "pre_head": result.head})
    if args.trace_out:
        result.trace.to_csv(args.trace_out)
    state = "stalled" if result.trace.stalled else "converged"
    print(
        f"{state} after {len(result.trace)} iterations; "
        f"final risk {result.trace.risk[-1] if len(result.trace) else float('nan'):.6f}; "
        f"model -> {args.out}"
    )
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    bundle = load_bundle(args.model)
    ds = load_dataset(args.data)
    head, trace = fit_downstream_head(
        bundle["rep"], ds, cfg.truth["down_head_cap"], cfg.head_optim_config()
    )
    bundle["down_head"] = head
    save_bundle(args.out, bundle)
    if args.trace_out:
        trace.to_csv(args.trace_out)
    print(f"fit downstream head in {len(trace)} iterations; model -> {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    bundle = load_bundle(args.model)
    truth, spec = load_truth(args.truth)
    rep = bundle["rep"]
    n_mc = args.mc_samples or int(cfg.diagnostics["risk_mc_samples"])
    rng_tok = ("cli-diagnose", args.model, args.truth, n_mc)
    rows = []

    def add(metric, value, se=float("nan")):
        rows.append((metric, float(value), float(se)))

    add("nu_true", diversity_parameter(truth.pre_head))
    if "pre_head" in bundle:
        add("nu_learned", diversity_parameter(bundle["pre_head"]))
    if isinstance(rep, SubspaceRep) and isinstance(truth.rep, SubspaceRep):
        add("max_principal_angle", principal_angles(rep, truth.rep)[-1])
    if "down_head" in bundle:
        report = measure_excess_risks(
            rep, bundle.get("pre_head"), bundle["down_head"], truth, spec, n_mc,
            derive_rng(cfg.seed, *rng_tok, "risk"),
        )
        add("excess_transfer_risk", report.excess_transfer_risk, report.std_error)
        if "pre_head" in bundle:
            add("excess_pretrain_risk", report.excess_pretrain_risk,
                report.pretrain_std_error)
    add(
        "pretrain_rep_difference",
        *representation_difference(
            rep, truth, spec, n_mc, cfg.head_optim_config(),
            derive_rng(cfg.seed, *rng_tok, "repdiff"),
        ),
    )
    _, schur = schur_complement_bound(
        rep, truth.rep, spec, n_mc, truth.down_head.column_cap, truth.k_prime,
        derive_rng(cfg.seed, *rng_tok, "schur"),
    )
    add("schur_worst_case_bound", schur)

    # head-class complexity at the fitted embeddings, plus its analytic
    # worst case over admissible embeddings
    comp_rng = derive_rng(cfg.seed, *rng_tok, "complexity")
    x_comp = sample_covariates(spec, max(10, n_mc // 10), comp_rng)
    z_comp = rep.apply(x_comp)
    emp = empirical_gaussian_complexity_linear(
        z_comp, truth.down_head.column_cap, truth.k_prime, 400, comp_rng
    )
    add("empirical_head_complexity", emp.value, emp.std_error)
    worst = worst_case_complexity_linear(
        truth.down_head.column_cap, truth.k_prime,
        float(np.linalg.norm(z_comp, axis=1).max()), z_comp.shape[0],
    )
    add("worst_case_head_complexity", worst.value)

    harness.write_csv(
        args.out,
        [
            {"metric": metric, "value": value, "std_error": se,
             "seed": cfg.seed, "n_mc": n_mc}
            for metric, value, se in rows
        ],
        ["metric", "value", "std_error", "seed", "n_mc"],
    )
    summary_path = args.summary or (args.out + ".txt")
    with open(summary_path, "w") as fh:
        fh.write(f"diagnostics for {args.model} against {args.truth}\n")
        fh.write(f"seed={cfg.seed} n_mc={n_mc}\n")
        for metric, value, se in rows:
            tail = "" if np.isnan(se) else f" +- {se:.3e}"
            fh.write(f"  {metric}: {value:.6e}{tail}\n")
    print(f"wrote {len(rows)} diagnostics to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.quick:
        results = run_all_suites(
            seed=args.seed, sc_total=1500, hessian_total=150,
            kl_total=200, grad_instances=15, chain_instances=4,
        )
    else:
        results = run_all_suites(seed=args.seed)
    all_ok = True
    for res in results:
        flag = "PASS" if res.passed else "FAIL"
        print(f"[{flag}] {res.name} ({res.checked} checks): {res.detail}")
        all_ok &= res.passed
    return 0 if all_ok else PROPERTY_FAILURE


def _cmd_sweep(args) -> int:
    import os

    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    records = harness.run_sweep(cfg, out_csv=os.path.join(args.out, "records.csv"))
    failed = sum(1 for rec in records if rec.status != "ok")
    print(f"swept {len(records)} runs ({failed} failed) -> {args.out}/records.csv")
    return 0


def _cmd_report(args) -> int:
    records = harness.load_records_csv(f"{args.indir}/records.csv")
    summary = harness.write_report(records, args.out)
    for line in summary.lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="transferlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset plus its truth file")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.add_argument("--stage", choices=["pretrain", "downstream"], default="pretrain")
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pretrain", help="stage-one training on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lambda_div", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument(
        "--embed-dim", type=int, default=None,
        help="embedding width r (default: r of the config's first grid cell)",
    )
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="stage-two head fit on a frozen representation")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("diagnose", help="diagnostics of a model bundle vs the truth")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--summary", default=None)
    p.add_argument("--mc-samples", type=int, default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller suite sizes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a full experiment sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="aggregate sweep records into figures")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("print-default-config", help="emit the default sweep config")
    p.set_defaults(func=_cmd_print_default_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # remapped usage errors and --help
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except (ContractViolation, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
