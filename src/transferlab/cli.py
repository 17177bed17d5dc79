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
import math
import os
import sys

import numpy as np

from . import harness
from .errors import ContractViolation, require_keys
from .diagnostics import (
    empirical_gaussian_complexity_linear,
    measure_excess_risks,
    representation_difference,
    schur_complement_bound,
    worst_case_complexity_linear,
)
from .erm import fit_downstream_head, pretrain
from .model_space import diversity_parameter, load_bundle, principal_angles, save_bundle
from .rngutil import derive_rng, one_blas_thread
from .synthetic import (
    HEAD_CAP,
    isotropic_covariates,
    load_dataset,
    load_truth,
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


def _int_at_least(low: int):
    """An argparse type: an integer no less than ``low``, or a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its message on a non-integer
    return parse


def _finite_nonnegative(text: str) -> float:
    """An argparse type: a finite number >= 0, or a usage error naming the flag."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


_finite_nonnegative.__name__ = "number"


def _load_config(path) -> harness.SweepConfig:
    if path is None:
        return harness.SweepConfig.from_dict({})
    with open(path) as fh:
        return harness.SweepConfig.from_dict(json.load(fh))


def _check_out_paths(*paths) -> None:
    """Raise unless each path given is not a directory and its directory exists;
    checking every output before any work leaves nothing behind on exit 1."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ContractViolation(f"output path {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ContractViolation(f"output path {path} is not in an existing directory")


def _write_trace(path, trace) -> None:
    columns = ["iter", "risk", "regularizer", "grad_norm", "step", "nu_tilde"]
    series = (range(len(trace)), trace.risk, trace.regularizer,
              trace.grad_norm, trace.step, trace.nu_tilde)
    harness.write_csv(path, [dict(zip(columns, row)) for row in zip(*series)], columns)


def _fit_summary(trace) -> str:
    """How a fit ended, and why if it stalled, in how many iterations and evaluations."""
    outcome = f"stalled ({trace.stall_reason})" if trace.stalled else trace.outcome
    return f"{outcome} after {len(trace)} iterations ({trace.evaluations} objective evaluations)"


def _cmd_print_default_config(_args) -> int:
    print(json.dumps(harness.default_config(), indent=2))
    return 0


def _cmd_gen(args) -> int:
    truth_path = args.truth_out or (args.out + ".truth.json")
    _check_out_paths(args.out, truth_path)
    cfg = _load_config(args.config)
    cell = harness.cells_of(cfg)[0]
    truth = harness.cell_truth(cfg, cell, args.trial)
    ds = harness.stage_dataset(cfg, cell, args.trial, args.stage, truth)
    save_dataset(args.out, ds)
    save_truth(truth_path, truth)
    print(f"wrote {ds.n} samples (K={ds.k}) to {args.out}; truth to {truth_path}")
    return 0


def _cmd_pretrain(args) -> int:
    _check_out_paths(args.out, args.trace_out)
    cfg = _load_config(args.config)
    ds = load_dataset(args.data)
    cell = harness.cells_of(cfg)[0]
    if args.embed_dim is None:
        embed_dim, source = cell["r"], "the config's grid.r"
    else:
        embed_dim, source = args.embed_dim, "--embed-dim"
    if embed_dim > ds.dim:
        raise ContractViolation(
            f"{source} = {embed_dim} exceeds the data dimension d = {ds.dim}")
    lambda_div = float(cell["lambda_div"]) if args.lambda_div is None else args.lambda_div
    result = pretrain(ds, embed_dim, HEAD_CAP, lambda_div, cfg.optimizer)
    save_bundle(args.out, {"rep": result.rep, "pre_head": result.head})
    if args.trace_out:
        _write_trace(args.trace_out, result.trace)
    trace = result.trace
    print(f"{_fit_summary(trace)}; final risk {trace.risk[-1]:.6f}; model -> {args.out}")
    return 0


def _cmd_probe(args) -> int:
    _check_out_paths(args.out, args.trace_out)
    _load_config(args.config)  # nothing in it is read, but a bad config still exits 1
    bundle = load_bundle(args.model)
    require_keys(bundle, ("rep",), f"model bundle {args.model}")
    ds = load_dataset(args.data)
    head, trace = fit_downstream_head(bundle["rep"], ds, HEAD_CAP, harness.HEAD_OPTIM)
    bundle["down_head"] = head
    save_bundle(args.out, bundle)
    if args.trace_out:
        _write_trace(args.trace_out, trace)
    print(f"downstream head {_fit_summary(trace)}; model -> {args.out}")
    return 0


def _check_fits_truth(bundle: dict, truth, path) -> None:
    """Raise unless the bundle's d and its heads' class counts are the truth's."""
    if bundle["rep"].input_dim != truth.rep.input_dim:
        raise ContractViolation(
            f"model bundle {path}: 'rep' has d = {bundle['rep'].input_dim}, "
            f"but the truth has d = {truth.rep.input_dim}")
    for role in ("pre_head", "down_head"):
        if role in bundle and bundle[role].n_logits != getattr(truth, role).n_logits:
            raise ContractViolation(
                f"model bundle {path}: {role!r} has {bundle[role].n_logits} logits, "
                f"but the truth's has {getattr(truth, role).n_logits}")


def _cmd_diagnose(args) -> int:
    summary_path = args.summary or (args.out + ".txt")
    _check_out_paths(args.out, summary_path)
    cfg = _load_config(args.config)
    bundle = load_bundle(args.model)
    require_keys(bundle, ("rep",), f"model bundle {args.model}")
    truth = load_truth(args.truth)
    rep = bundle["rep"]
    _check_fits_truth(bundle, truth, args.model)
    n_mc = args.mc_samples or int(cfg.diagnostics["risk_mc_samples"])
    # keyed by d, not the files: every bundle's rows share one draw (common random numbers)
    rng_tok = ("cli-diagnose", truth.rep.input_dim, n_mc)
    x = sample_covariates(isotropic_covariates(truth.rep.input_dim), n_mc,
                          derive_rng(cfg.seed, *rng_tok, "risk"))
    rows = []

    def add(metric, value, se=float("nan")):
        rows.append((metric, float(value), float(se)))

    add("nu_true", diversity_parameter(truth.pre_head))
    if "pre_head" in bundle:
        add("nu_learned", diversity_parameter(bundle["pre_head"]))
    add("max_principal_angle", principal_angles(rep, truth.rep)[-1])
    if "down_head" in bundle:  # the excess risks are scored once the bundle is probed
        add("excess_transfer_risk",
            *measure_excess_risks(truth, x, n_mc, bundle["down_head"], rep, "downstream"))
        if "pre_head" in bundle:
            add("excess_pretrain_risk",
                *measure_excess_risks(truth, x, n_mc, bundle["pre_head"], rep, "pretrain"))
    value, se, rep_fit = representation_difference(rep, truth, x, harness.HEAD_OPTIM)
    add("pretrain_rep_difference", value, se)
    add("schur_worst_case_bound", schur_complement_bound(
        rep, truth.rep, truth.down_head.column_cap, truth.k_prime))

    # head-class complexity at the fitted embeddings of the draw's leading
    # rows, plus its analytic worst case over admissible embeddings
    z_comp = rep.apply(x[: max(10, n_mc // 10)])
    emp = empirical_gaussian_complexity_linear(
        z_comp, truth.down_head.column_cap, truth.k_prime, 400,
        derive_rng(cfg.seed, *rng_tok, "complexity"),
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
    with open(summary_path, "w") as fh:
        fh.write(f"diagnostics for {args.model} against {args.truth}\n")
        fh.write(f"seed={cfg.seed} n_mc={n_mc}\n")
        for metric, value, se in rows:
            tail = "" if np.isnan(se) else f" +- {se:.3e}"
            fh.write(f"  {metric}: {value:.6e}{tail}\n")
        fh.write(f"pretrain_rep_difference head fit: {_fit_summary(rep_fit)}\n")
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
    p.add_argument("--trial", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pretrain", help="stage-one training on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lambda_div", type=_finite_nonnegative, default=None,
                   help="diversity weight (default: lambda_div of the config's first grid cell)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument(
        "--embed-dim", type=_int_at_least(1), default=None,
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
    p.add_argument("--mc-samples", type=_int_at_least(1), default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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


@one_blas_thread()
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # remapped usage errors and --help
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except (ContractViolation, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
