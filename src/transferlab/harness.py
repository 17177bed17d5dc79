"""Config-driven experiment sweeps, scaling fits, and report emission.

A sweep runs the full pipeline (truth construction, data generation,
stage-one training, stage-two head fit, baseline, diagnostics, rate
evaluation) over a parameter grid with several trials per cell. Random
streams are derived per (trial, stage, stage parameters), so cells that
differ only in, say, the downstream sample count share their truth and
pre-training work, and paired comparisons across the regularizer weight
see identical data. Stage-one results are memoized on that key within a
run.

Failures inside a cell are recorded as failed rows and never abort the
sweep. Records are written in deterministic order; wall time is kept on
the in-memory record only so the emitted CSV is byte-stable.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import ContractViolation
from .model_space import SubspaceRep, diversity_parameter, principal_angles
from .rngutil import derive_rng
from .synthetic import (
    CovariateSpec,
    GroundTruth,
    isotropic_covariates,
    make_dataset,
    make_ground_truth,
)
from .erm import HypothesisConfig, OptimConfig, fit_downstream_head, pretrain, train_baseline
from .diagnostics import BoundParams, evaluate_risk_bound, measure_excess_risks

__all__ = [
    "SweepConfig",
    "ExperimentRecord",
    "default_config",
    "cells_of",
    "cell_truth",
    "run_sweep",
    "write_csv",
    "write_records_csv",
    "load_records_csv",
    "fit_power_law",
    "PowerLawFit",
    "write_report",
    "ReportSummary",
]

GRID_KEYS = ("n", "m", "k", "k_prime", "r", "d", "condition_number", "lambda_div")


def default_config() -> dict:
    """Self-documenting default sweep: the desk-scale transfer regime."""
    return {
        "seed": 20240901,
        "trials": 10,
        "grid": {
            "n": [500, 1000, 2000, 4000, 8000],
            "m": [200],
            "k": [30],
            "k_prime": [2],
            "r": [3],
            "d": [20],
            "condition_number": [1.0],
            "lambda_div": [0.0],
        },
        "covariates": {"scale": 1.0, "cap_factor": 3.0},
        "truth": {
            "top_singular_value": 1.0,
            "pre_head_cap": 1.0,
            "down_head_cap": 1.0,
            "down_head_fill": 0.7,
        },
        "hypothesis": {"kind": "subspace", "mlp_widths": [], "mlp_caps": []},
        "optimizer": {
            "max_iters": 2000,
            "grad_tol": 1e-5,
            "step_init": 1.0,
            "ridge_mu": 1e-8,
        },
        "head_optimizer": {"max_iters": 4000, "grad_tol": 1e-7},
        "diagnostics": {"risk_mc_samples": 20000},
        "bound": {"setting": "subspace", "delta": 0.05, "profile": {}},
        "baseline": True,
    }


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep configuration; mirrors the JSON document."""

    seed: int
    trials: int
    grid: dict
    covariates: dict
    truth: dict
    hypothesis: dict
    optimizer: dict
    head_optimizer: dict
    diagnostics: dict
    bound: dict
    baseline: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ContractViolation("trials must be >= 1")
        for key in GRID_KEYS:
            values = self.grid.get(key)
            if not values:
                raise ContractViolation(f"grid is missing values for {key!r}")
            # the regularizer weight may be zero; everything else is positive
            floor = 0.0 if key == "lambda_div" else 1e-300
            for v in values:
                if not isinstance(v, (int, float)) or v < floor:
                    raise ContractViolation(f"grid value {v!r} for {key!r} invalid")
        if any(v < 2 for v in self.grid["k"]) or any(v < 2 for v in self.grid["k_prime"]):
            raise ContractViolation("class counts must be at least 2")
        # the grid is a product, so every cell has r <= d and r <= k-1 iff
        # the extremes do
        r_max = max(self.grid["r"])
        if r_max > min(self.grid["d"]) or r_max > min(self.grid["k"]) - 1:
            raise ContractViolation("every grid cell needs r <= d and r <= k-1")
        n_mc = self.diagnostics["risk_mc_samples"]
        if not isinstance(n_mc, (int, float)) or n_mc < 1:
            raise ContractViolation("diagnostics.risk_mc_samples must be >= 1")
        # build the typed sections and one bound so that bad values fail
        # before any work
        self.optim_config()
        self.head_optim_config()
        self.hypothesis_config(self.grid["r"][0], self.truth["pre_head_cap"])
        self.risk_bound({key: self.grid[key][0] for key in GRID_KEYS}, 1.0, 1.0)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        base = default_config()
        unknown = set(doc) - set(base)
        if unknown:
            raise ContractViolation(f"unknown config keys {sorted(unknown)}")
        merged = {**base, **doc}
        optim_keys = {f.name for f in fields(OptimConfig)}
        for nested in (
            "grid", "covariates", "truth", "hypothesis", "optimizer",
            "head_optimizer", "diagnostics", "bound",
        ):
            section = doc.get(nested) or {}
            if not isinstance(section, dict):
                raise ContractViolation(f"config section {nested!r} must be an object")
            allowed = (
                optim_keys if nested in ("optimizer", "head_optimizer")
                else set(base[nested])
            )
            unknown = set(section) - allowed
            if unknown:
                raise ContractViolation(f"unknown {nested} keys {sorted(unknown)}")
            merged[nested] = {**base[nested], **section}
        return cls(**merged)

    def to_dict(self) -> dict:
        return asdict(self)

    def optim_config(self) -> OptimConfig:
        return OptimConfig(**self.optimizer)

    def head_optim_config(self) -> OptimConfig:
        return OptimConfig(**self.head_optimizer)

    def hypothesis_config(self, embed_dim: int, head_cap: float) -> HypothesisConfig:
        return HypothesisConfig(
            kind=self.hypothesis["kind"],
            embed_dim=embed_dim,
            head_cap=head_cap,
            mlp_widths=tuple(self.hypothesis["mlp_widths"]),
            mlp_caps=tuple(self.hypothesis["mlp_caps"]),
        )

    def risk_bound(self, cell: dict, nu_tilde: float, norm_cap: float) -> float:
        """The configured closed-form rate at one cell."""
        return evaluate_risk_bound(
            self.bound["setting"],
            BoundParams(
                n=int(cell["n"]), m=int(cell["m"]), k=int(cell["k"]),
                k_prime=int(cell["k_prime"]), r=int(cell["r"]), d=int(cell["d"]),
                nu_tilde=nu_tilde, norm_cap=norm_cap, delta=self.bound["delta"],
                mlp_caps=tuple(self.hypothesis["mlp_caps"]),
            ),
            self.bound.get("profile"),
        )


@dataclass
class ExperimentRecord:
    """One sweep cell x trial outcome; failures carry a reason."""

    cell_index: int
    trial: int
    status: str
    params: dict
    excess_transfer: float = math.nan
    excess_transfer_se: float = math.nan
    excess_pretrain: float = math.nan
    excess_pretrain_se: float = math.nan
    nu_true: float = math.nan
    nu_learned: float = math.nan
    max_principal_angle: float = math.nan
    baseline_excess: float = math.nan
    baseline_excess_se: float = math.nan
    bound_value: float = math.nan
    pretrain_iters: int = 0
    pretrain_stalled: bool = False
    reason: str = ""
    wall_time: float = math.nan   # never serialized: CSVs must be byte-stable


_CSV_FIELDS = (
    "cell_index", "trial", "status",
    *GRID_KEYS,
    "excess_transfer", "excess_transfer_se",
    "excess_pretrain", "excess_pretrain_se",
    "nu_true", "nu_learned", "max_principal_angle",
    "baseline_excess", "baseline_excess_se", "bound_value",
    "pretrain_iters", "pretrain_stalled", "reason",
)


def cells_of(cfg: SweepConfig) -> list[dict]:
    """Grid cells in deterministic order (later keys vary fastest)."""
    combos = itertools.product(*(cfg.grid[key] for key in GRID_KEYS))
    return [dict(zip(GRID_KEYS, combo)) for combo in combos]


def cell_truth(cfg: SweepConfig, cell: dict, trial: int
               ) -> tuple[CovariateSpec, GroundTruth, tuple]:
    """Covariate law, ground truth and truth token of one cell and trial.

    The token holds every parameter the truth depends on; random streams
    derived from it are shared by all cells with the same truth.
    """
    t, cov = cfg.truth, cfg.covariates
    d, r = int(cell["d"]), int(cell["r"])
    k, k_prime = int(cell["k"]), int(cell["k_prime"])
    truth_tok = (
        cell["d"], cell["r"], cell["k"], cell["k_prime"], cell["condition_number"],
        t["top_singular_value"], t["pre_head_cap"], t["down_head_cap"],
        t["down_head_fill"], cov["scale"], cov["cap_factor"],
    )
    spec = isotropic_covariates(d, cov["scale"], cov["cap_factor"])
    truth = make_ground_truth(
        d, r, k, k_prime, float(cell["condition_number"]),
        derive_rng(cfg.seed, "truth", trial, truth_tok),
        top_singular_value=t["top_singular_value"],
        pre_head_cap=t["pre_head_cap"],
        down_head_cap=t["down_head_cap"],
        down_head_fill=t["down_head_fill"],
    )
    return spec, truth, truth_tok


def _run_cell(cfg: SweepConfig, cell: dict, cell_index: int, trial: int, cache: dict
              ) -> ExperimentRecord:
    rec = ExperimentRecord(cell_index=cell_index, trial=trial, status="ok", params=dict(cell))
    start = time.perf_counter()
    n, m, r = int(cell["n"]), int(cell["m"]), int(cell["r"])
    lam = float(cell["lambda_div"])
    spec, truth, truth_tok = cell_truth(cfg, cell, trial)

    pre_key = (trial, truth_tok, n, lam)
    if pre_key in cache:
        result = cache[pre_key]
    else:
        pre_ds = make_dataset(
            truth, spec, n,
            derive_rng(cfg.seed, "pretrain_data", trial, truth_tok, n),
            stage="pretrain",
        )
        hyp = cfg.hypothesis_config(r, cfg.truth["pre_head_cap"])
        # the init stream ignores lambda so regularizer ablations are
        # paired: identical data and identical starting frame
        result = pretrain(
            pre_ds, hyp, lam, cfg.optim_config(),
            derive_rng(cfg.seed, "init", trial, truth_tok, n),
        )
        cache[pre_key] = result

    down_ds = make_dataset(
        truth, spec, m,
        derive_rng(cfg.seed, "down_data", trial, truth_tok, m),
        stage="downstream",
    )
    head_down, _ = fit_downstream_head(
        result.rep, down_ds, cfg.truth["down_head_cap"], cfg.head_optim_config()
    )
    base_head = None
    if cfg.baseline:
        base_head, _ = train_baseline(
            down_ds, cfg.truth["down_head_cap"], cfg.head_optim_config()
        )

    report = measure_excess_risks(
        result.rep, result.head, head_down, truth, spec,
        int(cfg.diagnostics["risk_mc_samples"]),
        derive_rng(cfg.seed, "risk_mc", trial, truth_tok, n, m, lam),
        baseline_head=base_head,
    )
    rec.excess_transfer = report.excess_transfer_risk
    rec.excess_transfer_se = report.std_error
    rec.excess_pretrain = report.excess_pretrain_risk
    rec.excess_pretrain_se = report.pretrain_std_error
    rec.baseline_excess = report.baseline_excess_risk
    rec.baseline_excess_se = report.baseline_std_error

    rec.nu_true = diversity_parameter(truth.pre_head)
    rec.nu_learned = diversity_parameter(result.head)
    if isinstance(result.rep, SubspaceRep):
        rec.max_principal_angle = float(principal_angles(result.rep, truth.rep)[-1])
    rec.pretrain_iters = len(result.trace)
    rec.pretrain_stalled = result.trace.stalled
    rec.bound_value = cfg.risk_bound(cell, rec.nu_true, spec.norm_cap)
    rec.wall_time = time.perf_counter() - start
    return rec


def run_sweep(cfg: SweepConfig, out_csv=None) -> list[ExperimentRecord]:
    """Run every (cell, trial), isolate failures, and stream records.

    Deterministic for a fixed config: streams are derived, jobs run in
    the (cell, trial) output order, and stage-one results are memoized by
    their defining parameters so cells sharing them compute once. Rows
    are appended to ``out_csv`` as they finish.
    """
    cells = cells_of(cfg)
    records: list[ExperimentRecord] = []
    cache: dict = {}
    sink = open(out_csv, "w") if out_csv is not None else None
    try:
        if sink is not None:
            sink.write(",".join(_CSV_FIELDS) + "\n")
        for idx, cell in enumerate(cells):
            for trial in range(cfg.trials):
                start = time.perf_counter()
                try:
                    rec = _run_cell(cfg, cell, idx, trial, cache)
                except Exception as exc:  # crash isolation: the sweep continues
                    rec = ExperimentRecord(
                        cell_index=idx, trial=trial, status="failed",
                        params=dict(cell),
                        reason=f"{type(exc).__name__}: {exc}",
                        wall_time=time.perf_counter() - start,
                    )
                records.append(rec)
                if sink is not None:
                    sink.write(_record_row(rec))
                    sink.flush()
    finally:
        if sink is not None:
            sink.close()
    return records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value).replace(",", ";").replace("\n", " ")


def _record_row(rec: ExperimentRecord) -> str:
    row = []
    for name in _CSV_FIELDS:
        if name in GRID_KEYS:
            row.append(_fmt(rec.params[name]))
        else:
            row.append(_fmt(getattr(rec, name)))
    return ",".join(row) + "\n"


def write_records_csv(path, records: list[ExperimentRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_CSV_FIELDS) + "\n")
        for rec in records:
            fh.write(_record_row(rec))


# parsers of the CSV text, by the field's annotation in ExperimentRecord
_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda text: text == "1"}


def load_records_csv(path) -> list[ExperimentRecord]:
    kinds = {f.name: f.type for f in fields(ExperimentRecord)}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != _CSV_FIELDS:
            raise ContractViolation(f"unexpected records header in {path}")
        records = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_CSV_FIELDS):
                raise ContractViolation(f"malformed records row in {path}: {line!r}")
            row = dict(zip(_CSV_FIELDS, parts))
            params = {key: float(row.pop(key)) for key in GRID_KEYS}
            values = {name: _PARSERS[kinds[name]](text) for name, text in row.items()}
            records.append(ExperimentRecord(params=params, **values))
    return records


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float


def fit_power_law(points) -> PowerLawFit:
    """Least squares of log y on log x for positive (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ContractViolation("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ContractViolation("power-law fit needs positive coordinates")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ((ly - ly.mean()) ** 2).sum()
    r2 = 1.0 if total == 0.0 else 1.0 - float((resid**2).sum()) / float(total)
    return PowerLawFit(float(slope), float(intercept), max(0.0, min(1.0, r2)))


# --- aggregation and reporting ---------------------------------------------


def _median_iqr(values) -> tuple[float, float, float]:
    arr = np.asarray(sorted(values), dtype=np.float64)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
    )


def _group_by_cell(records):
    groups: dict[int, list[ExperimentRecord]] = {}
    for rec in records:
        if rec.status == "ok":
            groups.setdefault(rec.cell_index, []).append(rec)
    return dict(sorted(groups.items()))


@dataclass
class ReportSummary:
    slope_n: PowerLawFit | None
    slope_m: PowerLawFit | None
    diversity_monotone: bool | None
    regularizer_raises_nu: bool | None
    n_ok: int
    n_failed: int
    lines: list = field(default_factory=list)


def _cell_rows(groups):
    rows = []
    for idx, recs in groups.items():
        med, q25, q75 = _median_iqr([r.excess_transfer for r in recs])
        rows.append(
            {
                "cell_index": idx,
                **recs[0].params,
                "trials": len(recs),
                "median_excess": med,
                "q25_excess": q25,
                "q75_excess": q75,
                "median_nu_learned": _median_iqr([r.nu_learned for r in recs])[0],
                "median_nu_true": _median_iqr([r.nu_true for r in recs])[0],
                "median_angle": _median_iqr([r.max_principal_angle for r in recs])[0],
                "median_baseline": _median_iqr([r.baseline_excess for r in recs])[0],
                "median_bound": _median_iqr([r.bound_value for r in recs])[0],
                "stalls": sum(1 for r in recs if r.pretrain_stalled),
            }
        )
    return rows


def write_csv(path, rows, columns) -> None:
    """Write dict rows as CSV; floats keep all 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_report(records, out_dir, slope_window=(-0.75, -0.25), min_r2=0.8
                 ) -> ReportSummary:
    """Aggregate records into figure CSVs plus a text summary.

    Produces risk_vs_n.csv, risk_vs_m.csv, risk_vs_nu.csv,
    regularizer_ablation.csv, bound_vs_measured.csv, and summary.txt in
    ``out_dir``. Slopes are ordinary power-law fits of the per-cell
    medians and are reproducible from the emitted CSVs.
    """
    import os

    if not records:
        raise ContractViolation("no records to report on")
    os.makedirs(out_dir, exist_ok=True)
    groups = _group_by_cell(records)
    rows = _cell_rows(groups)
    n_failed = sum(1 for rec in records if rec.status != "ok")
    summary = ReportSummary(
        slope_n=None, slope_m=None, diversity_monotone=None,
        regularizer_raises_nu=None,
        n_ok=len(records) - n_failed, n_failed=n_failed,
    )
    if not rows:
        raise ContractViolation("every record failed; nothing to aggregate")

    base_cols = ["cell_index", *GRID_KEYS, "trials",
                 "median_excess", "q25_excess", "q75_excess"]

    def by(key):
        return sorted(rows, key=lambda row: row[key])

    write_csv(f"{out_dir}/risk_vs_n.csv", by("n"), base_cols)
    write_csv(f"{out_dir}/risk_vs_m.csv", by("m"), base_cols)
    write_csv(
        f"{out_dir}/risk_vs_nu.csv", by("condition_number"),
        base_cols + ["median_nu_true", "median_angle"],
    )
    write_csv(
        f"{out_dir}/regularizer_ablation.csv", by("lambda_div"),
        base_cols + ["median_nu_learned", "stalls"],
    )
    write_csv(
        f"{out_dir}/bound_vs_measured.csv", rows,
        base_cols + ["median_bound", "median_baseline"],
    )

    lines = summary.lines
    lines.append(f"records: {summary.n_ok} ok, {summary.n_failed} failed")

    def distinct(key):
        return sorted({row[key] for row in rows})

    for key in ("n", "m"):
        pts = {}
        for row in rows:
            pts.setdefault(row[key], []).append(row["median_excess"])
        series = [(x, float(np.median(v))) for x, v in sorted(pts.items())]
        if len(series) >= 3 and all(y > 0 for _, y in series):
            fit = fit_power_law(series)
            setattr(summary, f"slope_{key}", fit)
            ok = slope_window[0] <= fit.slope <= slope_window[1] and fit.r_squared >= min_r2
            lines.append(
                f"slope_{key}: {fit.slope:.4f} (R2 {fit.r_squared:.4f}) "
                f"window {slope_window} -> {'pass' if ok else 'FAIL'}"
            )
    conds = distinct("condition_number")
    if len(conds) >= 2:
        med_by_cond = [
            (c, float(np.median([row["median_excess"] for row in rows
                                 if row["condition_number"] == c])))
            for c in conds
        ]
        vals = [v for _, v in med_by_cond]
        summary.diversity_monotone = all(
            vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1)
        )
        lines.append(
            "diversity monotonicity (excess non-decreasing in condition number): "
            f"{'pass' if summary.diversity_monotone else 'FAIL'} {med_by_cond}"
        )
    lams = distinct("lambda_div")
    if len(lams) >= 2:
        nus = [
            (l, float(np.median([row["median_nu_learned"] for row in rows
                                 if row["lambda_div"] == l])))
            for l in lams
        ]
        summary.regularizer_raises_nu = all(
            nus[i][1] < nus[i + 1][1] for i in range(len(nus) - 1)
        )
        lines.append(
            "regularizer raises learned head diversity: "
            f"{'pass' if summary.regularizer_raises_nu else 'FAIL'} {nus}"
        )
    with open(f"{out_dir}/summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return summary
